"""Whole-program qubit relabeling.

Before any SWAP is spent, try to legalize CNOTs by renaming qubits: walk
the CNOT list front to back, and at the first illegal one branch over the
transpositions that would make it legal -- swap the control with a
neighbour of the target, or the target with a neighbour of the control --
keeping only candidates that leave every already-passed CNOT legal.  Each
branch relabels the whole list and recurses, so the first-illegal index
strictly increases and every branch terminates.

Terminal relabelings (fully legal, dead end, or capped by the search
limits) are ranked by the estimated SWAP cost of whatever is still
illegal; the identity relabeling is always ranked as a fallback, last, so
a relabeling that removes every illegal CNOT beats doing nothing even
when the estimate rounds to zero.

The search runs on plain arrays: the CNOTs stay as (control, target)
pairs of the input, the accumulated relabeling is one dense permutation
that a transposition updates in place (and undoes on backtrack), and
legality and distances are read from the graph's precomputed tables.  A
candidate is checked only against the passed CNOTs on the two qubits it
exchanges; every other passed CNOT keeps its wires.  The search visits
the same nodes in the same order as a relabel-the-whole-list search, at a
fraction of the cost per node.

Terminals are ranked in blocks.  Neither the node budget nor the depth
cap looks at a cost, so the search never needs a terminal's estimate
while it runs: each terminal's relabeling is queued in exploration order,
and whenever a few thousand terminal x CNOT elements wait, the queue is
scored at once (see :class:`~qlayout.routing._Leaves`) and only the
running best is kept.  The estimate is exact, whatever the block, and
the first cheapest terminal wins, so the result is the one a search that
scored every terminal on the spot would return.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .coupling import CouplingGraph
from .ir import Circuit, GateKind, QubitMapping
from .routing import _first_illegal, _Leaves, fit_to_graph


@dataclass(frozen=True)
class SearchLimits:
    """Caps on the relabeling search; on either cap the best terminal seen
    so far wins.  ``max_depth`` defaults to twice the graph size."""

    max_nodes: int = 4096
    max_depth: int | None = None

    def depth_for(self, graph: CouplingGraph) -> int:
        return self.max_depth if self.max_depth is not None else 2 * graph.num_qubits


def _legalizing_swaps(ill: tuple[int, int], graph: CouplingGraph,
                      cnots: Sequence[tuple[int, int]], passed: Sequence[list[int]],
                      end: int, perm: list[int],
                      inverse: list[int]) -> Iterator[tuple[int, int]]:
    """Wire pairs (moved, nbr) whose transposition legalizes ``ill`` and
    keeps every CNOT in ``cnots[:end]`` legal.

    Those CNOTs must all be legal already, read through the dense
    relabeling ``perm`` (``inverse`` is its inverse); ``passed[q]`` lists,
    in ascending order, the indices of the CNOTs that touch input qubit q.
    Control-side swaps (control with each neighbour of the target) come
    first, then target-side, each in ascending neighbour order.
    """
    adjacent = graph.adjacency_matrix
    control, target = ill
    for fixed, moved in ((target, control), (control, target)):
        for nbr in graph.adjacent(fixed):
            if nbr == moved:
                continue
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b] = nbr, moved
            ok = all(adjacent[perm[cnots[i][0]]][perm[cnots[i][1]]]
                     for q in (a, b) for i in passed[q][:bisect_left(passed[q], end)])
            perm[a], perm[b] = moved, nbr
            if ok:
                yield moved, nbr


def _cnot_index(cnots: Sequence[tuple[int, int]], num_qubits: int) -> list[list[int]]:
    """Per qubit, the ascending indices of the CNOTs that touch it."""
    touching: list[list[int]] = [[] for _ in range(num_qubits)]
    for i, (c, t) in enumerate(cnots):
        touching[c].append(i)
        touching[t].append(i)
    return touching


def candidate_mappings(ill: tuple[int, int], graph: CouplingGraph,
                       prefix: Sequence[tuple[int, int]]) -> list[QubitMapping]:
    """Transpositions that legalize ``ill`` without breaking ``prefix``.

    ``prefix`` holds the CNOTs before ``ill``; they must all be legal on the
    undirected view.  Control-side swaps (control with each neighbour of
    the target) come first, then target-side, each in ascending neighbour
    order.
    """
    prefix = [(c, t) for c, t in prefix]
    if not all(graph.is_legal_cnot(c, t, respect_direction=False) for c, t in prefix):
        raise ValueError("every CNOT of prefix must already be legal")
    identity = list(range(graph.num_qubits))
    return [QubitMapping.swap(moved, nbr) for moved, nbr in _legalizing_swaps(
        tuple(ill), graph, prefix, _cnot_index(prefix, graph.num_qubits), len(prefix),
        identity, list(identity))]


def global_adjust(circuit: Circuit, graph: CouplingGraph,
                  limits: SearchLimits | None = None) -> tuple[QubitMapping, float]:
    """Best zero-gate relabeling for ``circuit`` and its estimated residual
    SWAP cost.

    The returned mapping is meant to be applied to the whole program
    (``apply_mapping(circuit, mapping)``); it never adds gates.  Ties on
    the estimate are broken by exploration order: depth-first, control-side
    candidates before target-side, identity last.  A circuit wider than the
    graph is an error (see :func:`~qlayout.routing.fit_to_graph`).
    """
    circuit = fit_to_graph(circuit, graph)
    limits = limits or SearchLimits()
    max_depth = limits.depth_for(graph)
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    passed = _cnot_index(cnots, graph.num_qubits)
    perm = list(range(graph.num_qubits))  # input qubit -> wire, the accumulated relabeling
    inverse = list(range(graph.num_qubits))

    leaves = _Leaves(cnots, graph)
    budget = limits.max_nodes

    def offer(start: int) -> None:
        wires = tuple(perm)
        leaves.add(wires, start, 0.0, wires)

    def search(start: int, depth: int) -> None:
        # cnots[:start] are legal under perm, so the scan starts there
        nonlocal budget
        i = _first_illegal(cnots, graph, start, perm)
        if i < 0:
            offer(len(cnots))
            return
        if depth >= max_depth or budget <= 0:
            offer(i)
            return
        budget -= 1
        c, t = cnots[i]
        swaps = list(_legalizing_swaps((perm[c], perm[t]), graph, cnots, passed, i,
                                       perm, inverse))
        if not swaps:
            offer(i)
            return
        for moved, nbr in swaps:
            if budget <= 0:
                break
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b], inverse[moved], inverse[nbr] = nbr, moved, b, a
            search(i + 1, depth + 1)
            perm[a], perm[b], inverse[moved], inverse[nbr] = moved, nbr, a, b

    search(0, 0)
    # every transposition has been undone: perm is the identity fallback
    offer(0)
    cost, wires = leaves.take()
    return QubitMapping(tuple(enumerate(wires))), cost
