"""Whole-program qubit relabeling.

Before any SWAP is spent, try to legalize CNOTs by renaming qubits: walk
the CNOT list front to back, and at the first illegal one branch over the
transpositions that would make it legal -- swap the control with a
neighbour of the target, or the target with a neighbour of the control --
keeping only candidates that leave every already-passed CNOT legal.  Each
branch relabels the whole list and recurses, so the first-illegal index
strictly increases and every branch terminates.

Terminal relabelings (fully legal, dead end, or cut by the node budget)
are ranked by the estimated SWAP cost of whatever is still illegal; the
identity relabeling is always ranked as a fallback, last, so a relabeling
that removes every illegal CNOT beats doing nothing even when the
estimate rounds to zero.

The search runs on plain arrays and bitmasks.  The CNOTs stay as
(control, target) pairs of the input, and the accumulated relabeling is
one dense permutation that a transposition updates in place (and undoes
on backtrack); legality is read from the graph's distance table.  A
candidate is checked with two integer masks, not by rereading the passed
CNOTs: ``partners[i][q]``, the input qubits that share a CNOT with q in
``cnots[:i]``, depends only on the CNOT list, and is built only for the
indices i at which the search branches, each row from the row of the
node above; and ``near[w]``, the input qubits on the wires adjacent to
wire w, is kept current as transpositions are applied and undone.  A
transposition only moves the two qubits it exchanges, so the passed CNOTs
stay legal exactly when each of the two finds its partners among the
qubits next to its new wire: the test covers the same CNOTs as a rescan,
and keeps the same candidates in the same order.  The search visits the
same nodes in the same order as a search that relabels the whole list, at
a fraction of the cost per node.

Terminals are ranked in blocks.  The node budget does not look at a
cost, so the search never needs a terminal's estimate while it runs:
each terminal's relabeling is queued in exploration order on the leaf
queue the router uses too (:class:`~qlayout.search.Leaves`), which scores
its terminals together whenever a few thousand terminal x CNOT elements
wait, and keeps only the running best.  The estimate is exact, whatever
the block, and the first cheapest terminal wins, so the result is the one
a search that scored every terminal on the spot would return.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coupling import CouplingGraph
from .ir import Circuit, GateKind, QubitMapping
from .routing import fit_to_graph
from .search import Leaves, first_illegal


@dataclass(frozen=True)
class SearchLimits:
    """Cap on the relabeling search: after ``max_nodes`` (an int >= 0)
    branching nodes, the best terminal seen so far wins.  No depth cap is
    needed: each level legalizes one more qubit pair and keeps the passed
    ones legal, and legal pairs sit on distinct edges, so a search path is
    at most as deep as the graph has edges."""

    max_nodes: int = 4096

    def __post_init__(self):
        if type(self.max_nodes) is not int or self.max_nodes < 0:
            raise ValueError(f"max_nodes must be an integer >= 0, got {self.max_nodes!r}")


def _partners(row: Sequence[int], cnots: Sequence[tuple[int, int]],
              start: int, stop: int) -> list[int]:
    """``row``, the partner masks of ``cnots[:start]``, extended to
    ``cnots[:stop]``, as a new list: per input qubit q, the bitmask of the
    input qubits that share a CNOT with q."""
    row = list(row)
    for c, t in cnots[start:stop]:
        row[c] |= 1 << t
        row[t] |= 1 << c
    return row


def _near_masks(graph: CouplingGraph) -> list[int]:
    """Per wire w, the bitmask of the input qubits on the wires adjacent to
    w, under the identity relabeling."""
    return [sum(1 << u for u in nbrs) for nbrs in graph.neighbors]


def _candidates(ill: tuple[int, int], graph: CouplingGraph, partners: Sequence[int],
                near: Sequence[int], inverse: Sequence[int]) -> list[tuple[int, int]]:
    """Wire pairs (moved, nbr) whose transposition makes the wires ``ill``
    adjacent and keeps legal every CNOT of the prefix that ``partners``
    describes (see :func:`_partners`).

    ``inverse`` (wire -> input qubit) is the current relabeling, under
    which the prefix must be legal, and ``near`` its wire masks (see
    :func:`_near_masks`).  Control-side swaps (control with each neighbour
    of the target) come first, then target-side, each in ascending
    neighbour order.
    """
    dist = graph.distances
    control, target = ill
    found = []
    for fixed, moved in ((target, control), (control, target)):
        a = inverse[moved]
        of_a, near_moved = partners[a], near[moved]
        for nbr in graph.neighbors[fixed]:  # never ``moved``: ``ill`` is not an edge
            b = inverse[nbr]
            # a lands on nbr and b on moved: each must find its partners
            # next to its new wire, where, if the two wires are adjacent,
            # the other one's qubit has changed too
            flip = (1 << a) | (1 << b) if dist[moved][nbr] == 1 else 0
            if not (of_a & ~(near[nbr] ^ flip) or partners[b] & ~(near_moved ^ flip)):
                found.append((moved, nbr))
    return found


def global_adjust(circuit: Circuit, graph: CouplingGraph,
                  limits: SearchLimits | None = None) -> tuple[QubitMapping, float]:
    """Best zero-gate relabeling for ``circuit`` and its estimated residual
    SWAP cost.

    The returned mapping is a placement, input qubit q on wire
    ``mapping(q)``, for :func:`~qlayout.routing.route_circuit` to start
    from (its ``initial_mapping``); it never adds gates.  Ties on
    the estimate are broken by exploration order: depth-first, control-side
    candidates before target-side, identity last.  A circuit wider than the
    graph is an error (see :func:`~qlayout.routing.fit_to_graph`).
    """
    circuit = fit_to_graph(circuit, graph)
    limits = limits or SearchLimits()
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    perm = list(range(graph.num_qubits))  # input qubit -> wire, the accumulated relabeling
    inverse = list(range(graph.num_qubits))
    near = _near_masks(graph)
    neighbors = graph.neighbors

    leaves = Leaves(cnots, graph)
    budget = limits.max_nodes

    def offer(start: int) -> None:
        wires = tuple(perm)
        leaves.add(wires, start, 0.0, wires)

    # partner masks of cnots[:i], for each i a node has asked for
    passed: dict[int, list[int]] = {0: [0] * graph.num_qubits}

    def search(start: int, parent: int) -> None:
        # cnots[:start] are legal under perm, so the scan starts there;
        # passed has a row for parent <= start, where the parent node branched
        nonlocal budget
        i = first_illegal(cnots, graph, start, perm)
        if i < 0:
            offer(len(cnots))
            return
        if budget <= 0:
            offer(i)
            return
        budget -= 1
        c, t = cnots[i]
        partners = passed.get(i)
        if partners is None:
            partners = passed[i] = _partners(passed[parent], cnots, parent, i)
        swaps = _candidates((perm[c], perm[t]), graph, partners, near, inverse)
        if not swaps:
            offer(i)
            return
        for moved, nbr in swaps:
            if budget <= 0:
                break
            # the qubits a and b exchange wires, so every wire next to
            # either one swaps bit a for bit b in its mask; a wire next to
            # both keeps both, and its two flips cancel
            a, b = inverse[moved], inverse[nbr]
            ab = (1 << a) | (1 << b)
            flips = neighbors[moved] + neighbors[nbr]
            perm[a], perm[b], inverse[moved], inverse[nbr] = nbr, moved, b, a
            for u in flips:
                near[u] ^= ab
            search(i + 1, i)
            perm[a], perm[b], inverse[moved], inverse[nbr] = moved, nbr, a, b
            for u in flips:
                near[u] ^= ab

    search(0, 0)
    # every transposition has been undone: perm is the identity fallback
    offer(0)
    cost, wires = leaves.take()
    return QubitMapping(tuple(enumerate(wires))), cost
