"""Whole-program qubit relabeling.

Before any SWAP is spent, try to legalize CNOTs by renaming qubits: walk
the CNOT list front to back, and at the first illegal one branch over the
transpositions that would make it legal -- swap the control with a
neighbour of the target, or the target with a neighbour of the control --
keeping only candidates that leave every already-passed CNOT legal.  Each
branch relabels the whole list and searches on from the CNOT after, so the
first-illegal index strictly increases and every branch terminates.  The
walk is depth first on an explicit stack, not the interpreter's: a path is
as deep as it needs, whatever Python's recursion limit.

Terminal relabelings (fully legal, or a dead end) are ranked by the
estimated SWAP cost of whatever is still illegal, and a spent node budget
ends the search with the best terminal so far; the identity relabeling
is always ranked as a fallback, last, so a relabeling that removes every
illegal CNOT beats doing nothing even when the estimate rounds to zero.

The search runs on plain arrays and bitmasks, in one loop that does all
the work of a node itself.  The CNOTs stay as (control, target) pairs of
the input, and each node's accumulated relabeling is a dense permutation:
a stack entry holds its parent's lists and the two wires its
transposition exchanges, and a popped node copies the lists and applies
it; nothing is undone.  The loop then reads the CNOTs from the node's
start through the permutation in the graph's distance table, up to the
first illegal one, and tests each candidate for it with two integer
masks, not by rereading the passed CNOTs: ``partners[i][q]``, the input
qubits that share a CNOT with q in ``cnots[:i]``, depends only on the
CNOT list, and is built only for the indices i at which the search
branches, each row from the row of the node above; and ``near[w]``, the
input qubits on the wires adjacent to wire w, is copied and updated with
the permutation.  A transposition only moves the two qubits it exchanges,
so the passed CNOTs stay legal exactly when each of the two finds its
partners among the qubits next to its new wire: the test covers the same
CNOTs as a rescan, and passes the same candidates.  Each one is pushed as
soon as it passes, the target side first and each side from its last
neighbour down, so the control side's are popped first, in ascending
order; a node that pushes none is a dead end.  The search visits the same
nodes in the same order as a search that relabels the whole list, at a
fraction of the cost per node.

Terminals are ranked in blocks.  The node budget does not look at a
cost, so the search never needs a terminal's estimate while it runs:
each terminal's relabeling is queued in exploration order on the leaf
queue the router uses too (:class:`~qlayout.search.Leaves`), which scores
its terminals together whenever some eight thousand terminal x CNOT
elements wait, and keeps only the running best.  The estimate is exact,
whatever the block, and the first cheapest terminal wins, so the result
is the one a search that scored every terminal on the spot would return.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coupling import CouplingGraph
from .ir import Circuit, GateKind, QubitMapping
from .routing import fit_to_graph
from .search import Leaves


@dataclass(frozen=True)
class SearchLimits:
    """Cap on the relabeling search: after ``max_nodes`` (an int >= 0)
    branching nodes, the best terminal seen so far wins.  No depth cap is
    needed: each level legalizes one more qubit pair and keeps the passed
    ones legal, and legal pairs sit on distinct edges, so a search path is
    at most as deep as the graph has edges.  The search walks an explicit
    stack, so that depth is not limited by Python's recursion limit."""

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
    size, dist, neighbors = len(cnots), graph.distances, graph.neighbors
    leaves = Leaves(cnots, graph)
    budget = limits.max_nodes
    # partner masks of cnots[:i], for each i a node has asked for
    passed: dict[int, list[int]] = {0: [0] * graph.num_qubits}
    identity = list(range(graph.num_qubits))
    # depth first: (start, parent, the parent's perm (input qubit -> wire,
    # the accumulated relabeling), inverse and near, the wires moved and nbr
    # whose transposition leads here, -1 at the root); cnots[:start] are
    # legal under the node's perm, and passed has a row for parent <= start,
    # where the parent branched
    stack = [(0, 0, identity, identity, _near_masks(graph), -1, -1)]
    push, pop = stack.append, stack.pop
    # a spent budget ends the search: the best leaf queued so far wins
    while stack and budget > 0:
        start, parent, perm, inverse, near, moved, nbr = pop()
        if moved >= 0:
            # the qubits a and b exchange wires, so every wire next to
            # either one swaps bit a for bit b in its mask; a wire next to
            # both keeps both, and its two flips cancel
            a, b = inverse[moved], inverse[nbr]
            perm, inverse, near = perm[:], inverse[:], near[:]
            perm[a], perm[b], inverse[moved], inverse[nbr] = nbr, moved, b, a
            ab = (1 << a) | (1 << b)
            for u in neighbors[moved] + neighbors[nbr]:
                near[u] ^= ab
        i = start
        while i < size:
            c, t = cnots[i]
            if dist[perm[c]][perm[t]] != 1:
                break
            i += 1
        else:
            wires = tuple(perm)  # every CNOT legal
            leaves.add(wires, size, 0.0, wires)
            continue
        budget -= 1
        partners = passed.get(i)
        if partners is None:
            partners = passed[i] = _partners(passed[parent], cnots, parent, i)
        # the transpositions that make the wires of cnots[i] adjacent: one
        # wire, moved, takes the place of nbr, a neighbour of the other,
        # fixed (nbr is never moved itself: the two are not adjacent).
        # They are pushed as they pass, target side first and each side in
        # descending neighbour order, so the control side pops first, in
        # ascending order.
        depth = len(stack)
        for fixed, moved in ((perm[c], perm[t]), (perm[t], perm[c])):
            a = inverse[moved]
            of_a, near_moved, from_moved = partners[a], near[moved], dist[moved]
            for nbr in reversed(neighbors[fixed]):
                b = inverse[nbr]
                # a lands on nbr and b on moved: each must find its partners
                # next to its new wire, where, if the two wires are adjacent,
                # the other one's qubit has changed too
                flip = (1 << a) | (1 << b) if from_moved[nbr] == 1 else 0
                if not (of_a & ~(near[nbr] ^ flip) or partners[b] & ~(near_moved ^ flip)):
                    push((i + 1, i, perm, inverse, near, moved, nbr))
        if len(stack) == depth:  # a dead end
            wires = tuple(perm)
            leaves.add(wires, i, 0.0, wires)
    wires = tuple(identity)  # the fallback, queued last
    leaves.add(wires, 0, 0.0, wires)
    cost, wires = leaves.take()
    return QubitMapping(tuple(enumerate(wires))), cost
