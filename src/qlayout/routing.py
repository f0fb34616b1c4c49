"""SWAP-chain routing with bounded lookahead.

An illegal CNOT (its qubit pair is not an edge of the undirected view) is
repaired by walking one endpoint along the shortest path until it sits
next to the other.  The walk is a chain of SWAPs (each expanded to three
CNOTs); the displaced states are *not* swapped back -- instead the induced
relabeling is applied to the rest of the program, which is what makes the
choice of which endpoint to move matter for everything downstream.

That choice is a binary tree over the remaining illegal CNOTs.  The top
``lookahead`` levels (default 4, at most :data:`MAX_LOOKAHEAD`) are
searched exactly; below the horizon the cost of the residue is estimated
by :func:`estimate_cost`.  Search costs are accounted in flat units: 34
per intermediate vertex on the path (one SWAP: 3 CNOTs + 4 direction-fix
H), plus 4 when the control side is the one displaced, anticipating the
orientation repair of the final CNOT.

The search runs on plain arrays.  The remaining CNOTs stay as the input's
(control, target) pairs and every relabeling is a dense permutation
``perm[q]``: a branch composes its chain onto the permutation and scans
the CNOTs through it, instead of rewriting them.  Legality and
intermediate-vertex counts are both read from the coupling graph's one
table, its distances: a pair is an edge exactly at distance 1, and a
shortest path has distance - 1 intermediate vertices.  The two repairs of
an ordered wire pair -- each chain's cost, its relabeling as a dense step
and the wires its mover visits -- depend only on the graph, so a routing
call builds them the first time it meets the pair and keeps them until it
returns (:func:`_repairs`): a tree node only composes a step onto its
permutation.  The router keeps one running wire permutation, applies the
chosen step to it, and builds each output gate once, when it is emitted.

A decision reuses the one before it.  The router commits the chosen
first-level repair, so the next illegal CNOT is the one that child's scan
found, and levels 1 to L - 1 of the next search are the chosen child's
subtree from the last one.  A tree node keeps its permutation, its scan's
result and its children, and :func:`_choose_repair` keeps the chosen
child (at most 2^L - 2 nodes below it, one subtree at a time): the next
decision rooted there descends the kept levels and builds only the new
bottom one, 2^L compositions and scans instead of 2^(L+1) - 2.

Each leaf still scores its whole residue, but not one at a time.  No
cost is read while the tree is descended, so the leaves are collected in
exploration order and scored in blocks (:class:`_Leaves`), and the first
cheapest one wins, as if each had been scored when it was reached.  A
block large enough to pay for it is scored with numpy
(:meth:`_Leaves.score`): one gather of distances less 1, the
intermediate-vertex counts, over every leaf and CNOT, and an exact
integer sum per leaf, so the estimates, and with them the decisions, are
the same bits as leaf by leaf.

Orientation (on directed graphs) is repaired afterwards by
:func:`fix_directions`, and :func:`naive_route` provides the classic
swap-there-and-back construction used as the benchmark baseline.
:func:`brute_force_route_cost` searches the same tree without a horizon:
it is the oracle the lookahead router is certified against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Any, Sequence

import numpy as np

from .coupling import CouplingGraph, DisconnectedGraphError
from .ir import Circuit, Gate, GateKind, QubitMapping, price

#: flat accounting cost of one SWAP: 3 CNOTs + 4 direction-fix H
SWAP_COST = price(3, 4)

#: extra accounting cost when the displaced endpoint is the control
CONTROL_MOVE_COST = 4

DEFAULT_LOOKAHEAD = 4

#: deepest accepted lookahead: the exact search doubles in cost per level
MAX_LOOKAHEAD = 12


class LegalityError(RuntimeError):
    """A CNOT that no orientation of the coupling graph can execute."""


def _swap_gates(a: int, b: int) -> list[Gate]:
    """cx(a,b) cx(b,a) cx(a,b) on the distinct wires of a graph edge,
    built unchecked: the wires come from the graph, so they are valid."""
    ab = Gate._unchecked(GateKind.CNOT, (a, b))
    return [ab, Gate._unchecked(GateKind.CNOT, (b, a)), ab]


def estimate_cost(intermediate_counts: Sequence[int]) -> float:
    """Discounted SWAP-cost estimate for a list of illegal CNOTs.

    With n entries, the i-th (1-based) contributes
    ((n - i) / n)^2 * m_i * 34 where m_i is its intermediate-vertex count:
    later repairs are increasingly perturbed by earlier ones, so their
    estimates are damped, down to zero weight for the last entry.

    The sum is exact: 34 * sum((n - i)^2 * m_i) in integers, then one
    correctly rounded division by n^2.  The result does not depend on the
    order of summation, so a vectorized sum (see :meth:`_Leaves.score`)
    gives the same bits.
    """
    n = len(intermediate_counts)
    if n == 0:
        return 0.0
    total = 0
    k = n
    for m in intermediate_counts:
        k -= 1  # n - i for the i-th entry
        total += k * k * m
    return SWAP_COST * total / (n * n)


def _check_lookahead(lookahead: int) -> None:
    if type(lookahead) is not int or not 1 <= lookahead <= MAX_LOOKAHEAD:
        raise ValueError(f"lookahead must be an integer between 1 and {MAX_LOOKAHEAD} "
                         f"(MAX_LOOKAHEAD), got {lookahead!r}")


#: one repair of an illegal CNOT: (search cost, step, stops)
_Repair = tuple[int, tuple[int, ...], tuple[int, ...]]


def _repairs(ill: tuple[int, int], graph: CouplingGraph,
             table: dict[tuple[int, int], tuple[_Repair, _Repair]]) -> tuple[_Repair, _Repair]:
    """Both SWAP chains that repair the wire pair ``ill``, control moved
    first, as (search cost, step, stops).  The mover is the endpoint on
    wire ``stops[0]``; its state visits the ``stops`` -- its own wire, then
    the shortest path's interior toward the other endpoint -- and each
    consecutive pair of them is one SWAP.  The cost is one SWAP per hop,
    plus :data:`CONTROL_MOVE_COST` when the control moves; the step is the
    chain's relabeling as a dense ``step[wire]``.

    They depend only on the graph and the ordered pair, so they are built
    on first use and kept in ``table``, which one routing call owns: it
    holds the pairs that call meets, and ends with it.
    """
    repairs = table.get(ill)
    if repairs is None:
        c, t = ill
        inter = graph.shortest_path(c, t)[1:-1]
        built = []
        for stops, extra in (([c, *inter], CONTROL_MOVE_COST), ([t, *inter[::-1]], 0)):
            step = list(range(graph.num_qubits))
            step[stops[0]] = stops[-1]
            for prev, cur in zip(stops, stops[1:]):
                step[cur] = prev
            built.append((SWAP_COST * len(inter) + extra, tuple(step), tuple(stops)))
        repairs = table[ill] = tuple(built)
    return repairs


def _first_illegal(cnots: Sequence[tuple[int, int]], graph: CouplingGraph,
                   start: int, perm: Sequence[int]) -> int:
    """Index of the first CNOT at or after ``start`` that is not an edge of
    the undirected view, each qubit q read as ``perm[q]``; -1 if none."""
    dist = graph.distances
    for i in range(start, len(cnots)):
        c, t = cnots[i]
        if dist[perm[c]][perm[t]] != 1:
            return i
    return -1


def _residual_intermediates(cnots: Sequence[tuple[int, int]], graph: CouplingGraph,
                            start: int, perm: Sequence[int]) -> list[int]:
    """Intermediate-vertex counts, distance - 1, of the illegal CNOTs at or
    after ``start``, in order, each qubit q read as ``perm[q]``.  A CNOT is
    illegal exactly when its distance is not 1, and -2 marks a pair in two
    components."""
    dist = graph.distances
    counts = [d - 1 for c, t in islice(cnots, start, None) if (d := dist[perm[c]][perm[t]]) != 1]
    if not graph.is_connected and -2 in counts:
        raise DisconnectedGraphError("no path between the qubits of an illegal CNOT")
    return counts


#: leaf x CNOT elements a search lets wait before it scores its leaves
_BLOCK_ELEMENTS = 4096

#: smallest block scored with numpy: below it, the fixed cost of the numpy
#: calls exceeds that of scoring each leaf in Python
_NUMPY_MIN_ELEMENTS = 128


class _Leaves:
    """The leaves of a search over ``cnots``, scored in blocks.

    A leaf is (perm, start, base, tag): a dense permutation, the index of
    its first CNOT still to score, a base cost and a tag; its cost is the
    base plus the estimate of its residue.  A search appends its leaves to
    ``pending`` in exploration order and counts the leaf x CNOT elements
    they hold, ``len(cnots) - start`` each; once about ``block``
    (:data:`_BLOCK_ELEMENTS`) elements wait, it hands the count to
    :meth:`flush`, which scores them together.  :meth:`take` flushes the
    rest and returns the first leaf of least cost, as a search that scored
    each leaf when it reached it would keep, and starts over for the next
    search on the same CNOTs.  The searches of one routing call share
    ``repairs``, the table of :func:`_repairs`, and ``kept``, the node the
    last decision chose, whose subtree the next decision reuses (see
    :func:`_choose_repair`).
    """

    def __init__(self, cnots: Sequence[tuple[int, int]], graph: CouplingGraph):
        self.cnots, self.graph = cnots, graph
        self.repairs: dict[tuple[int, int], tuple[_Repair, _Repair]] = {}
        self.pending: list[tuple[Sequence[int], int, float, Any]] = []
        self.block = _BLOCK_ELEMENTS
        self.kept: _Node | None = None
        self.best: tuple[float, Any] = (float("inf"), None)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Controls and targets of the CNOTs as two index arrays."""
        pairs = np.array(self.cnots, dtype=np.intp).reshape(len(self.cnots), 2)
        return pairs[:, 0], pairs[:, 1]

    @cached_property
    def gaps(self) -> np.ndarray:
        """The graph's distances less 1: 0 on an edge, the intermediate-vertex
        count off it, -2 across components."""
        return self.graph.distance_array - 1

    @cached_property
    def index(self) -> np.ndarray:
        """The CNOT indices, ``arange(len(cnots))``."""
        return np.arange(len(self.cnots))

    def flush(self, elements: int) -> None:
        """Score the pending leaves, which hold ``elements`` leaf x CNOT
        elements, keep the first cheapest so far and empty the queue."""
        pending = self.pending
        best_cost, best_tag = self.best
        for (_, _, base, tag), estimate in zip(pending, self.score(pending, elements)):
            cost = base + estimate
            if cost < best_cost:
                best_cost, best_tag = cost, tag
        self.best = (best_cost, best_tag)
        pending.clear()

    def take(self, elements: int) -> tuple[float, Any]:
        """(cost, tag) of the first cheapest leaf since the last take; the
        pending leaves hold ``elements`` elements."""
        self.flush(elements)
        best, self.best = self.best, (float("inf"), None)
        return best

    def score(self, block: Sequence[tuple[Sequence[int], int, float, Any]],
              elements: int) -> list[float]:
        """``estimate_cost(_residual_intermediates(cnots, graph, start, perm))``
        for each leaf of ``block``, bit for bit; the leaves hold ``elements``
        leaf x CNOT elements.

        A large block gathers :attr:`gaps` for every leaf over the CNOTs from
        the smallest start on, zeroes those before each leaf's own start
        (they may be illegal under its permutation; there are none when all
        starts are equal), and ranks the illegal ones by a running count.
        The weighted sum is exact in int64, so the one division per leaf
        rounds as in :func:`estimate_cost`.
        """
        cnots, graph = self.cnots, self.graph
        size = len(cnots)
        # size^3 * num_qubits bounds the weighted sum, which must fit in int64
        if elements < _NUMPY_MIN_ELEMENTS or size ** 3 * graph.num_qubits >= 2 ** 63:
            return [estimate_cost(_residual_intermediates(cnots, graph, start, perm))
                    if start < size else 0.0 for perm, start, _, _ in block]
        starts = [leaf[1] for leaf in block]
        first = min(starts)
        controls, targets = self.columns
        perms = np.array([leaf[0] for leaf in block], dtype=np.intp)
        # each CNOT's wire pair under each permutation, as a flat index of gaps
        pairs = perms.take(controls[first:], axis=1)
        pairs *= graph.num_qubits
        pairs += perms.take(targets[first:], axis=1)
        gap = self.gaps.take(pairs)
        if max(starts) > first:
            gap[self.index[first:] < np.array(starts)[:, None]] = 0
        if not graph.is_connected and (gap < 0).any():
            raise DisconnectedGraphError("no path between the qubits of an illegal CNOT")
        rank = np.add.accumulate(gap != 0, axis=1, dtype=np.int64)
        counts = rank[:, -1:].copy()
        rank -= counts
        rank *= rank
        total = np.einsum("ij,ij->i", rank, gap)
        return [SWAP_COST * t / (k * k) if k else 0.0
                for t, k in zip(total.tolist(), counts[:, 0].tolist())]


#: a node of the lookahead tree, ``[repair, perm, j, children]``: the repair
#: (one of :func:`_repairs`) that leads to it from its parent, the
#: permutation after it, the index of the first CNOT illegal under that
#: permutation (-1 if none), and its two children once it has been expanded
_Node = list


def _children(ill: tuple[int, int], start: int, perm: Sequence[int],
              leaves: _Leaves) -> list[_Node]:
    """The two repairs of ``ill`` applied to ``perm``, control moved first,
    each as a new unexpanded node whose scan for the next illegal CNOT
    starts at ``start``."""
    cnots, graph = leaves.cnots, leaves.graph
    kids = []
    for repair in _repairs(ill, graph, leaves.repairs):
        step = repair[1]
        moved = [step[q] for q in perm]
        kids.append([repair, moved, _first_illegal(cnots, graph, start, moved), None])
    return kids


def _choose_repair(ill: tuple[int, int], leaves: _Leaves, start: int,
                   perm: Sequence[int], lookahead: int) -> tuple[_Repair, float]:
    """Best first-level repair of ``ill`` (one of :func:`_repairs`) and its
    cost, by exact search of the top ``lookahead`` levels of the
    control/target decision tree.

    The CNOTs after ``ill`` are ``leaves.cnots[start:]`` read through the
    dense relabeling ``perm``.  A node above the horizon whose permutation
    leaves an illegal CNOT is expanded, and the others are leaves: their
    cost is the repairs' costs from the root down plus the estimated cost
    of their residue.  Children are visited control first at every level,
    and the leaves are queued in that order and scored in blocks, so ties
    keep the earlier-explored leaf.

    The router commits the repair this returns, so its next decision is
    rooted at the chosen child: same permutation, and ``ill`` is that
    child's first illegal CNOT.  The chosen child is kept on ``leaves``
    (``leaves.kept``), and a decision at that root reuses its subtree and
    only builds the nodes below it, the new bottom level: 2^L of the
    2^(L+1) - 2 nodes at lookahead L.  The tree depends only on the root,
    so the decision is the one a fresh search makes.  One subtree is kept
    at a time, at most 2^L - 2 nodes below its root.
    """
    cnots, size, block, pending = leaves.cnots, len(leaves.cnots), leaves.block, leaves.pending
    # an expanded node has an illegal CNOT, its ``ill``, at index j
    kept, kids = leaves.kept, None
    if kept is not None and kept[3] is not None and kept[2] == start - 1 and kept[1] == perm:
        c, t = cnots[start - 1]
        if (perm[c], perm[t]) == ill:
            kids = kept[3]
    if kids is None:
        kids = _children(ill, start, perm, leaves)
    # depth first, control first: (node, its parent's cost, its first-level
    # node, its depth)
    stack = [(kid, 0.0, kid, 1) for kid in reversed(kids)]
    push, pop = stack.append, stack.pop
    waiting = 0
    while stack:
        node, acc, first, depth = pop()
        repair, moved, j, below = node
        cost = acc + repair[0]
        if j >= 0 and depth < lookahead:
            if below is None:
                c, t = cnots[j]
                below = node[3] = _children((moved[c], moved[t]), j + 1, moved, leaves)
            push((below[1], cost, first, depth + 1))
            push((below[0], cost, first, depth + 1))
            continue
        rest = j if j >= 0 else size
        pending.append((moved, rest, cost, first))
        waiting += size - rest
        if waiting >= block:
            leaves.flush(waiting)
            waiting = 0
    best_cost, leaves.kept = leaves.take(waiting)
    return leaves.kept[0], best_cost


@dataclass(frozen=True)
class RouteResult:
    circuit: Circuit
    final_mapping: QubitMapping  #: input qubit -> the wire it ends on, placement included
    search_cost: int  #: committed decisions, in flat 34/+4 units
    swaps_emitted: int


def fit_to_graph(circuit: Circuit, graph: CouplingGraph) -> Circuit:
    """``circuit`` on a register as wide as ``graph``, so that SWAPs may
    move states onto any wire; a circuit wider than the graph is an error."""
    if circuit.num_qubits > graph.num_qubits:
        raise ValueError(f"circuit uses {circuit.num_qubits} qubits but the "
                         f"layout has only {graph.num_qubits}")
    if circuit.num_qubits == graph.num_qubits:
        return circuit
    return circuit.widened(graph.num_qubits)


def route_circuit(circuit: Circuit, graph: CouplingGraph,
                  lookahead: int = DEFAULT_LOOKAHEAD, *,
                  initial_mapping: QubitMapping = QubitMapping()) -> RouteResult:
    """Insert one SWAP chain before each CNOT that is illegal on the
    undirected view; a chain that leaves the pair apart is a
    :class:`LegalityError`.

    Qubit q starts on wire ``initial_mapping(q)`` (default: the identity;
    a placement that moves a qubit off the graph is a ``ValueError``).  Each
    repair relabels the rest of the program, the triggering CNOT included,
    through one running wire permutation, and each output gate is built
    once, when it is emitted (a gate the permutation leaves in place is
    emitted as itself); qubit q ends on wire ``final_mapping(q)``.
    Each decision after the first starts from the subtree the one before it
    kept (see :func:`_choose_repair`).  The output is as wide as the graph
    (see :func:`fit_to_graph`).
    """
    _check_lookahead(lookahead)
    circuit = fit_to_graph(circuit, graph)
    if not graph.is_connected:
        raise DisconnectedGraphError("coupling graph is not connected")
    placed = initial_mapping.as_dict()
    wire = [placed.get(q, q) for q in range(graph.num_qubits)]
    if not all(0 <= w < len(wire) for w in wire):
        raise ValueError(f"initial mapping moves a qubit off the graph's {len(wire)} wires")
    dist = graph.distances
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    leaves = _Leaves(cnots, graph)
    out: list[Gate] = []
    search_cost = 0
    swaps = 0
    k = 0  # CNOTs seen so far; cnots[k:] are the ones after the current gate
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            k += 1
            c, t = g.qubits
            if dist[wire[c]][wire[t]] != 1:
                (step_cost, step, stops), _ = _choose_repair(
                    (wire[c], wire[t]), leaves, k, wire, lookahead)
                for a, b in zip(stops, stops[1:]):
                    out += _swap_gates(a, b)
                wire = [step[w] for w in wire]
                search_cost += step_cost
                swaps += len(stops) - 1
                if dist[wire[c]][wire[t]] != 1:
                    raise LegalityError(f"the repair of cx({c},{t}) left its wires apart")
        out.append(g._moved(wire))
    final = QubitMapping(tuple(enumerate(wire)))
    return RouteResult(Circuit._unchecked(circuit.num_qubits, circuit.num_clbits, tuple(out)),
                       final, search_cost, swaps)


#: most illegal CNOTs the exhaustive oracle accepts: its tree doubles per CNOT
MAX_ORACLE_ILLEGAL = 12


def brute_force_route_cost(circuit: Circuit, graph: CouplingGraph) -> int:
    """Exact minimum routing search cost over every displacement assignment.

    Walks the same decision tree as the router but exhaustively: at each
    illegal CNOT both the control and the target displacement are realized
    (chain applied, its relabeling applied to the remainder) and the
    cheaper subtree wins.  No estimation anywhere, so this is the ground
    truth the lookahead router is measured against; cost units match the
    router's accounting (34 per intermediate vertex, +4 per displaced
    control).  A circuit wider than the graph is an error (see :func:`fit_to_graph`).
    """
    cnots = [g.qubits for g in fit_to_graph(circuit, graph).gates if g.kind is GateKind.CNOT]
    illegal = sum(1 for c, t in cnots
                  if not graph.is_legal_cnot(c, t, respect_direction=False))
    if illegal > MAX_ORACLE_ILLEGAL:
        raise ValueError(f"{illegal} illegal CNOTs exceeds the oracle cap "
                         f"of {MAX_ORACLE_ILLEGAL}")

    table: dict = {}

    def best(start: int, perm: list[int]) -> int:
        # the CNOTs from ``start`` on, read through the relabeling ``perm``
        i = _first_illegal(cnots, graph, start, perm)
        if i < 0:
            return 0
        c, t = cnots[i]
        return min(cost + best(i + 1, [step[q] for q in perm])
                   for cost, step, _ in _repairs((perm[c], perm[t]), graph, table))

    return best(0, list(range(graph.num_qubits)))


def fix_directions(circuit: Circuit, graph: CouplingGraph) -> Circuit:
    """Repair CNOT orientation on directed graphs.

    A CNOT whose orientation is missing from the edge set is rewritten as
    the reversed CNOT wrapped in four H gates.  No-op for undirected
    graphs; a CNOT with neither orientation available means routing was
    skipped or broken, and raises :class:`LegalityError`.

    The call builds the rewrite of a reversed wire pair the first time it
    meets the pair, and one H gate per wire, and reuses them for every
    later CNOT on that pair.
    """
    if not graph.directed:
        return circuit
    edges = graph.edges
    rewrites: dict[tuple[int, int], tuple[Gate, ...]] = {}
    hs: dict[int, Gate] = {}
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is not GateKind.CNOT or g.qubits in edges:
            out.append(g)
            continue
        rewrite = rewrites.get(g.qubits)
        if rewrite is None:
            c, t = g.qubits
            if (t, c) not in edges:
                raise LegalityError(f"cx({c},{t}) has no legal orientation")
            h_lo, h_hi = (hs.setdefault(q, Gate._unchecked(GateKind.H, (q,)))
                          for q in sorted((c, t)))
            rewrite = rewrites[g.qubits] = (h_lo, h_hi, Gate._unchecked(GateKind.CNOT, (t, c)),
                                            h_lo, h_hi)
        out += rewrite
    return Circuit._unchecked(circuit.num_qubits, circuit.num_clbits, tuple(out))


def naive_route(circuit: Circuit, graph: CouplingGraph) -> Circuit:
    """Swap-there-and-back baseline.

    Every illegal CNOT is wrapped in SWAPs that walk the control's state
    next to the target and immediately undo themselves, so no relabeling
    persists (the final mapping is the identity).  The output is as wide
    as the graph (see :func:`fit_to_graph`).
    """
    circuit = fit_to_graph(circuit, graph)
    if not graph.is_connected:
        raise DisconnectedGraphError("coupling graph is not connected")
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is not GateKind.CNOT or graph.is_legal_cnot(
                g.qubits[0], g.qubits[1], respect_direction=False):
            out.append(g)
            continue
        control, target = g.qubits
        path = graph.shortest_path(control, target)
        hops = list(zip(path[:-2], path[1:-1]))  # control's walk to the neighbour
        for a, b in hops:
            out += _swap_gates(a, b)
        out.append(Gate._unchecked(GateKind.CNOT, (path[-2], target)))
        for a, b in reversed(hops):
            out += _swap_gates(a, b)
    return Circuit._unchecked(circuit.num_qubits, circuit.num_clbits, tuple(out))
