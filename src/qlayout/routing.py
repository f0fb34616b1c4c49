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
intermediate-vertex counts are read from the coupling graph's precomputed
tables.  The two repairs of an ordered wire pair -- each chain's cost,
its relabeling as a dense step and the wires its mover visits -- depend
only on the graph, so a routing call builds them the first time it meets
the pair and keeps them until it returns (:func:`_repairs`): a tree node
only composes a step onto its permutation.  The router keeps one running
wire permutation, applies the chosen step to it, and builds each output
gate once, when it is emitted.

Each leaf still scores its whole residue, but not one at a time.  No
cost is read while the tree is descended, so the leaves are collected in
exploration order and scored in blocks (:class:`_Leaves`), and the first
cheapest one wins, as if each had been scored when it was reached.  A
block large enough to pay for it is scored with numpy
(:meth:`_Leaves.score`): one gather of intermediate-vertex counts over
every leaf and CNOT, and an exact integer sum per leaf, so the estimates,
and with them the decisions, are the same bits as leaf by leaf.

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
from .ir import CNOT_COST, SINGLE_COST, Circuit, Gate, GateKind, QubitMapping

#: flat accounting cost of one SWAP: 3 CNOTs + 4 direction-fix H
SWAP_COST = 3 * CNOT_COST + 4 * SINGLE_COST

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
                   start: int = 0, perm: Sequence[int] | None = None) -> int:
    """Index of the first CNOT at or after ``start`` that is not an edge of
    the undirected view, each qubit q read as ``perm[q]``; -1 if none."""
    adjacent = graph.adjacency_matrix
    p = range(graph.num_qubits) if perm is None else perm
    for i in range(start, len(cnots)):
        c, t = cnots[i]
        if not adjacent[p[c]][p[t]]:
            return i
    return -1


def _residual_intermediates(cnots: Sequence[tuple[int, int]], graph: CouplingGraph,
                            start: int = 0, perm: Sequence[int] | None = None) -> list[int]:
    """Intermediate-vertex counts of the illegal CNOTs at or after
    ``start``, in order, each qubit q read as ``perm[q]``.  Between two
    distinct qubits the count is 0 exactly on an edge, so it alone tells
    which CNOTs are illegal."""
    between = graph.intermediates_matrix
    p = range(graph.num_qubits) if perm is None else perm
    counts = [m for c, t in islice(cnots, start, None) if (m := between[p[c]][p[t]])]
    if not graph.is_connected and -1 in counts:
        raise DisconnectedGraphError("no path between the qubits of an illegal CNOT")
    return counts


#: leaf x CNOT elements a search lets wait before it scores its leaves
_BLOCK_ELEMENTS = 4096

#: smallest block scored with numpy: below it, the fixed cost of the numpy
#: calls exceeds that of scoring each leaf in Python
_NUMPY_MIN_ELEMENTS = 512


class _Leaves:
    """The leaves of a search over ``cnots``, scored in blocks.

    A leaf is (perm, start, base, tag): a dense permutation, the index of
    its first CNOT still to score, a base cost and a tag; its cost is the
    base plus the estimate of its residue.  Leaves wait in exploration
    order until about :data:`_BLOCK_ELEMENTS` leaf x CNOT elements are
    pending, and then are scored together.  :meth:`take` returns the first
    leaf of least cost, as a search that scored each leaf when it reached
    it would keep, and starts over for the next search on the same CNOTs.
    The searches of one routing call share ``repairs``, the table of
    :func:`_repairs`.
    """

    def __init__(self, cnots: Sequence[tuple[int, int]], graph: CouplingGraph):
        self.cnots, self.graph = cnots, graph
        self.repairs: dict[tuple[int, int], tuple[_Repair, _Repair]] = {}
        self.pending: list[tuple[Sequence[int], int, float, Any]] = []
        self.waiting = 0
        self.best: tuple[float, Any] = (float("inf"), None)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Controls and targets of the CNOTs as two index arrays."""
        pairs = np.array(self.cnots, dtype=np.intp).reshape(len(self.cnots), 2)
        return pairs[:, 0], pairs[:, 1]

    def add(self, perm: Sequence[int], start: int, base: float, tag: Any) -> None:
        self.pending.append((perm, start, base, tag))
        self.waiting += len(self.cnots) - start
        if self.waiting >= _BLOCK_ELEMENTS:
            self._flush()

    def _flush(self) -> None:
        best_cost, best_tag = self.best
        for (_, _, base, tag), estimate in zip(self.pending, self.score(self.pending)):
            cost = base + estimate
            if cost < best_cost:
                best_cost, best_tag = cost, tag
        self.best = (best_cost, best_tag)
        self.pending, self.waiting = [], 0

    def take(self) -> tuple[float, Any]:
        """(cost, tag) of the first cheapest leaf since the last take."""
        self._flush()
        best, self.best = self.best, (float("inf"), None)
        return best

    def score(self, block: Sequence[tuple[Sequence[int], int, float, Any]]) -> list[float]:
        """``estimate_cost(_residual_intermediates(cnots, graph, start, perm))``
        for each leaf of ``block``, bit for bit.

        A large block gathers the intermediate counts of every leaf over the
        CNOTs from the smallest start on, zeroes those before each leaf's
        own start (they may be illegal under its permutation), and ranks
        the illegal ones by a running count.  The weighted sum is exact in
        int64, so the one division per leaf rounds as in
        :func:`estimate_cost`.
        """
        cnots, graph = self.cnots, self.graph
        size = len(cnots)
        elements = sum(size - start for _, start, _, _ in block)
        # size^3 * num_qubits bounds the weighted sum, which must fit in int64
        if elements < _NUMPY_MIN_ELEMENTS or size ** 3 * graph.num_qubits >= 2 ** 63:
            return [estimate_cost(_residual_intermediates(cnots, graph, start, perm))
                    if start < size else 0.0 for perm, start, _, _ in block]
        first = min(start for _, start, _, _ in block)
        controls, targets = self.columns[0][first:], self.columns[1][first:]
        perms = np.array([perm for perm, _, _, _ in block], dtype=np.intp)
        gap = graph.intermediates_array[perms[:, controls], perms[:, targets]]
        starts = np.array([start - first for _, start, _, _ in block])
        gap[np.arange(size - first) < starts[:, None]] = 0
        if not graph.is_connected and (gap < 0).any():
            raise DisconnectedGraphError("no path between the qubits of an illegal CNOT")
        rank = np.cumsum(gap != 0, axis=1)
        n = rank[:, -1:]
        total = ((n - rank) ** 2 * gap).sum(axis=1)
        return [SWAP_COST * t / (k * k) if k else 0.0
                for t, k in zip(total.tolist(), n[:, 0].tolist())]


def _choose_repair(ill: tuple[int, int], leaves: _Leaves, start: int,
                   perm: Sequence[int], lookahead: int) -> tuple[_Repair, float]:
    """Best first-level repair of ``ill`` (one of :func:`_repairs`) and its
    cost, by exact search of the top ``lookahead`` levels of the
    control/target decision tree.

    The CNOTs after ``ill`` are ``leaves.cnots[start:]`` read through the
    dense relabeling ``perm``; a branch composes its chain onto ``perm``
    instead of rewriting them.  Leaves below the horizon add the estimated
    cost of their residue.  The control branch is explored before the
    target branch at every level, and ties keep the earlier-explored leaf.
    No cost is read during the descent, so the leaves are scored in blocks.
    """
    cnots, graph, table = leaves.cnots, leaves.graph, leaves.repairs

    def descend(ill: tuple[int, int], start: int, perm: Sequence[int], acc: float,
                lead: _Repair | None, depth: int) -> None:
        for repair in _repairs(ill, graph, table):
            step_cost, step, _ = repair
            moved = [step[q] for q in perm]
            cost = acc + step_cost
            first = repair if lead is None else lead
            j = _first_illegal(cnots, graph, start, moved)
            if j >= 0 and depth < lookahead:
                c, t = cnots[j]
                descend((moved[c], moved[t]), j + 1, moved, cost, first, depth + 1)
            else:
                leaves.add(moved, j if j >= 0 else len(cnots), cost, first)

    descend(ill, start, perm, 0.0, None, 1)
    best_cost, best = leaves.take()
    return best, best_cost


@dataclass(frozen=True)
class RouteResult:
    circuit: Circuit
    final_mapping: QubitMapping
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
                  lookahead: int = DEFAULT_LOOKAHEAD) -> RouteResult:
    """Insert one SWAP chain before each CNOT that is illegal on the
    undirected view; a chain that leaves the pair apart is a
    :class:`LegalityError`.

    Each repair relabels the rest of the program (the triggering CNOT
    included); the returned mapping is the composition of every repair, so
    original qubit q ends the program on wire ``final_mapping(q)``.  The
    relabelings are kept as one running wire permutation, and each output
    gate is built once, when it is emitted.  The output is as wide as the
    graph (see :func:`fit_to_graph`).
    """
    _check_lookahead(lookahead)
    circuit = fit_to_graph(circuit, graph)
    if not graph.is_connected:
        raise DisconnectedGraphError("coupling graph is not connected")
    adjacent = graph.adjacency_matrix
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    leaves = _Leaves(cnots, graph)
    wire = list(range(graph.num_qubits))
    out: list[Gate] = []
    search_cost = 0
    swaps = 0
    k = 0  # CNOTs seen so far; cnots[k:] are the ones after the current gate
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            k += 1
            c, t = g.qubits
            if not adjacent[wire[c]][wire[t]]:
                (step_cost, step, stops), _ = _choose_repair(
                    (wire[c], wire[t]), leaves, k, wire, lookahead)
                for a, b in zip(stops, stops[1:]):
                    out += _swap_gates(a, b)
                wire = [step[w] for w in wire]
                search_cost += step_cost
                swaps += len(stops) - 1
                if not adjacent[wire[c]][wire[t]]:
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
    control).
    """
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
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
    """
    if not graph.directed:
        return circuit
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind is not GateKind.CNOT or graph.is_legal_cnot(*g.qubits):
            out.append(g)
            continue
        c, t = g.qubits
        if not graph.is_legal_cnot(t, c):
            raise LegalityError(f"cx({c},{t}) has no legal orientation")
        h_lo, h_hi = (Gate._unchecked(GateKind.H, (q,)) for q in sorted((c, t)))
        out += [h_lo, h_hi, Gate._unchecked(GateKind.CNOT, (t, c)), h_lo, h_hi]
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
