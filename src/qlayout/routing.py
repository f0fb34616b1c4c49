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
by :func:`~qlayout.search.estimate_cost`, and the leaves are scored in
blocks by the queue the relabel search uses too
(:class:`~qlayout.search.Leaves`).  Search costs are accounted in flat
units: 34 per intermediate vertex on the path (one SWAP: 3 CNOTs + 4
direction-fix H), plus 4 when the control side is the one displaced,
anticipating the orientation repair of the final CNOT.

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
permutation.  The router keeps one running wire permutation, takes the
chosen node's permutation as the next one, and builds each output gate
once, when it is emitted.

The router walks one lookahead tree.  A tree node keeps its permutation,
its scan's result -- the next illegal CNOT -- and its children once it is
expanded.  The router commits the repair a decision chooses, so the
chosen first-level node is the next decision's root: its permutation is
the router's, and its scan names the CNOT the next decision repairs, so
the router finds the CNOTs to repair without a scan of its own.  Levels
1 to L - 1 below that root were built by the decision before, so each
decision after the first builds only the new bottom level, 2^L
compositions and scans instead of 2^(L+1) - 2.

Orientation (on directed graphs) is repaired afterwards by
:func:`fix_directions`, and :func:`naive_route` provides the classic
swap-there-and-back construction used as the benchmark baseline.
:func:`brute_force_route_cost` searches the same tree without a horizon:
it is the oracle the lookahead router is certified against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .coupling import CouplingGraph, DisconnectedGraphError
from .ir import Circuit, Gate, GateKind, QubitMapping, _as_mapping
from .search import SWAP_COST, Leaves, first_illegal, residual_intermediates

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


def _check_lookahead(lookahead: int) -> None:
    if type(lookahead) is not int or not 1 <= lookahead <= MAX_LOOKAHEAD:
        raise ValueError(f"lookahead must be an integer between 1 and {MAX_LOOKAHEAD} "
                         f"(MAX_LOOKAHEAD), got {lookahead!r}")


#: one repair of an illegal CNOT: (search cost, step, stops)
_Repair = tuple[int, tuple[int, ...], tuple[int, ...]]

#: both repairs of each ordered wire pair a routing call has met
_RepairTable = dict[tuple[int, int], tuple[_Repair, _Repair]]


def _repairs(ill: tuple[int, int], graph: CouplingGraph,
             table: _RepairTable) -> tuple[_Repair, _Repair]:
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


#: a node of the lookahead tree, ``[repair, perm, j, children]``: the repair
#: (one of :func:`_repairs`) that leads to it from its parent (None at the
#: placement, the first root), the permutation after it, the index of the
#: first CNOT illegal under that permutation (-1 if none), and its two
#: children once it has been expanded
_Node = list


def _children(leaves: Leaves, repairs: _RepairTable, node: _Node) -> list[_Node]:
    """The two repairs of ``node``'s illegal CNOT (``cnots[node[2]]`` read
    through its permutation), control moved first, each applied to that
    permutation as a new unexpanded node whose scan for the next illegal
    CNOT starts after it; they are stored as ``node``'s children."""
    cnots, graph = leaves.cnots, leaves.graph
    _, perm, j, _ = node
    c, t = cnots[j]
    kids = []
    for repair in _repairs((perm[c], perm[t]), graph, repairs):
        step = repair[1]
        moved = [step[q] for q in perm]
        kids.append([repair, moved, first_illegal(cnots, graph, j + 1, moved), None])
    node[3] = kids
    return kids


def _choose_repair(leaves: Leaves, repairs: _RepairTable, root: _Node,
                   lookahead: int) -> tuple[_Node, float]:
    """The best repair of ``root``'s illegal CNOT, as the child of ``root``
    it leads to (its first element is one of :func:`_repairs`), and its
    cost, by exact search of the top ``lookahead`` levels of the
    control/target decision tree below ``root``.

    A node above the horizon whose permutation leaves an illegal CNOT is
    expanded, and the others are leaves: their cost is the repairs' costs
    from the root down plus the estimated cost of their residue.  Children
    are visited control first at every level, and the leaves are queued in
    that order and scored in blocks, so ties keep the earlier-explored leaf.

    A node keeps the children it was expanded with, so the router, which
    commits the chosen repair and passes the chosen node back as the next
    root, descends the levels the last decision built and only builds the
    new bottom one: 2^L of the 2^(L+1) - 2 nodes at lookahead L.  The
    tree depends only on its root, so each decision is the one a fresh
    search makes.  ``repairs`` is the routing call's table of
    :func:`_repairs`.
    """
    size, add = leaves.size, leaves.add
    # depth first, control first: (node, its parent's cost, its first-level
    # node, its depth)
    stack = [(kid, 0.0, kid, 1) for kid in reversed(root[3] or _children(leaves, repairs, root))]
    push, pop = stack.append, stack.pop
    while stack:
        node, acc, first, depth = pop()
        repair, moved, j, below = node
        cost = acc + repair[0]
        if j >= 0 and depth < lookahead:
            below = below or _children(leaves, repairs, node)
            push((below[1], cost, first, depth + 1))
            push((below[0], cost, first, depth + 1))
            continue
        add(moved, j if j >= 0 else size, cost, first)
    best_cost, chosen = leaves.take()
    return chosen, best_cost


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
                  initial_mapping: QubitMapping | Mapping[int, int] = QubitMapping(),
                  ) -> RouteResult:
    """Insert one SWAP chain before each CNOT that is illegal on the
    undirected view; a chain that leaves the pair apart is a
    :class:`LegalityError`.

    Qubit q starts on wire ``initial_mapping(q)``, a :class:`QubitMapping`
    or a ``{from: to}`` dict (default: the identity; a placement that moves
    a qubit off the graph is a ``ValueError``).  Each
    repair relabels the rest of the program, the triggering CNOT included,
    through one running wire permutation, and each output gate is built
    once, when it is emitted (a gate the permutation leaves in place is
    emitted as itself); qubit q ends on wire ``final_mapping(q)``.
    The decisions walk one lookahead tree: the node a decision chooses is
    the next one's root, and names the next CNOT to repair (see
    :func:`_choose_repair`).  The output is as wide as the graph (see
    :func:`fit_to_graph`).
    """
    _check_lookahead(lookahead)
    circuit = fit_to_graph(circuit, graph)
    if not graph.is_connected:
        raise DisconnectedGraphError("coupling graph is not connected")
    placed = _as_mapping(initial_mapping).as_dict()
    wire = [placed.get(q, q) for q in range(graph.num_qubits)]
    if not all(0 <= w < len(wire) for w in wire):
        raise ValueError(f"initial mapping moves a qubit off the graph's {len(wire)} wires")
    dist = graph.distances
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    leaves = Leaves(cnots, graph)
    repairs: _RepairTable = {}
    # the root of the next decision, whose scan names the CNOT it repairs
    root: _Node = [None, wire, first_illegal(cnots, graph, 0, wire), None]
    out: list[Gate] = []
    search_cost = 0
    swaps = 0
    k = 0  # the index of the next CNOT
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            if k == root[2]:
                root, _ = _choose_repair(leaves, repairs, root, lookahead)
                step_cost, _, stops = root[0]
                for a, b in zip(stops, stops[1:]):
                    out += _swap_gates(a, b)
                wire = root[1]
                search_cost += step_cost
                swaps += len(stops) - 1
                c, t = g.qubits
                if dist[wire[c]][wire[t]] != 1:
                    raise LegalityError(f"the repair of cx({c},{t}) left its wires apart")
            k += 1
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
    (chain applied, its relabeling applied to the remainder), and the
    answer is the least cost at a leaf.  The walk is depth first on an
    explicit stack, so a branch may be longer than Python's recursion
    limit.  No estimation anywhere, so this is the ground
    truth the lookahead router is measured against; cost units match the
    router's accounting (34 per intermediate vertex, +4 per displaced
    control).  A circuit wider than the graph is an error (see :func:`fit_to_graph`).

    The tree is bounded by the work it takes, not by its depth: more than
    :data:`MAX_ORACLE_ILLEGAL` illegal CNOTs under the identity, or a search
    that visits more nodes than a tree that many repairs deep holds (each
    branch relabels the rest of the circuit, and may meet more illegal
    CNOTs than the identity does), is a ``ValueError``.
    """
    cnots = [g.qubits for g in fit_to_graph(circuit, graph).gates if g.kind is GateKind.CNOT]
    illegal = len(residual_intermediates(cnots, graph, 0, range(graph.num_qubits)))
    if illegal > MAX_ORACLE_ILLEGAL:
        raise ValueError(f"{illegal} illegal CNOTs exceeds the oracle cap "
                         f"of {MAX_ORACLE_ILLEGAL} (MAX_ORACLE_ILLEGAL)")
    room = 2 ** (MAX_ORACLE_ILLEGAL + 1) - 1  # the nodes of a tree that many repairs deep
    table: _RepairTable = {}
    best = float("inf")
    # (start, perm, cost): the CNOTs from ``start`` on, read through the
    # relabeling ``perm``, reached at ``cost``
    stack = [(0, list(range(graph.num_qubits)), 0)]
    while stack:
        room -= 1
        if room < 0:
            raise ValueError(f"the search outgrew a tree as deep as the oracle cap of "
                             f"{MAX_ORACLE_ILLEGAL} (MAX_ORACLE_ILLEGAL) repairs")
        start, perm, cost = stack.pop()
        i = first_illegal(cnots, graph, start, perm)
        if i < 0:
            best = min(best, cost)
            continue
        c, t = cnots[i]
        for step_cost, step, _ in _repairs((perm[c], perm[t]), graph, table):
            stack.append((i + 1, [step[q] for q in perm], cost + step_cost))
    return best


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
