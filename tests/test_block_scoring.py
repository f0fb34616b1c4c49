"""Block scoring of search leaves: the relabel search and the lookahead
router must decide exactly as the leaf-by-leaf searches below, which
score each leaf as soon as it is reached.

The oracles do not share the code they check: the relabel search's
candidate rescan and the router's SWAP-chain repairs are copied here as
they were before the searches stopped recomputing them at every node
(``ref_*`` below)."""
import itertools
from bisect import bisect_left
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from conftest import circuits, connected_graphs, lookahead_choose
from qlayout import relabel, routing
from qlayout.coupling import CouplingGraph, DisconnectedGraphError
from qlayout.relabel import SearchLimits, _partners, global_adjust
from qlayout.ir import GateKind, QubitMapping
from qlayout.routing import (
    CONTROL_MOVE_COST,
    SWAP_COST,
    _Leaves,
    _first_illegal,
    _repairs,
    _residual_intermediates,
    estimate_cost,
    route_circuit,
)


def ref_legalizing_swaps(ill, graph, cnots, passed, end, perm, inverse):
    """Wire pairs (moved, nbr) whose transposition legalizes ``ill`` and
    keeps every CNOT in ``cnots[:end]`` legal, found by rereading the passed
    CNOTs on both exchanged qubits (``passed`` is :func:`ref_cnot_index`)."""
    adjacent = graph.adjacency_matrix
    control, target = ill
    for fixed, moved in ((target, control), (control, target)):
        for nbr in graph.neighbors[fixed]:
            if nbr == moved:
                continue
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b] = nbr, moved
            ok = all(adjacent[perm[cnots[i][0]]][perm[cnots[i][1]]]
                     for q in (a, b) for i in passed[q][:bisect_left(passed[q], end)])
            perm[a], perm[b] = moved, nbr
            if ok:
                yield moved, nbr


def ref_cnot_index(cnots, num_qubits):
    """Per qubit, the ascending indices of the CNOTs that touch it."""
    touching = [[] for _ in range(num_qubits)]
    for i, (c, t) in enumerate(cnots):
        touching[c].append(i)
        touching[t].append(i)
    return touching


#: which endpoint of an illegal CNOT a repair moves
CONTROL, TARGET = "control", "target"


def ref_stops(ill, path, mover):
    inter = list(path[1:-1])
    return [ill[0]] + inter if mover == CONTROL else [ill[1]] + inter[::-1]


def ref_search_cost(stops, mover):
    return SWAP_COST * (len(stops) - 1) + (CONTROL_MOVE_COST if mover == CONTROL else 0)


#: one routing decision: the mover, the SWAPs in order, the relabeling they
#: induce on every later gate, and the search cost
RefChain = namedtuple("RefChain", "mover swaps relabeling search_cost")


def ref_chain(ill, path, mover):
    """The chain for ``ill`` along ``path``, built from scratch."""
    stops = ref_stops(ill, path, mover)
    moves = {stops[0]: stops[-1]} | dict(zip(stops[1:], stops))
    return RefChain(mover, tuple(zip(stops, stops[1:])),
                    QubitMapping.from_dict(moves), ref_search_cost(stops, mover))


def ref_relabeled(perm, stops):
    step = list(range(len(perm)))
    step[stops[0]] = stops[-1]
    for prev, cur in zip(stops, stops[1:]):
        step[cur] = prev
    return [step[q] for q in perm]


def ref_repairs(ill, graph, perm):
    """Both repairs of ``ill``, control moved first, each recomputed from
    ``shortest_path``: (mover, search cost, ``perm`` then the chain)."""
    path = graph.shortest_path(*ill)
    for mover in (CONTROL, TARGET):
        stops = ref_stops(ill, path, mover)
        yield mover, ref_search_cost(stops, mover), ref_relabeled(perm, stops)


def oracle_global_adjust(circuit, graph, limits=None):
    """The relabel search with every leaf scored when it is reached."""
    limits = limits or SearchLimits()
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    width = max(circuit.num_qubits, graph.num_qubits)
    passed = ref_cnot_index(cnots, width)
    perm = list(range(width))
    inverse = list(range(width))
    best = None
    budget = limits.max_nodes

    def offer(cost):
        nonlocal best
        if best is None or cost < best[1]:
            best = (tuple(perm), cost)

    def search(start):
        nonlocal budget
        i = _first_illegal(cnots, graph, start, perm)
        if i < 0:
            offer(0.0)
            return
        if budget <= 0:
            offer(estimate_cost(_residual_intermediates(cnots, graph, i, perm)))
            return
        budget -= 1
        c, t = cnots[i]
        swaps = list(ref_legalizing_swaps((perm[c], perm[t]), graph, cnots, passed, i,
                                          perm, inverse))
        if not swaps:
            offer(estimate_cost(_residual_intermediates(cnots, graph, i, perm)))
            return
        for moved, nbr in swaps:
            if budget <= 0:
                break
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b], inverse[moved], inverse[nbr] = nbr, moved, b, a
            search(i + 1)
            perm[a], perm[b], inverse[moved], inverse[nbr] = moved, nbr, a, b

    search(0)
    offer(estimate_cost(_residual_intermediates(cnots, graph, 0, perm)))
    wires, cost = best
    return QubitMapping(tuple(enumerate(wires))), cost


def oracle_choose_chain(ill, cnots, start, perm, graph, lookahead):
    """The lookahead decision with every leaf scored when it is reached."""
    best_cost = float("inf")
    best_mover = None

    def descend(ill, start, perm, acc, lead, depth):
        nonlocal best_cost, best_mover
        for mover, step_cost, moved in ref_repairs(ill, graph, perm):
            cost = acc + step_cost
            first = mover if lead is None else lead
            j = _first_illegal(cnots, graph, start, moved)
            if j >= 0 and depth < lookahead:
                c, t = cnots[j]
                descend((moved[c], moved[t]), j + 1, moved, cost, first, depth + 1)
                continue
            if j >= 0:
                cost += estimate_cost(_residual_intermediates(cnots, graph, j, moved))
            if cost < best_cost:
                best_cost, best_mover = cost, first

    descend(ill, start, perm, 0.0, None, 1)
    return ref_chain(ill, graph.shortest_path(*ill), best_mover), best_cost


def oracle_route(circuit, graph, lookahead):
    """The router's loop over :func:`oracle_choose_chain`: gates, final
    wire permutation, search cost and SWAP count."""
    adjacent = graph.adjacency_matrix
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    wire = list(range(graph.num_qubits))
    out = []
    k = search_cost = swaps = 0
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            k += 1
            c, t = g.qubits
            while not adjacent[wire[c]][wire[t]]:
                chain, _ = oracle_choose_chain((wire[c], wire[t]), cnots, k, wire, graph,
                                               lookahead)
                for a, b in chain.swaps:
                    out += [ql.cx(a, b), ql.cx(b, a), ql.cx(a, b)]
                step = chain.relabeling.as_dict()
                wire = [step.get(w, w) for w in wire]
                search_cost += chain.search_cost
                swaps += len(chain.swaps)
        out.append(ql.Gate(g.kind, tuple(wire[q] for q in g.qubits), g.params, g.clbit))
    return out, wire, search_cost, swaps


@st.composite
def graph_and_cnots(draw, max_cnots=24):
    """A connected graph and a CNOT-only circuit on its qubits."""
    graph = draw(connected_graphs(max_qubits=8))
    q = st.integers(min_value=0, max_value=graph.num_qubits - 1)
    pairs = draw(st.lists(st.tuples(q, q).filter(lambda p: p[0] != p[1]),
                          max_size=max_cnots))
    return graph, pairs


def cnot_circuit(n, pairs):
    return ql.Circuit(n, 0, tuple(ql.cx(c, t) for c, t in pairs))


SIZES = (1, 7, "default")


@pytest.fixture(scope="class", params=list(itertools.product(SIZES, SIZES)),
                ids=lambda p: f"block={p[0]}-numpy_from={p[1]}")
def block_sizes(request):
    """Flushes mid-search, ties across block boundaries, and both the
    per-leaf and the numpy scoring path."""
    block, numpy_from = request.param
    with pytest.MonkeyPatch.context() as mp:
        if block != "default":
            mp.setattr(routing, "_BLOCK_ELEMENTS", block)
        if numpy_from != "default":
            mp.setattr(routing, "_NUMPY_MIN_ELEMENTS", numpy_from)
        yield


@pytest.mark.usefixtures("block_sizes")
class TestGlobalAdjustMatchesLeafByLeaf:
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_cnots(),
           max_nodes=st.sampled_from([1, 3, 17, 4096]))
    def test_cnot_circuits(self, case, max_nodes):
        graph, pairs = case
        circuit = cnot_circuit(graph.num_qubits, pairs)
        limits = SearchLimits(max_nodes=max_nodes)
        mapping, est = global_adjust(circuit, graph, limits)
        ref_mapping, ref_est = oracle_global_adjust(circuit, graph, limits)
        assert mapping == ref_mapping
        assert est.hex() == ref_est.hex()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mixed_circuits(self, data):
        graph = data.draw(connected_graphs())
        circuit = data.draw(circuits(max_qubits=graph.num_qubits, max_gates=20))
        mapping, est = global_adjust(circuit, graph)
        ref_mapping, ref_est = oracle_global_adjust(circuit, graph)
        assert mapping == ref_mapping
        assert est.hex() == ref_est.hex()


@pytest.mark.usefixtures("block_sizes")
class TestLookaheadMatchesLeafByLeaf:
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_cnots(), data=st.data(),
           lookahead=st.integers(min_value=1, max_value=4))
    def test_lookahead_choose(self, case, data, lookahead):
        graph, pairs = case
        q = st.integers(min_value=0, max_value=graph.num_qubits - 1)
        ill = data.draw(st.tuples(q, q).filter(lambda p: p[0] != p[1]))
        mapping, cost = lookahead_choose(ill, pairs, graph, lookahead)
        chain, ref_cost = oracle_choose_chain(ill, pairs, 0, range(graph.num_qubits),
                                              graph, lookahead)
        assert mapping == chain.relabeling
        assert cost.hex() == ref_cost.hex()

    @settings(max_examples=30, deadline=None)
    @given(case=graph_and_cnots(max_cnots=30),
           lookahead=st.integers(min_value=1, max_value=4))
    def test_route_circuit(self, case, lookahead):
        # every decision after the first starts mid-list, on a moved permutation
        graph, pairs = case
        circuit = cnot_circuit(graph.num_qubits, pairs)
        result = route_circuit(circuit, graph, lookahead)
        gates, wire, search_cost, swaps = oracle_route(circuit, graph, lookahead)
        assert list(result.circuit.gates) == gates
        assert result.final_mapping == QubitMapping(tuple(enumerate(wire)))
        assert (result.search_cost, result.swaps_emitted) == (search_cost, swaps)


def near_masks(graph, inverse):
    """Per wire, the bitmask of the input qubits on its adjacent wires."""
    return [sum(1 << inverse[u] for u in graph.neighbors[w]) for w in range(graph.num_qubits)]


def partner_row(prefix, num_qubits):
    """Per qubit, the bitmask of the qubits it shares a CNOT with in ``prefix``."""
    row = [0] * num_qubits
    for c, t in prefix:
        row[c] |= 1 << t
        row[t] |= 1 << c
    return row


def checked_candidates(graph, cnots, nodes):
    """A stand-in for ``relabel._candidates`` in a search over ``cnots``:
    at every node it recomputes the search's masks from scratch and
    requires the candidates of the rescan, in the same order; ``nodes``
    collects each node's candidates."""
    n = graph.num_qubits
    passed = ref_cnot_index(cnots, n)
    candidates = relabel._candidates

    def check(ill, graph_, partners, near, inverse):
        perm = [0] * n
        for wire, q in enumerate(inverse):
            perm[q] = wire
        # the search legalizes the first illegal CNOT; every one before it is legal
        i = _first_illegal(cnots, graph, 0, perm)
        c, t = cnots[i]
        assert ill == (perm[c], perm[t])
        assert list(partners) == partner_row(cnots[:i], n)
        assert list(near) == near_masks(graph, inverse)
        found = candidates(ill, graph_, partners, near, inverse)
        assert found == list(ref_legalizing_swaps(ill, graph, cnots, passed, i, perm, inverse))
        nodes.append(found)
        return found

    return check


def search_checked(graph, pairs, limits):
    nodes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relabel, "_candidates", checked_candidates(graph, pairs, nodes))
        global_adjust(cnot_circuit(graph.num_qubits, pairs), graph, limits)
    return nodes


class TestCandidateCheck:
    @settings(max_examples=80, deadline=None)
    @given(case=graph_and_cnots(max_cnots=30), max_nodes=st.sampled_from([1, 17, 300]))
    def test_masks_match_the_rescan_at_every_node(self, case, max_nodes):
        graph, pairs = case
        nodes = search_checked(graph, pairs, SearchLimits(max_nodes=max_nodes))
        assert len(nodes) <= max_nodes

    def test_search_reaches_adjacent_and_shared_neighbour_swaps(self):
        # a 4-cycle with a chord: the search exchanges adjacent wires (whose
        # masks swap a bit for a bit) and wires with a neighbour in common
        # (whose two flips cancel), and every node is checked
        graph = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)}))
        pairs = [(0, 4), (0, 2), (1, 2), (2, 1), (4, 0), (4, 1), (3, 4), (4, 2), (4, 3), (4, 2)]
        nodes = search_checked(graph, pairs, SearchLimits(max_nodes=10**6))
        swaps = [pair for found in nodes for pair in found]
        assert len(nodes) > 20
        assert any(graph.adjacency_matrix[moved][nbr] for moved, nbr in swaps)
        assert any(set(graph.neighbors[moved]) & set(graph.neighbors[nbr]) for moved, nbr in swaps)

    def test_partner_rows(self):
        cnots = [(0, 1), (1, 2), (0, 1)]
        zero = [0] * 4
        assert _partners(zero, cnots, 0, 3) == [0b10, 0b101, 0b10, 0]
        assert _partners(zero, cnots, 0, 0) == zero
        first = _partners(zero, cnots, 0, 1)
        assert _partners(first, cnots, 1, 2) == [0b10, 0b101, 0b10, 0]
        # a row is extended into a new list: the parent's row stays as it was
        assert first == [0b10, 0b1, 0, 0] and zero == [0] * 4


class TestRepairTable:
    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(max_qubits=8), data=st.data())
    def test_cached_repair_equals_one_built_fresh(self, graph, data):
        # every ordered pair, twice: the second round reads the table
        n = graph.num_qubits
        pairs = data.draw(st.permutations([(c, t) for c in range(n) for t in range(n) if c != t]))
        table = {}
        for _ in range(2):
            for ill in pairs:
                path = graph.shortest_path(*ill)
                fresh = []
                for mover in (CONTROL, TARGET):
                    stops = ref_stops(ill, path, mover)
                    step = tuple(ref_relabeled(range(n), stops))
                    chain = ref_chain(ill, path, mover)
                    assert chain.relabeling == QubitMapping(tuple(enumerate(step)))
                    assert chain.swaps == tuple(zip(stops, stops[1:]))
                    fresh.append((chain.search_cost, step, tuple(stops)))
                assert list(_repairs(ill, graph, table)) == fresh
        assert len(table) == len(pairs)

    def test_a_table_ends_with_its_routing_call(self):
        # the pair (0, 3) is repaired through wire 4 on the circle and through
        # wires 1 and 2 on the line: a repair kept from the first call would
        # route the second circuit with the circle's chain
        circuit = cnot_circuit(5, [(0, 3), (1, 3), (0, 2)])
        for graph in (ql.make_layout("circle", 5), ql.make_layout("linear", 5)):
            result = route_circuit(circuit, graph)
            gates, wire, search_cost, swaps = oracle_route(circuit, graph, 4)
            assert list(result.circuit.gates) == gates
            assert (result.search_cost, result.swaps_emitted) == (search_cost, swaps)

    def test_routed_wires_are_ints(self):
        graph = ql.make_layout("linear", 3)
        routed = route_circuit(cnot_circuit(3, [(0, 2)]), graph)
        assert routed.swaps_emitted == 1
        assert all(type(q) is int for g in routed.circuit.gates for q in g.qubits)


def reference_scores(cnots, graph, block):
    return [estimate_cost(_residual_intermediates(cnots, graph, start, perm))
            for perm, start in block]


@pytest.fixture(params=[1, "default"], ids=["numpy", "default"])
def numpy_from(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(routing, "_NUMPY_MIN_ELEMENTS", request.param)


@pytest.mark.usefixtures("numpy_from")
class TestScoreBlock:
    CHAIN4 = ql.make_layout("linear", 4)
    CNOTS = [(0, 1), (0, 3), (1, 2), (0, 2), (2, 3)]  # illegal: (0, 3) and (0, 2)

    def scores(self, cnots, graph, block):
        got = _Leaves(cnots, graph).score([(perm, start, 0.0, None) for perm, start in block])
        assert [x.hex() for x in got] == [x.hex() for x in reference_scores(cnots, graph, block)]
        return got

    def test_empty_residue(self):
        identity = list(range(4))
        assert self.scores(self.CNOTS, self.CHAIN4, [(identity, 5)]) == [0.0]
        assert self.scores([(0, 1), (2, 3)], self.CHAIN4, [(identity, 0)]) == [0.0]

    def test_start_after_the_last_illegal_cnot(self):
        assert self.scores(self.CNOTS, self.CHAIN4, [(list(range(4)), 4)]) == [0.0]

    def test_single_illegal_cnot_weighs_nothing(self):
        assert self.scores(self.CNOTS, self.CHAIN4, [(list(range(4)), 2)]) == [0.0]

    def test_starts_differ_within_a_block(self):
        identity, flipped = list(range(4)), [3, 2, 1, 0]
        block = [(identity, 0), (identity, 1), (flipped, 3), (identity, 2), (flipped, 0)]
        got = self.scores(self.CNOTS, self.CHAIN4, block)
        assert got[0] == got[1] == estimate_cost([2, 1]) == 17.0
        assert got[3] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(case=graph_and_cnots(max_cnots=40), data=st.data())
    def test_equals_leaf_by_leaf(self, case, data):
        graph, cnots = case
        n = graph.num_qubits
        leaf = st.tuples(st.permutations(range(n)),
                         st.integers(min_value=0, max_value=len(cnots)))
        block = data.draw(st.lists(leaf, max_size=12))
        self.scores(cnots, graph, block)


@pytest.mark.usefixtures("numpy_from")
class TestDisconnectedGraph:
    TWO_PAIRS = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    @pytest.mark.parametrize("pairs", [[(0, 2)], [(0, 1), (1, 2)]])
    def test_cnot_across_components_raises(self, pairs):
        with pytest.raises(DisconnectedGraphError):
            global_adjust(cnot_circuit(4, pairs), self.TWO_PAIRS)

    def test_legal_circuit_keeps_the_identity(self):
        mapping, est = global_adjust(cnot_circuit(4, [(0, 1)]), self.TWO_PAIRS)
        assert mapping.is_identity and est == 0.0
