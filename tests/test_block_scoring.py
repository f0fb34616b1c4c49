"""Block scoring of search leaves: the relabel search and the lookahead
router must decide exactly as the leaf-by-leaf searches below, which
score each leaf as soon as it is reached."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from conftest import circuits, connected_graphs
from qlayout import routing
from qlayout.coupling import CouplingGraph, DisconnectedGraphError
from qlayout.global_adjust import SearchLimits, _cnot_index, _legalizing_swaps, global_adjust
from qlayout.ir import GateKind, QubitMapping
from qlayout.routing import (
    _Leaves,
    _chain,
    _first_illegal,
    _repairs,
    _residual_intermediates,
    estimate_cost,
    lookahead_choose,
    route_circuit,
)


def oracle_global_adjust(circuit, graph, limits=None):
    """The relabel search with every leaf scored when it is reached."""
    limits = limits or SearchLimits()
    max_depth = limits.depth_for(graph)
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    width = max(circuit.num_qubits, graph.num_qubits)
    passed = _cnot_index(cnots, width)
    perm = list(range(width))
    inverse = list(range(width))
    best = None
    budget = limits.max_nodes

    def offer(cost):
        nonlocal best
        if best is None or cost < best[1]:
            best = (tuple(perm), cost)

    def search(start, depth):
        nonlocal budget
        i = _first_illegal(cnots, graph, start, perm)
        if i < 0:
            offer(0.0)
            return
        if depth >= max_depth or budget <= 0:
            offer(estimate_cost(_residual_intermediates(cnots, graph, i, perm)))
            return
        budget -= 1
        c, t = cnots[i]
        swaps = list(_legalizing_swaps((perm[c], perm[t]), graph, cnots, passed, i,
                                       perm, inverse))
        if not swaps:
            offer(estimate_cost(_residual_intermediates(cnots, graph, i, perm)))
            return
        for moved, nbr in swaps:
            if budget <= 0:
                break
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b], inverse[moved], inverse[nbr] = nbr, moved, b, a
            search(i + 1, depth + 1)
            perm[a], perm[b], inverse[moved], inverse[nbr] = moved, nbr, a, b

    search(0, 0)
    offer(estimate_cost(_residual_intermediates(cnots, graph, 0, perm)))
    wires, cost = best
    return QubitMapping(tuple(enumerate(wires))), cost


def oracle_choose_chain(ill, cnots, start, perm, graph, lookahead):
    """The lookahead decision with every leaf scored when it is reached."""
    best_cost = float("inf")
    best_mover = None

    def descend(ill, start, perm, acc, lead, depth):
        nonlocal best_cost, best_mover
        for mover, step_cost, moved in _repairs(ill, graph, perm):
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
    return _chain(ill, graph.shortest_path(*ill), best_mover), best_cost


def oracle_route(circuit, graph, lookahead):
    """The router's loop over :func:`oracle_choose_chain`: gates and final
    wire permutation."""
    adjacent = graph.adjacency_matrix
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    wire = list(range(graph.num_qubits))
    out = []
    k = 0
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            k += 1
            c, t = g.qubits
            while not adjacent[wire[c]][wire[t]]:
                chain, _ = oracle_choose_chain((wire[c], wire[t]), cnots, k, wire, graph,
                                               lookahead)
                out.extend(chain.gates())
                step = chain.relabeling.as_dict()
                wire = [step.get(w, w) for w in wire]
        out.append(g.relabeled(QubitMapping(tuple(enumerate(wire)))))
    return out, wire


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
           max_nodes=st.sampled_from([1, 3, 17, 4096]),
           max_depth=st.sampled_from([None, 1, 3]))
    def test_cnot_circuits(self, case, max_nodes, max_depth):
        graph, pairs = case
        circuit = cnot_circuit(graph.num_qubits, pairs)
        limits = SearchLimits(max_nodes=max_nodes, max_depth=max_depth)
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
        gates, wire = oracle_route(circuit, graph, lookahead)
        assert list(result.circuit.gates) == gates
        assert result.final_mapping == QubitMapping(tuple(enumerate(wire)))


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


def test_lookahead_choose_rejects_a_self_cnot():
    # it is neither an edge nor a path, so no count scores it
    with pytest.raises(ValueError, match="same control and target"):
        lookahead_choose((0, 2), [(0, 1), (1, 1)], ql.make_layout("linear", 3))
