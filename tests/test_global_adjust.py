"""Zero-gate relabeling search: candidates, ranking, and invariants."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qlayout as ql
from conftest import connected_graphs
from qlayout.coupling import CouplingGraph, make_layout
from qlayout.relabel import SearchLimits, _candidates, _near_masks, _partners, global_adjust
from qlayout.ir import QubitMapping


# A 5-qubit directed chain: cx(1,4) is far out of reach, and the only
# neighbour of qubit 4 is qubit 3, so relabeling 1<->3 legalizes it.
CHAIN5 = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}), directed=True)


def candidate_mappings(ill, graph, prefix):
    """The relabel search's candidates for ``ill`` after the legal CNOTs
    ``prefix``, from the identity relabeling, as transpositions: control-side
    swaps (control with each neighbour of the target) first, then
    target-side, each in ascending neighbour order."""
    partners = _partners([0] * graph.num_qubits, prefix, 0, len(prefix))
    return [QubitMapping.swap(moved, nbr) for moved, nbr in _candidates(
        ill, graph, partners, _near_masks(graph), range(graph.num_qubits))]


def all_legalizing_transpositions(ill, graph, prefix):
    """Brute-force oracle: every transposition that legalizes ``ill`` while
    keeping every prefix CNOT legal (undirected view)."""
    out = []
    for a, b in itertools.combinations(range(graph.num_qubits), 2):
        m = QubitMapping.swap(a, b)
        pairs = [(m(c), m(t)) for c, t in [ill] + list(prefix)]
        if all(graph.is_legal_cnot(c, t, respect_direction=False) for c, t in pairs):
            out.append(m)
    return out


class TestCandidateMappings:
    def test_both_sides_offered_on_chain(self):
        g = make_layout("linear", 3)
        cands = candidate_mappings((0, 2), g, prefix=[])
        assert QubitMapping.swap(0, 1) in cands
        assert QubitMapping.swap(2, 1) in cands

    def test_control_side_comes_first(self):
        g = make_layout("linear", 3)
        cands = candidate_mappings((0, 2), g, prefix=[])
        assert cands[0] == QubitMapping.swap(0, 1)  # control 0 to target's neighbour

    def test_prefix_violations_filtered(self):
        g = make_layout("central", 4)
        cands = candidate_mappings((1, 2), g, prefix=[(1, 0)])
        assert cands == [QubitMapping.swap(1, 0)]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_transposition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        kind = ["linear", "circle", "central", "neighbour"][seed % 4]
        g = make_layout(kind, int(rng.integers(4, 8)))
        n = g.num_qubits
        prefix = []
        for _ in range(int(rng.integers(0, 3))):
            a, b = map(int, rng.choice(n, 2, replace=False))
            if g.is_legal_cnot(a, b, respect_direction=False):
                prefix.append((a, b))
        while True:
            c, t = map(int, rng.choice(n, 2, replace=False))
            if not g.is_legal_cnot(c, t, respect_direction=False):
                break
        assert set(candidate_mappings((c, t), g, prefix)) == set(
            all_legalizing_transpositions((c, t), g, prefix))

    @given(data=st.data())
    def test_matches_transposition_oracle_on_arbitrary_graphs(self, data):
        g = data.draw(connected_graphs())
        n = g.num_qubits
        illegal = [(c, t) for c in range(n) for t in range(n)
                   if c != t and not g.is_legal_cnot(c, t, respect_direction=False)]
        assume(illegal)
        ill = data.draw(st.sampled_from(illegal))
        edge = st.sampled_from(sorted(g.edges))
        prefix = data.draw(st.lists(st.tuples(edge, st.booleans()).map(
            lambda e: e[0][::-1] if e[1] else e[0]), max_size=8))
        cands = candidate_mappings(ill, g, prefix)
        assert len(set(cands)) == len(cands)
        assert set(cands) == set(all_legalizing_transpositions(ill, g, prefix))


class TestSearchLimits:
    @pytest.mark.parametrize("kwargs", [
        {"max_nodes": -5}, {"max_nodes": -1}, {"max_nodes": 2.5}, {"max_nodes": 4096.0},
        {"max_nodes": None}, {"max_nodes": "10"}, {"max_nodes": True},
    ])
    def test_bad_limits_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            SearchLimits(**kwargs)

    @pytest.mark.parametrize("kwargs", [{}, {"max_nodes": 0}, {"max_nodes": 10**9}])
    def test_good_limits_accepted(self, kwargs):
        assert SearchLimits(**kwargs).max_nodes == kwargs.get("max_nodes", 4096)

    def test_zero_nodes_keeps_the_identity(self):
        circ = ql.Circuit(3, 0, (ql.cx(0, 2),))
        mapping, est = global_adjust(circ, make_layout("linear", 3), SearchLimits(max_nodes=0))
        assert mapping.is_identity and est == 0.0  # a lone illegal CNOT weighs nothing


class TestGlobalAdjust:
    def test_far_cnot_relabels_to_the_reachable_end(self):
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        mapping, est = global_adjust(c, CHAIN5)
        assert mapping.as_dict() == {1: 3, 3: 1}
        assert est == 0.0

    def test_legal_circuit_keeps_identity(self):
        c = ql.Circuit(5, 0, (ql.cx(0, 1), ql.cx(2, 3)))
        mapping, est = global_adjust(c, CHAIN5)
        assert mapping.is_identity and est == 0.0

    def test_chain_gap_closed_by_some_transposition(self):
        # oracle: enumerate candidates by brute force; at least one legalizes,
        # so the search must come back with a zero-estimate relabeling
        g = make_layout("linear", 3)
        c = ql.Circuit(3, 0, (ql.cx(0, 2),))
        oracle = all_legalizing_transpositions((0, 2), g, prefix=[])
        assert oracle  # the instance is solvable by relabeling alone
        mapping, est = global_adjust(c, g)
        assert est == 0.0
        moved = ql.apply_mapping(c, mapping)
        assert g.is_legal_cnot(*moved.gates[0].qubits, respect_direction=False)

    def test_gate_multiset_preserved(self):
        circ = ql.gen_random_circuit(5, 2, seed=3)
        mapping, _ = global_adjust(circ, make_layout("linear", 5))
        moved = ql.apply_mapping(circ, mapping)
        before = sorted((g.kind.value, g.params) for g in circ.gates)
        after = sorted((g.kind.value, g.params) for g in moved.gates)
        assert before == after and len(moved) == len(circ)

    def test_never_worse_than_identity(self):
        from qlayout.routing import _residual_intermediates, estimate_cost
        for seed in range(6):
            circ = ql.gen_random_circuit(6, 2, seed=seed)
            for kind in ("linear", "central", "circle", "neighbour"):
                g = make_layout(kind, 6)
                cnots = [(x.qubits[0], x.qubits[1]) for x in circ.gates
                         if x.kind is ql.GateKind.CNOT]
                identity_est = estimate_cost(_residual_intermediates(cnots, g))
                _, est = global_adjust(circ, g)
                assert est <= identity_est

    def test_fully_connected_graph_needs_nothing(self):
        g = CouplingGraph(4, frozenset({(a, b) for a in range(4) for b in range(4) if a < b}))
        circ = ql.gen_random_circuit(4, 3, seed=9)
        mapping, est = global_adjust(circ, g, SearchLimits(max_nodes=10**9))
        assert mapping.is_identity and est == 0.0

    def test_node_budget_falls_back_to_best_seen(self):
        circ = ql.gen_random_circuit(6, 4, seed=1)
        g = make_layout("linear", 6)
        mapping, est = global_adjust(circ, g, SearchLimits(max_nodes=1))
        assert isinstance(mapping, QubitMapping)  # always returns something
        unlimited_map, unlimited_est = global_adjust(circ, g)
        assert unlimited_est <= est

    def test_circuit_wider_than_graph_rejected(self):
        c = ql.Circuit(5, 0, (ql.cx(0, 2), ql.cx(3, 4)))
        with pytest.raises(ValueError, match="uses 5 qubits but the layout has only 3"):
            global_adjust(c, make_layout("linear", 3))

    def test_relabeled_then_routed_is_equivalent(self):
        circ = ql.gen_random_circuit(5, 2, seed=17)
        g = make_layout("central", 5)
        mapping, _ = global_adjust(circ, g)
        moved = ql.apply_mapping(circ, mapping)
        routed = ql.route_circuit(moved, g)
        assert ql.equivalent(circ, routed.circuit, mapping.then(routed.final_mapping),
                             1e-9, initial_map=mapping)
