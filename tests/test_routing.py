"""Lookahead SWAP routing, direction fixing, the naive baseline."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from conftest import circuits, connected_graphs, lookahead_choose
from qlayout import routing
from qlayout.coupling import CouplingGraph, DisconnectedGraphError, make_layout
from qlayout.ir import Gate, GateKind, QubitMapping
from qlayout.routing import (
    MAX_LOOKAHEAD,
    LegalityError,
    SWAP_COST,
    _repairs,
    brute_force_route_cost,
    estimate_cost,
    fix_directions,
    naive_route,
    route_circuit,
)


CHAIN3 = make_layout("linear", 3)
CHAIN5 = make_layout("linear", 5)
# undirected star: the only path between two leaves runs through wire 4
STAR5 = CouplingGraph(5, frozenset({(4, 0), (4, 1), (4, 2), (4, 3)}))


def cnot_kinds(circuit):
    return [(g.kind.value, g.qubits) for g in circuit.gates]


class TestEstimateCost:
    def test_two_entries(self):
        assert estimate_cost([1, 2]) == pytest.approx(8.5, abs=1e-12)

    def test_last_entry_weighs_nothing(self):
        assert estimate_cost([1]) == 0.0
        assert estimate_cost([999]) == 0.0

    def test_three_unit_entries(self):
        assert estimate_cost([1, 1, 1]) == pytest.approx(34 * 5 / 9, abs=1e-12)

    def test_empty(self):
        assert estimate_cost([]) == 0.0

    @given(ms=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=8),
           idx=st.integers(min_value=0, max_value=6))
    def test_monotone_in_each_entry(self, ms, idx):
        idx %= len(ms)
        bumped = list(ms)
        bumped[idx] += 1
        assert estimate_cost(bumped) >= estimate_cost(ms)

    @given(ms=st.lists(st.integers(min_value=0, max_value=60), max_size=80))
    def test_bitwise_equal_to_reference_formula(self, ms):
        n = len(ms)
        # exact in integers, then one correctly rounded division
        reference = (SWAP_COST * sum((n - i) ** 2 * m for i, m in enumerate(ms, start=1))
                     / (n * n)) if n else 0.0
        assert estimate_cost(ms).hex() == reference.hex()


class TestLookaheadChoose:
    def test_target_branch_wins_ties(self):
        # both branches legalize immediately; control costs 4 more
        mapping, cost = lookahead_choose((0, 2), [], CHAIN3)
        assert cost == SWAP_COST  # 34 * one intermediate, target moved
        assert mapping.as_dict() == {2: 1, 1: 2}

    def test_control_branch_cost_is_target_plus_four(self):
        # expose both leaf costs by reading each mover's repair; a repair's
        # mover is the endpoint its stops start from
        (c_cost, _, c_stops), (t_cost, _, t_stops) = _repairs((0, 2), CHAIN3, {})
        assert (c_stops[0], t_stops[0]) == (0, 2)
        assert c_cost == t_cost + 4

    def test_immediate_legalization_cost(self):
        mapping, cost = lookahead_choose((0, 3), [], CHAIN5)
        assert cost == 2 * SWAP_COST  # two intermediates, target moved

    def test_rest_influences_choice(self):
        # moving the target of (0,2) parks state 2 on wire 1, breaking (2,?)
        # gates later; the lookahead must price that in
        rest = [(2, 1)]
        mapping, cost = lookahead_choose((0, 2), rest, CHAIN3)
        moved = [(mapping(c), mapping(t)) for c, t in rest]
        assert all(CHAIN3.is_legal_cnot(c, t, respect_direction=False)
                   for c, t in moved)


class TestRouteCircuit:
    def test_chain_gap_single_swap(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 2),))
        result = route_circuit(c, CHAIN3)
        assert cnot_kinds(result.circuit) == [
            ("cx", (2, 1)), ("cx", (1, 2)), ("cx", (2, 1)), ("cx", (0, 1))]
        assert result.final_mapping.as_dict() == {1: 2, 2: 1}
        assert result.search_cost == SWAP_COST and result.swaps_emitted == 1
        assert ql.equivalent(c, result.circuit, result.final_mapping, 1e-12)

    def test_legal_circuit_untouched(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.h(2), ql.cx(2, 1)))
        result = route_circuit(c, CHAIN3)
        assert result.circuit == c
        assert result.final_mapping.is_identity and result.search_cost == 0

    def test_long_range_cnot_on_chain(self):
        # same task as the swap-there-and-back construction, checked by the
        # statevector oracle over every basis state of the 5-qubit register
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        result = route_circuit(c, CHAIN5)
        assert ql.equivalent(c, result.circuit, result.final_mapping, 1e-12)
        naive = naive_route(c, CHAIN5)
        assert ql.equivalent(naive, result.circuit, result.final_mapping, 1e-12)

    def test_no_illegal_cnots_remain(self):
        for seed in range(5):
            circ = ql.gen_random_circuit(6, 3, seed=seed)
            for kind in ("linear", "circle", "central", "neighbour"):
                g = make_layout(kind, 6)
                result = route_circuit(circ, g)
                for gate in result.circuit.gates:
                    if gate.kind is GateKind.CNOT:
                        assert g.is_legal_cnot(*gate.qubits, respect_direction=False)

    def test_cnot_growth_is_three_per_swap(self):
        circ = ql.gen_random_circuit(6, 3, seed=4)
        g = make_layout("linear", 6)
        result = route_circuit(circ, g)
        n2_in, _ = ql.gate_counts(circ)
        n2_out, _ = ql.gate_counts(result.circuit)
        assert n2_out == n2_in + 3 * result.swaps_emitted

    def test_disconnected_graph_rejected(self):
        g = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(DisconnectedGraphError):
            route_circuit(ql.Circuit(4, 0, (ql.cx(0, 3),)), g)

    def test_single_qubit_gates_follow_their_state(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 2), ql.u1(0.7, 2)))
        result = route_circuit(c, CHAIN3)
        assert ql.equivalent(c, result.circuit, result.final_mapping, 1e-12)

    def test_lookahead_bounds(self):
        c = ql.Circuit(5, 0, (ql.cx(0, 4), ql.cx(1, 3), ql.cx(0, 2)))
        assert route_circuit(c, CHAIN5, lookahead=MAX_LOOKAHEAD).swaps_emitted > 0
        for bad in (0, MAX_LOOKAHEAD + 1, 2.5, True):
            with pytest.raises(ValueError,
                               match=fr"between 1 and {MAX_LOOKAHEAD} \(MAX_LOOKAHEAD\)"):
                route_circuit(c, CHAIN5, lookahead=bad)

    def test_narrow_circuit_widened_to_the_graph(self):
        # the chain for cx(0, 1) moves a state onto wire 4, outside the
        # circuit's own two-qubit register
        c = ql.Circuit(2, 0, (ql.cx(0, 1),))
        result = route_circuit(c, STAR5)
        assert result.circuit.num_qubits == 5 and result.swaps_emitted == 1

    def test_circuit_wider_than_graph_rejected(self):
        with pytest.raises(ValueError, match="uses 4 qubits but the layout has only 3"):
            route_circuit(ql.Circuit(4, 0, (ql.cx(0, 3),)), CHAIN3)

    def test_repair_that_leaves_the_pair_apart_raises(self, monkeypatch):
        # identity steps never bring cx(0, 2) together on the line: a router
        # that retried the repair would ask for repairs forever
        calls = 0

        def idle_repairs(ill, graph, table):
            nonlocal calls
            calls += 1
            if calls > 8:
                raise RuntimeError("the router keeps asking for repairs")
            same = tuple(range(graph.num_qubits))
            return ((SWAP_COST, same, (ill[0],)), (SWAP_COST, same, (ill[1],)))

        monkeypatch.setattr(routing, "_repairs", idle_repairs)
        with pytest.raises(LegalityError, match="left its wires apart"):
            route_circuit(ql.Circuit(3, 0, (ql.cx(0, 2),)), CHAIN3)

    @settings(deadline=None)
    @given(data=st.data())
    def test_output_legal_and_final_mapping_replays(self, data):
        # the circuit may be narrower than the graph
        g = data.draw(connected_graphs())
        circ = data.draw(circuits(max_qubits=g.num_qubits, max_gates=16))
        result = route_circuit(circ, g)
        assert result.circuit.num_qubits == g.num_qubits
        out = result.circuit.gates
        # Replay: every output gate is either the next input gate on the
        # wires its qubits occupy now, or the first CNOT of a SWAP triple,
        # which exchanges the states of two adjacent wires.
        wire = list(range(g.num_qubits))
        k = swaps = 0
        for x in circ.gates:
            while True:
                expected = Gate(x.kind, tuple(wire[q] for q in x.qubits), x.params, x.clbit)
                if out[k] == expected:
                    k += 1
                    break
                a, b = out[k].qubits
                assert out[k:k + 3] == (ql.cx(a, b), ql.cx(b, a), ql.cx(a, b))
                wire = [b if w == a else a if w == b else w for w in wire]
                k += 3
                swaps += 1
        assert k == len(out)
        assert swaps == result.swaps_emitted
        assert QubitMapping(tuple(enumerate(wire))) == result.final_mapping
        for gate in out:
            if gate.kind is GateKind.CNOT:
                assert g.is_legal_cnot(*gate.qubits, respect_direction=False)


class TestLookaheadVersusOracle:
    def layouts(self):
        return [make_layout(k, 5) for k in ("linear", "circle", "central", "neighbour")]

    def test_exact_at_the_horizon(self):
        # any instance whose decision tree is at most 4 deep must be solved
        # to the exhaustive optimum (equality of search cost)
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 40:
            g = self.layouts()[int(rng.integers(0, 4))]
            k = int(rng.integers(1, 5))
            pairs = []
            for _ in range(k):
                a, b = map(int, rng.choice(5, size=2, replace=False))
                pairs.append(ql.cx(a, b))
            circ = ql.Circuit(5, 0, tuple(pairs))
            if all(g.is_legal_cnot(*p.qubits, respect_direction=False)
                   for p in circ.gates):
                continue
            oracle = brute_force_route_cost(circ, g)
            realized = route_circuit(circ, g).search_cost
            assert realized == oracle
            checked += 1

    def test_lower_bound_beyond_horizon(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = self.layouts()[int(rng.integers(0, 4))]
            pairs = tuple(ql.cx(*map(int, rng.choice(5, size=2, replace=False)))
                          for _ in range(int(rng.integers(5, 11))))
            circ = ql.Circuit(5, 0, pairs)
            oracle = brute_force_route_cost(circ, g)
            realized = route_circuit(circ, g).search_cost
            assert realized >= oracle


class TestFixDirections:
    def test_reversed_cnot_wrapped_in_h(self):
        g = CouplingGraph(2, frozenset({(0, 1)}), directed=True)
        c = ql.Circuit(2, 0, (ql.cx(1, 0),))
        fixed = fix_directions(c, g)
        assert cnot_kinds(fixed) == [("h", (0,)), ("h", (1,)), ("cx", (0, 1)),
                                     ("h", (0,)), ("h", (1,))]

    def test_legal_orientation_untouched(self):
        g = CouplingGraph(2, frozenset({(0, 1)}), directed=True)
        c = ql.Circuit(2, 0, (ql.cx(0, 1),))
        assert fix_directions(c, g) == c

    def test_undirected_graph_is_noop(self):
        c = ql.Circuit(2, 0, (ql.cx(1, 0),))
        assert fix_directions(c, make_layout("linear", 2)) is c

    def test_flip_preserves_semantics(self):
        # two-qubit statevector oracle across every basis state
        g = CouplingGraph(2, frozenset({(0, 1)}), directed=True)
        c = ql.Circuit(2, 0, (ql.cx(1, 0),))
        assert ql.equivalent(c, fix_directions(c, g), tol=1e-12)

    def test_unroutable_cnot_raises(self):
        g = CouplingGraph(3, frozenset({(0, 1)}), directed=True)
        with pytest.raises(LegalityError):
            fix_directions(ql.Circuit(3, 0, (ql.cx(1, 2),)), g)


class TestNaiveRoute:
    def test_swap_there_and_back(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 2),))
        routed = naive_route(c, CHAIN3)
        assert cnot_kinds(routed) == [
            ("cx", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1)),
            ("cx", (1, 2)),
            ("cx", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1))]
        # 2m SWAPs at 34 nominal units for m=1
        assert 2 * 1 * SWAP_COST == 68

    def test_legal_circuit_untouched(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.cx(1, 2)))
        assert naive_route(c, CHAIN3) == c

    def test_equivalent_with_identity_mapping(self):
        for seed in range(4):
            circ = ql.gen_random_circuit(5, 2, seed=seed)
            for kind in ("linear", "central"):
                g = make_layout(kind, 5)
                routed = naive_route(circ, g)
                assert ql.equivalent(circ, routed, tol=1e-9)

    def test_disconnected_graph_rejected(self):
        g = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(DisconnectedGraphError):
            naive_route(ql.Circuit(4, 0, (ql.cx(0, 3),)), g)

    def test_narrow_circuit_widened_to_the_graph(self):
        routed = naive_route(ql.Circuit(2, 0, (ql.cx(0, 1),)), STAR5)
        assert routed.num_qubits == 5
        assert ql.equivalent(ql.Circuit(5, 0, (ql.cx(0, 1),)), routed, tol=1e-9)

    def test_circuit_wider_than_graph_rejected(self):
        with pytest.raises(ValueError, match="uses 4 qubits but the layout has only 3"):
            naive_route(ql.Circuit(4, 0, (ql.cx(0, 3),)), CHAIN3)
