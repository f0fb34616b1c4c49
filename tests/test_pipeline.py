"""End-to-end pipeline contracts: stage order, mappings, reports."""
import gc
import tracemalloc

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from conftest import circuits, connected_graphs
from qlayout.coupling import CouplingGraph, DisconnectedGraphError, make_layout
from qlayout.ir import GateKind
from qlayout import pipeline
from qlayout.merge import merge_single_qubit_runs
from qlayout.pipeline import PipelineConfig, check_legal, transpile, transpile_baseline
from qlayout.relabel import SearchLimits
from qlayout.routing import (
    MAX_LOOKAHEAD,
    LegalityError,
    fit_to_graph,
    fix_directions,
    route_circuit,
)


# directed chain: relabeling 1<->3 legalizes cx(1,4) without any new gate
CHAIN5D = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}), directed=True)


class TestTranspile:
    def test_relabeling_alone_can_suffice(self):
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        res = transpile(c, CHAIN5D)
        assert res.final_mapping.as_dict() == {1: 3, 3: 1}
        assert res.swaps_emitted == 0
        n2_in, n1_in = res.stage_counts["input"]
        n2_out, n1_out = res.stage_counts["merge"]
        assert (n2_out, n1_out) == (n2_in, n1_in)  # zero added gates
        assert ql.equivalent(c, res.circuit, res.final_mapping, 1e-9,
                             initial_map=res.initial_mapping)

    def test_legal_input_only_merges(self):
        full = CouplingGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        c = ql.Circuit(3, 0, (ql.u1(0.5, 0), ql.u1(0.25, 0), ql.cx(0, 1)))
        res = transpile(c, full)
        assert res.final_mapping.is_identity
        assert ql.gate_counts(res.circuit) == (1, 1)  # u1 pair fused

    def test_all_outputs_legal_and_equivalent(self):
        for seed in range(4):
            c = ql.gen_random_circuit(5, 2, seed=seed)
            for kind in ("linear", "circle", "central", "neighbour"):
                g = make_layout(kind, 5)
                res = transpile(c, g)
                check_legal(res.circuit, g)  # raises on violation
                assert ql.equivalent(c, res.circuit, res.final_mapping, 1e-6,
                                     initial_map=res.initial_mapping)

    def test_directed_graph_output_respects_orientation(self):
        c = ql.gen_random_circuit(4, 2, seed=11)
        g = CouplingGraph(4, frozenset({(0, 1), (2, 1), (2, 3)}), directed=True)
        res = transpile(c, g)
        for gate in res.circuit.gates:
            if gate.kind is ql.GateKind.CNOT:
                assert g.is_legal_cnot(*gate.qubits)
        assert ql.equivalent(c, res.circuit, res.final_mapping, 1e-6,
                             initial_map=res.initial_mapping)

    def test_stage_toggles(self):
        c = ql.gen_random_circuit(5, 1, seed=5)
        g = make_layout("linear", 5)
        no_merge = transpile(c, g, PipelineConfig(do_merge=False))
        assert no_merge.stage_counts["merge"] == no_merge.stage_counts["fix_directions"]
        no_global = transpile(c, g, PipelineConfig(global_limits=SearchLimits(max_nodes=0)))
        assert no_global.initial_mapping.is_identity
        assert ql.equivalent(c, no_global.circuit, no_global.final_mapping, 1e-6)

    def test_circuit_wider_than_layout_rejected(self):
        with pytest.raises(ValueError, match="only"):
            transpile(ql.Circuit(7, 0), make_layout("linear", 5))

    def test_disconnected_layout_rejected(self):
        g = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(DisconnectedGraphError):
            transpile(ql.Circuit(2, 0, (ql.cx(0, 1),)), g)

    def test_narrow_circuit_on_wide_layout_builds_only_the_distance_table(self):
        # 600 vertices: building the distance table peaks at about 7 MB, and a
        # second n x n table kept beside it takes the peak past 10 MB
        g = make_layout("linear", 600)
        tracemalloc.start()
        try:
            transpile(ql.Circuit(2, 0, (ql.cx(0, 1), ql.h(1))), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_report_fields(self):
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        rep = transpile(c, CHAIN5D).report()
        assert rep["final_mapping"] == {"1": 3, "3": 1}
        assert rep["cost_before"] == 10 and rep["cost_after"] == 10
        assert set(rep["stages"]) == {"input", "global_adjust", "local_adjust",
                                      "fix_directions", "merge"}
        assert rep["elapsed_s"] >= 0

    def test_stage_seconds_match_stage_counts(self):
        c = ql.gen_random_circuit(5, 2, seed=3)
        for res in (transpile(c, CHAIN5D), transpile_baseline(c, CHAIN5D)):
            assert list(res.stage_seconds) == list(res.stage_counts)
            assert all(t >= 0 for t in res.stage_seconds.values())
            assert sum(res.stage_seconds.values()) <= res.elapsed_s
            assert res.report()["stage_seconds"] == res.stage_seconds

    def test_config_validation(self):
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match="lookahead"):
                PipelineConfig(lookahead=bad)
        with pytest.raises(ValueError, match=f"between 1 and {MAX_LOOKAHEAD}"):
            PipelineConfig(lookahead=MAX_LOOKAHEAD + 1)
        assert PipelineConfig(lookahead=MAX_LOOKAHEAD).lookahead == MAX_LOOKAHEAD


class TestStageLog:
    @pytest.mark.parametrize("directed,walks", [(False, 3), (True, 4)])
    def test_each_circuit_is_counted_once(self, monkeypatch, directed, walks):
        graph = make_layout("central", 5)
        if directed:
            graph = CouplingGraph(5, graph.edges, directed=True)
        circuit = ql.gen_random_circuit(5, 3, 7)
        counted = []

        def spy(c):
            counted.append(c)
            return ql.gate_counts(c)

        monkeypatch.setattr(pipeline, "gate_counts", spy)
        res = transpile(circuit, graph)
        assert len(counted) == walks

        # recount every stage from a replay of the stages
        work = fit_to_graph(circuit, graph)
        routed = route_circuit(work, graph, initial_mapping=res.initial_mapping).circuit
        fixed = fix_directions(routed, graph)
        assert res.stage_counts == {
            name: ql.gate_counts(c) for name, c in [
                ("input", work), ("global_adjust", work), ("local_adjust", routed),
                ("fix_directions", fixed), ("merge", merge_single_qubit_runs(fixed))]}
        assert res.cost_before == ql.cost(circuit)
        assert res.cost_after == ql.cost(res.circuit)

    @pytest.mark.parametrize("baseline", [False, True])
    def test_costs_without_fusion_price_the_output(self, baseline):
        circuit = ql.gen_random_circuit(4, 2, 3)
        graph = CouplingGraph(4, make_layout("linear", 4).edges, directed=True)
        res = (transpile_baseline(circuit, graph, do_merge=False) if baseline
               else transpile(circuit, graph, PipelineConfig(do_merge=False)))
        assert res.stage_counts["merge"] == ql.gate_counts(res.circuit)
        assert (res.cost_before, res.cost_after) == (ql.cost(circuit), ql.cost(res.circuit))


class TestBaseline:
    def test_identity_mappings(self):
        c = ql.gen_random_circuit(5, 2, seed=2)
        res = transpile_baseline(c, make_layout("central", 5))
        assert res.final_mapping.is_identity and res.initial_mapping.is_identity
        assert ql.equivalent(c, res.circuit, tol=1e-6)

    def test_output_legal(self):
        c = ql.gen_random_circuit(6, 2, seed=8)
        g = make_layout("circle", 6)
        res = transpile_baseline(c, g)
        check_legal(res.circuit, g)

    def test_swaps_emitted_counts_the_swaps_there_and_back(self):
        c = ql.Circuit(5, 0, (ql.cx(1, 2), ql.cx(2, 3)))
        res = transpile_baseline(c, make_layout("central", 5))
        assert res.stage_counts["naive_route"][0] == 14
        assert res.swaps_emitted == 4

    def test_swaps_emitted_matches_the_naive_stage_on_seeded_cells(self):
        for kind in ("linear", "circle", "central", "neighbour"):
            for n in range(3, 7):
                g = make_layout(kind, n)
                for depth in (1, 3):
                    c = ql.gen_random_circuit(n, depth, seed=100 * n + depth)
                    res = transpile_baseline(c, g)
                    increase = res.stage_counts["naive_route"][0] - res.stage_counts["input"][0]
                    assert 3 * res.swaps_emitted == increase
                    # a CNOT whose path has k > 2 vertices walks k - 2 SWAPs there and k - 2 back
                    paths = [g.shortest_path(*gate.qubits) for gate in c.gates
                             if gate.kind is ql.GateKind.CNOT]
                    assert res.swaps_emitted == sum(2 * max(len(p) - 2, 0) for p in paths)

    def test_pipeline_beats_baseline_when_relabeling_suffices(self):
        # when the pipeline legalizes with zero swaps, the baseline's
        # there-and-back overhead must cost strictly more
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        g = make_layout("linear", 5)
        ours = transpile(c, g)
        assert ours.swaps_emitted == 0
        base = transpile_baseline(c, g)
        assert ours.cost_after < base.cost_after

    def test_zero_swap_records_never_cost_more_than_baseline(self):
        hits = 0
        for seed in range(12):
            c = ql.gen_random_circuit(4, 1, seed=seed)
            for kind in ("linear", "circle", "central", "neighbour"):
                g = make_layout(kind, 4)
                ours = transpile(c, g)
                base = transpile_baseline(c, g)
                base_overhead = ql.gate_counts(base.circuit)[0] > ql.gate_counts(c)[0]
                if ours.swaps_emitted == 0 and base_overhead:
                    hits += 1
                    assert ours.cost_after <= base.cost_after
        assert hits > 0  # the scenario actually occurs in the sample

    def test_check_legal_raises(self):
        g = CouplingGraph(3, frozenset({(0, 1)}), directed=True)
        with pytest.raises(LegalityError):
            check_legal(ql.Circuit(3, 0, (ql.cx(1, 2),)), g)


def reference_check_legal(circuit: ql.Circuit, graph: CouplingGraph) -> None:
    """``check_legal`` through ``is_legal_cnot``, which checks both indices
    of every CNOT."""
    for g in circuit.gates:
        if g.kind is GateKind.CNOT and not graph.is_legal_cnot(*g.qubits):
            raise LegalityError(f"cx({g.qubits[0]},{g.qubits[1]}) is not an edge")


def check_outcome(check, circuit, graph):
    try:
        check(circuit, graph)
    except (LegalityError, IndexError) as exc:
        return type(exc), str(exc)
    return None


class TestCheckLegal:
    @settings(deadline=None)
    @given(data=st.data())
    def test_same_verdict_as_is_legal_cnot(self, data):
        # the circuit may be wider than the graph, putting CNOTs beyond it
        g = data.draw(connected_graphs())
        circ = data.draw(circuits(max_qubits=g.num_qubits + 2, max_gates=12))
        expected = check_outcome(reference_check_legal, circ, g)
        assert check_outcome(check_legal, circ, g) == expected

    @settings(deadline=None)
    @given(data=st.data())
    def test_non_edge_and_misoriented_cnots_raise(self, data):
        g = data.draw(connected_graphs())
        n = g.num_qubits
        a, b = data.draw(st.sampled_from([(a, b) for a in range(n) for b in range(n)
                                          if a != b and not g.is_legal_cnot(a, b)]
                                         or [(None, None)]))
        if a is None:  # every ordered pair is an edge
            return
        legal = [ql.cx(*e) for e in sorted(g.edges)]
        circ = ql.Circuit(n, 0, (*legal, ql.cx(a, b), *legal))
        with pytest.raises(LegalityError, match=rf"^{re.escape(f'cx({a},{b})')} is not an edge$"):
            check_legal(circ, g)
        check_legal(ql.Circuit(n, 0, tuple(legal)), g)

    @pytest.mark.parametrize("directed", [False, True])
    def test_cnot_beyond_the_graph_is_an_index_error(self, directed):
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), directed=directed)
        with pytest.raises(IndexError, match=r"^qubit 3 outside 0\.\.2$"):
            check_legal(ql.Circuit(4, 0, (ql.cx(0, 1), ql.cx(2, 3))), g)
        # program order decides which error comes first
        with pytest.raises(LegalityError):
            check_legal(ql.Circuit(4, 0, (ql.cx(0, 2), ql.cx(2, 3))), g)


class TestNoReferenceCycles:
    """A public call leaves no garbage that only the cyclic collector frees:
    what a search builds (its leaf queue, its arrays) goes when it returns."""

    CIRCUIT = ql.Circuit(5, 1, (ql.h(0), ql.cx(0, 3), ql.u1(0.3, 2), ql.cx(4, 1), ql.cx(1, 2),
                                ql.cx(0, 4), ql.measure(2, 0)))

    @pytest.mark.parametrize("directed", [False, True])
    def test_each_call_leaves_no_cycle(self, directed):
        g = (CouplingGraph(5, frozenset({(0, 1), (2, 1), (2, 3), (4, 3)}), directed=True)
             if directed else make_layout("linear", 5))
        c = self.CIRCUIT
        text = ql.emit_qasm(c)
        res = transpile(c, g)
        calls = {
            "parse_qasm": lambda: ql.parse_qasm(text),
            "transpile": lambda: transpile(c, g),
            "transpile_baseline": lambda: transpile_baseline(c, g),
            "global_adjust": lambda: ql.global_adjust(c, g),
            "route_circuit": lambda: route_circuit(c, g),
            "brute_force_route_cost": lambda: ql.brute_force_route_cost(c, g),
            "equivalent": lambda: ql.equivalent(c, res.circuit, res.final_mapping,
                                                initial_map=res.initial_mapping),
            "emit_qasm": lambda: ql.emit_qasm(res.circuit),
        }
        for name, call in calls.items():
            call()  # builds the graph's cached tables
            gc.collect()
            gc.disable()
            try:
                call()
                assert gc.collect() == 0, name
            finally:
                gc.enable()
