"""End-to-end pipeline contracts: stage order, mappings, reports."""
import numpy as np
import pytest

import qlayout as ql
from qlayout.coupling import CouplingGraph, DisconnectedGraphError, make_layout
from qlayout.pipeline import PipelineConfig, check_legal, transpile, transpile_baseline
from qlayout.routing import MAX_LOOKAHEAD, LegalityError


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
        no_global = transpile(c, g, PipelineConfig(do_global=False))
        assert no_global.initial_mapping.is_identity
        assert ql.equivalent(c, no_global.circuit, no_global.final_mapping, 1e-6)

    def test_circuit_wider_than_layout_rejected(self):
        with pytest.raises(ValueError, match="only"):
            transpile(ql.Circuit(7, 0), make_layout("linear", 5))

    def test_disconnected_layout_rejected(self):
        g = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(DisconnectedGraphError):
            transpile(ql.Circuit(2, 0, (ql.cx(0, 1),)), g)

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
