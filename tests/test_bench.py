"""Random circuit generator, cost model, benchmark records and aggregates."""
import csv
import inspect
import io
import math

import numpy as np
import pytest

import qlayout as ql
from qlayout.bench import (
    CSV_HEADER,
    BenchRecord,
    aggregate,
    gen_random_circuit,
    record_seed,
    records_to_csv,
    run_benchmark,
)
from qlayout.ir import CNOT_COST, SINGLE_COST, cost
from qlayout.routing import DEFAULT_LOOKAHEAD, SWAP_COST
from qlayout.sim import DEFAULT_TOL


class TestGenRandomCircuit:
    def test_single_pair_block_counts(self):
        c = gen_random_circuit(2, 1, seed=0)
        assert ql.gate_counts(c) == (3, 8)

    def test_determinism(self):
        assert gen_random_circuit(5, 3, seed=42) == gen_random_circuit(5, 3, seed=42)
        assert gen_random_circuit(5, 3, seed=42) != gen_random_circuit(5, 3, seed=43)

    def test_odd_register_idles_one_qubit_per_layer(self):
        c = gen_random_circuit(5, 3, seed=7)
        n2, n1 = ql.gate_counts(c)
        assert n2 == 18  # 3 layers x 2 pairs x 3 CNOTs
        assert n1 == 3 * (2 * 8 + 1)

    def test_every_qubit_touched_each_layer(self):
        c = gen_random_circuit(7, 1, seed=3)
        touched = {q for g in c.gates for q in g.qubits}
        assert touched == set(range(7))

    def test_angles_in_range(self):
        c = gen_random_circuit(4, 2, seed=1)
        for g in c.gates:
            assert all(0 <= p < 2 * math.pi for p in g.params)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_circuit(1, 1, seed=0)
        with pytest.raises(ValueError):
            gen_random_circuit(3, 0, seed=0)

    @pytest.mark.parametrize("width, depth, name", [
        (2.5, 1, "num_qubits"), (4, 1.5, "su4_depth"), (4, True, "su4_depth")])
    def test_non_integer_size_rejected(self, width, depth, name):
        with pytest.raises(ValueError, match=name):
            gen_random_circuit(width, depth, 0)

    def test_numpy_width_stored_as_int(self):
        c = gen_random_circuit(np.int64(4), np.int64(2), 0)
        assert type(c.num_qubits) is int and type(c.num_clbits) is int
        assert c == gen_random_circuit(4, 2, 0)

    @pytest.mark.parametrize("seed", [0, 1, 20250808])
    def test_matches_per_gate_reference(self, seed):
        # One block of angles per layer must give the same doubles, in the
        # same order, as one draw per gate, and store what a checked
        # construction stores.
        for n in range(2, 10):
            for depth in range(1, 5):
                c = gen_random_circuit(n, depth, seed)
                assert c == reference_random_circuit(n, depth, seed)
                for g in c.gates:
                    assert all(type(q) is int for q in g.qubits)
                    assert all(type(p) is float for p in g.params)


def reference_random_circuit(num_qubits: int, su4_depth: int, seed: int) -> ql.Circuit:
    """The generator drawn one gate at a time, built through the checked
    constructors: the draw order ``gen_random_circuit`` must reproduce."""
    rng = np.random.default_rng(seed)

    def random_u3(q):
        theta, phi, lam = rng.uniform(0.0, 2 * np.pi, size=3)
        return ql.u3(theta, phi, lam, q)

    gates = []
    for _ in range(su4_depth):
        order = [int(q) for q in rng.permutation(num_qubits)]
        for a, b in zip(order[0::2], order[1::2]):
            gates += [random_u3(a), random_u3(b)]
            for control, target in ((a, b), (b, a), (a, b)):
                gates.append(ql.Gate(ql.GateKind.CNOT, (control, target)))
                gates += [random_u3(a), random_u3(b)]
        if num_qubits % 2:
            gates.append(random_u3(order[-1]))
    return ql.Circuit(num_qubits, num_qubits, tuple(gates))


class TestCost:
    def test_weighted_sum(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.cx(1, 2), ql.cx(0, 1),
                              ql.h(0), ql.h(1), ql.u1(0.1, 2), ql.u2(0.1, 0.2, 0),
                              ql.u3(0.1, 0.2, 0.3, 1)))
        assert cost(c) == 35

    def test_empty(self):
        assert cost(ql.Circuit(2)) == 0

    def test_model_invariant(self):
        assert SWAP_COST == 3 * CNOT_COST + 4 * SINGLE_COST == 34


def independent_aggregate(csv_text: str) -> dict:
    """Spreadsheet-style oracle: recompute the aggregates from the CSV."""
    rows = [r for r in csv.DictReader(io.StringIO(csv_text))
            if r["verified"] == "true"]
    grids: dict = {}
    for r in rows:
        key = (r["n"], r["su4_depth"])
        grids.setdefault(key, [0, 0])
        grids[key][0] += int(r["cost_baseline"])
        grids[key][1] += int(r["cost_pipeline"])
    per_layout: dict = {}
    for r in rows:
        per_layout.setdefault(r["layout"], []).append(r)
    return {
        "grid": {k: a / b for k, (a, b) in grids.items()},
        "pipeline_mean": {
            layout: sum(int(x["cost_pipeline"]) / int(x["cost_original"]) for x in rs) / len(rs)
            for layout, rs in per_layout.items()},
        "baseline_mean": {
            layout: sum(int(x["cost_baseline"]) / int(x["cost_original"]) for x in rs) / len(rs)
            for layout, rs in per_layout.items()},
    }


class TestRunBenchmark:
    def test_small_grid_all_verified(self):
        result = run_benchmark(["central"], [3, 4], [1, 2], trials=2, seed=7,
                               record_times=False)
        assert len(result.records) == 8
        assert all(r.verified for r in result.records)
        assert result.aggregates["records_verified"] == 8

    def test_records_price_the_circuits_themselves(self):
        # the prices come from the stage logs; they must be the gate walk's
        result = run_benchmark(["central", "linear"], [3, 5], [1, 3], trials=1, seed=5,
                               record_times=False)
        for r in result.records:
            circuit = gen_random_circuit(r.n, r.su4_depth, r.seed)
            graph = ql.make_layout(r.layout, r.n)
            assert r.cost_original == cost(circuit)
            assert r.cost_pipeline == cost(ql.transpile(circuit, graph).circuit)
            assert r.cost_baseline == cost(ql.transpile_baseline(circuit, graph).circuit)

    def test_aggregates_match_independent_recomputation(self):
        result = run_benchmark(["central", "linear"], [3, 4], [1, 2], trials=2,
                               seed=11, record_times=False)
        text = records_to_csv(result.records)
        oracle = independent_aggregate(text)
        agg = result.aggregates
        for (n, d), value in oracle["grid"].items():
            assert agg["grid"]["cost"][n][d] == pytest.approx(value, abs=1e-12)
        for layout in ("central", "linear"):
            assert agg["per_layout"][layout]["cost_ratio_pipeline"] == pytest.approx(
                oracle["pipeline_mean"][layout], abs=1e-12)
            assert agg["per_layout"][layout]["cost_ratio_baseline"] == pytest.approx(
                oracle["baseline_mean"][layout], abs=1e-12)

    def test_identical_runs_are_identical(self):
        a = run_benchmark(["linear"], [3], [1, 2], trials=2, seed=3, record_times=False)
        b = run_benchmark(["linear"], [3], [1, 2], trials=2, seed=3, record_times=False)
        assert records_to_csv(a.records) == records_to_csv(b.records)

    def test_all_ratios_equal_one_when_costs_equal(self):
        records = [BenchRecord("linear", 3, 1, t, 0, 100, 100, 100, 0.0, 0.0, True)
                   for t in range(4)]
        agg = aggregate(records)
        assert agg["per_layout"]["linear"]["cost_ratio_pipeline"] == 1.0
        assert agg["per_layout"]["linear"]["cost_ratio_baseline"] == 1.0

    def test_failed_records_excluded_from_aggregates(self):
        good = BenchRecord("linear", 3, 1, 0, 0, 100, 150, 300, 0.0, 0.0, True)
        bad = BenchRecord("linear", 3, 1, 1, 0, 100, 1, 1, 0.0, 0.0, False)
        agg = aggregate([good, bad])
        assert agg["records_total"] == 2 and agg["records_verified"] == 1
        assert agg["per_layout"]["linear"]["cost_ratio_pipeline"] == 1.5

    @pytest.mark.parametrize("tol", [2.0, 1.0, -0.5, True, math.nan])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            run_benchmark(["linear"], [3], [1], trials=1, seed=0, tol=tol)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([], [3], [1], trials=1, seed=0)
        with pytest.raises(ValueError):
            run_benchmark(["linear"], [3], [1], trials=0, seed=0)

    def test_csv_header_and_shape(self):
        result = run_benchmark(["circle"], [4], [1], trials=1, seed=5,
                               record_times=False)
        text = records_to_csv(result.records)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER == (
            "layout,n,su4_depth,trial,seed,cost_original,cost_pipeline,"
            "cost_baseline,time_pipeline_s,time_baseline_s,verified")
        assert len(lines) == 2
        assert lines[1].startswith("circle,4,1,0,")

    def test_csv_row_formats_each_field_by_its_type(self):
        records = [BenchRecord("linear", 3, 1, 0, 42, 100, 90, 120, 0.1, 1e-05, False),
                   BenchRecord("star", 8, 2, 4, 7, 10, 9, 12, 2.5, 0.0, True)]
        assert records_to_csv(records).splitlines()[1:] == [
            "linear,3,1,0,42,100,90,120,0.1,1e-05,false",
            "star,8,2,4,7,10,9,12,2.5,0.0,true"]

    def test_defaults_are_the_library_defaults(self):
        params = inspect.signature(run_benchmark).parameters
        assert params["lookahead"].default == DEFAULT_LOOKAHEAD
        assert params["tol"].default == DEFAULT_TOL == 1e-6

    def test_record_seed_stability(self):
        assert record_seed(7, 0, 3, 1, 0) == record_seed(7, 0, 3, 1, 0)
        assert record_seed(7, 0, 3, 1, 0) != record_seed(7, 0, 3, 1, 1)
        assert record_seed(7, 1, 3, 1, 0) != record_seed(8, 1, 3, 1, 0)

    def test_timed_run_records_positive_times(self):
        result = run_benchmark(["linear"], [3], [1], trials=1, seed=1,
                               record_times=True)
        r = result.records[0]
        assert r.time_pipeline_s > 0 and r.time_baseline_s > 0
        assert result.aggregates["per_layout"]["linear"]["efficiency"] is not None

    def test_untimed_run_zeroes_times_and_skips_efficiency(self):
        result = run_benchmark(["linear"], [3], [1], trials=1, seed=1,
                               record_times=False)
        r = result.records[0]
        assert r.time_pipeline_s == 0.0 and r.time_baseline_s == 0.0
        assert result.aggregates["per_layout"]["linear"]["efficiency"] is None
