"""Acceptance suite: the eight gating criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The benchmark corpus is pinned by BASE_SEED; criteria 1, 2, 6 and
7 share it.
"""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import qlayout as ql
from qlayout.bench import BenchRecord, aggregate, gen_random_circuit, record_seed
from qlayout.cli import main
from qlayout.ir import GateKind, cost, mat2_mul, single_qubit_matrix
from qlayout.merge import merge_adjacent, merge_single_qubit_runs, yz_to_zy
from qlayout.pipeline import transpile, transpile_baseline
from qlayout.routing import brute_force_route_cost, route_circuit
from qlayout.search import estimate_cost

from conftest import phase_aligned_error

BASE_SEED = 20250808
LAYOUTS = ("linear", "circle", "central", "neighbour")
QUBITS = range(3, 9)
DEPTHS = range(1, 7)
TRIALS = 5
TOL = 1e-6


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass(frozen=True)
class CorpusEntry:
    layout: str
    n: int
    depth: int
    trial: int
    seed: int
    original: ql.Circuit
    pipeline: ql.TranspileResult
    baseline: ql.TranspileResult
    verified_pipeline: bool
    verified_baseline: bool


@dataclass(frozen=True)
class Corpus:
    entries: tuple[CorpusEntry, ...]
    transpile_seconds: float


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    entries = []
    transpile_seconds = 0.0
    for li, layout in enumerate(LAYOUTS):
        for n in QUBITS:
            graph = ql.make_layout(layout, n)
            for depth in DEPTHS:
                for trial in range(TRIALS):
                    seed = record_seed(BASE_SEED, li, n, depth, trial)
                    circuit = gen_random_circuit(n, depth, seed)
                    t0 = time.perf_counter()
                    ours = transpile(circuit, graph)
                    transpile_seconds += time.perf_counter() - t0
                    base = transpile_baseline(circuit, graph)
                    ok_ours = ql.equivalent(circuit, ours.circuit, ours.final_mapping,
                                            TOL, initial_map=ours.initial_mapping,
                                            seed=seed)
                    ok_base = ql.equivalent(circuit, base.circuit, tol=TOL, seed=seed)
                    entries.append(CorpusEntry(layout, n, depth, trial, seed,
                                               circuit, ours, base, ok_ours, ok_base))
    return Corpus(tuple(entries), transpile_seconds)


def test_criterion_1_legality(corpus):
    """Every pipeline output on the full grid is legal under directed rules."""
    graphs = {(layout, n): ql.make_layout(layout, n)
              for layout in LAYOUTS for n in QUBITS}
    illegal = 0
    for e in corpus.entries:
        g = graphs[(e.layout, e.n)]
        for gate in e.pipeline.circuit.gates:
            if gate.kind is GateKind.CNOT and not g.is_legal_cnot(*gate.qubits):
                illegal += 1
    ok = illegal == 0 and len(corpus.entries) == 720 and corpus.transpile_seconds < 300
    report(1, ok, f"legality over {len(corpus.entries)} circuits: {illegal} illegal "
                  f"CNOTs, transpile time {corpus.transpile_seconds:.1f}s (< 300s)")


def test_criterion_2_semantic_equivalence(corpus):
    """Every pipeline output is statevector-equivalent at tol 1e-6."""
    failures = sum(1 for e in corpus.entries if not e.verified_pipeline)
    baseline_failures = sum(1 for e in corpus.entries if not e.verified_baseline)
    ok = failures == 0 and baseline_failures == 0
    report(2, ok, f"equivalence at tol {TOL}: {failures} pipeline / "
                  f"{baseline_failures} baseline failures out of {len(corpus.entries)}")


def test_criterion_3_fusion_oracle():
    """1e5 random pair fusions and 1e5 Y-Z rewrites reconstruct their
    matrix products within 1e-9 max-entry error, in under 30 s."""
    rng = np.random.default_rng(BASE_SEED + 3)
    t0 = time.perf_counter()
    worst = 0.0

    def random_gate():
        kind = rng.integers(0, 4)
        a = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
        if kind == 0:
            return ql.u1(a[0], 0)
        if kind == 1:
            return ql.u2(a[0], a[1], 0)
        if kind == 2:
            return ql.u3(a[0], a[1], a[2], 0)
        return ql.h(0)

    for _ in range(100_000):
        later, earlier = random_gate(), random_gate()
        merged = merge_adjacent(later, earlier)
        product = mat2_mul(single_qubit_matrix(later), single_qubit_matrix(earlier))
        worst = max(worst, phase_aligned_error(product, single_qubit_matrix(merged)))

    def rz(phi):
        import cmath
        return (cmath.exp(-0.5j * phi), 0j, 0j, cmath.exp(0.5j * phi))

    def ry(theta):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (c + 0j, -s + 0j, s + 0j, c + 0j)

    for _ in range(100_000):
        t1, mid, t2 = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
        triple = yz_to_zy(t1, mid, t2)
        target = mat2_mul(ry(t1), mat2_mul(rz(mid), ry(t2)))
        got = mat2_mul(rz(triple.phi), mat2_mul(ry(triple.theta), rz(triple.lam)))
        worst = max(worst, phase_aligned_error(target, got))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30
    report(3, ok, f"fusion oracle over 2x100000 samples: worst error {worst:.2e} "
                  f"(< 1e-9), {elapsed:.1f}s (< 30s)")


def _random_cnot_instance(rng, n_cnots):
    kind = LAYOUTS[int(rng.integers(0, 4))]
    n = int(rng.integers(4, 8))
    graph = ql.make_layout(kind, n)
    gates = tuple(ql.cx(*map(int, rng.choice(n, size=2, replace=False)))
                  for _ in range(n_cnots))
    circuit = ql.Circuit(n, 0, gates)
    illegal = sum(1 for g in gates
                  if not graph.is_legal_cnot(*g.qubits, respect_direction=False))
    return circuit, graph, illegal


def test_criterion_4_lookahead_optimality():
    """Realized search cost is exhaustively optimal within the horizon and
    never better than the oracle beyond it."""
    rng = np.random.default_rng(BASE_SEED + 4)
    mismatches = 0
    checked_small = 0
    while checked_small < 200:
        circuit, graph, illegal = _random_cnot_instance(rng, int(rng.integers(1, 5)))
        if illegal == 0:
            continue
        checked_small += 1
        if route_circuit(circuit, graph).search_cost != brute_force_route_cost(circuit, graph):
            mismatches += 1

    violations = 0
    checked_large = 0
    while checked_large < 60:
        circuit, graph, illegal = _random_cnot_instance(rng, int(rng.integers(5, 11)))
        if not (4 < illegal <= 10):
            continue
        checked_large += 1
        if route_circuit(circuit, graph).search_cost < brute_force_route_cost(circuit, graph):
            violations += 1

    ok = mismatches == 0 and violations == 0
    report(4, ok, f"lookahead vs oracle: {mismatches} mismatches over 200 instances "
                  f"(k<=4), {violations} bound violations over 60 instances (4<k<=10)")


def test_criterion_5_estimator_values():
    """The hand-computed estimator values hold to 1e-12."""
    e1 = estimate_cost([1, 2])
    e2 = estimate_cost([1, 1, 1])
    ok = abs(e1 - 8.5) <= 1e-12 and abs(e2 - 34 * 5 / 9) <= 1e-12
    report(5, ok, f"estimate_cost([1,2]) = {e1} (8.5), "
                  f"estimate_cost([1,1,1]) = {e2} (34*5/9)")


def test_criterion_6_baseline_dominance(corpus):
    """Per-layout mean cost ratio: pipeline strictly below baseline on every
    layout; quotient <= 0.75 on the central layout."""
    records = [BenchRecord(e.layout, e.n, e.depth, e.trial, e.seed,
                           cost(e.original), cost(e.pipeline.circuit),
                           cost(e.baseline.circuit), 0.0, 0.0,
                           e.verified_pipeline and e.verified_baseline)
               for e in corpus.entries]
    agg = aggregate(records)
    lines = []
    strict = True
    for layout in LAYOUTS:
        stats = agg["per_layout"][layout]
        ours, base = stats["cost_ratio_pipeline"], stats["cost_ratio_baseline"]
        strict = strict and ours < base
        lines.append(f"{layout} {ours:.3f} vs {base:.3f}")
    central = agg["per_layout"]["central"]
    quotient = central["cost_ratio_pipeline"] / central["cost_ratio_baseline"]
    ok = strict and quotient <= 0.75
    report(6, ok, "mean cost ratios (pipeline vs baseline): " + ", ".join(lines)
                  + f"; central quotient {quotient:.3f} (<= 0.75)")


def test_criterion_7_merge_effectiveness(corpus):
    """Fusion never grows the single-qubit count, leaves at most one gate
    per qubit per subinterval, and is exactly idempotent."""
    grew = subinterval_bad = not_idempotent = 0
    for e in corpus.entries:
        n2_pre, n1_pre = e.pipeline.stage_counts["fix_directions"]
        n2_post, n1_post = e.pipeline.stage_counts["merge"]
        if n1_post > n1_pre or n2_post != n2_pre:
            grew += 1
        open_run: dict[int, int] = {}
        for g in e.pipeline.circuit.gates:
            if g.is_single_qubit:
                q = g.qubits[0]
                open_run[q] = open_run.get(q, 0) + 1
                if open_run[q] > 1:
                    subinterval_bad += 1
            else:
                for q in g.qubits:
                    open_run[q] = 0
        if merge_single_qubit_runs(e.pipeline.circuit) != e.pipeline.circuit:
            not_idempotent += 1
    ok = grew == 0 and subinterval_bad == 0 and not_idempotent == 0
    report(7, ok, f"merge over {len(corpus.entries)} circuits: {grew} count growths, "
                  f"{subinterval_bad} overfull subintervals, {not_idempotent} "
                  f"idempotence breaks")


def test_criterion_8_benchmark_determinism(tmp_path):
    """Two identical bench invocations produce byte-identical CSVs."""
    args = ["bench", "--layouts", "central,linear", "--qubits", "3..5",
            "--depths", "1..3", "--trials", "2", "--seed", str(BASE_SEED),
            "--fixed-times"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--csv", str(a)])
    code_b = main(args + ["--csv", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    json_identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ok = code_a == 0 and code_b == 0 and identical and json_identical
    report(8, ok, f"two identical bench runs: CSV byte-identical={identical}, "
                  f"aggregate JSON identical={json_identical}")
