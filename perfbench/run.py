"""qlayout benchmark: QASM-to-QASM compile speed, verdict time and routing quality.

    python3 perfbench/run.py --workload grid --seed 20250808 --seconds 30 --trace 0

One run is one workload in one process.  Set-up builds the graphs and the
seeded circuits and emits them as QASM; it runs SETUP_REPEATS times and
its median (plus the one-off import) is ``setup_s``.  The measured loop
then compiles every circuit (``parse_qasm`` -> ``transpile`` ->
``emit_qasm``) and checks every output, and keeps cycling over the
circuits until ``--seconds`` have passed; the first pass always completes,
because the quality counts cover every circuit.  A circuit's time is its
median over the passes; a metric is a median or a sum over circuits.

Every reported time is at reference speed.  A shared 2-core virtual
machine drifts by a quarter in speed over minutes, so a fixed calibration
loop runs every CALIBRATION_EVERY_S seconds through the run, and each
measured time is scaled by CALIBRATION_REF_S / (median loop time).  The
detail record keeps the unscaled figures and the scale.

With ``--trace 1`` the loop also replays ``transpile`` stage by stage
through public calls, with a span around each call into a layer, and
prints the per-layer metrics instead of the end-to-end ones.  The replay
must emit the same QASM as ``transpile``.

Only names in ``qlayout.__all__`` are used.  Earlier lines of standard
output hold a detail record (versions, CPU count, seed, per-layout cost
ratios, failures); the last line is the result.
"""
from __future__ import annotations

import os

# Pin numpy's BLAS pool before numpy loads: the statevector oracle's
# tensordot calls would otherwise spread over every core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# The program is built from the checkout's own source; in a directory
# without it the import fails and the run exits non-zero with no result.
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
_start = time.perf_counter()
import qlayout  # noqa: E402
IMPORT_S = time.perf_counter() - _start
if Path(qlayout.__file__).resolve().parent.parent != SRC:
    sys.exit(f"qlayout was imported from {qlayout.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
from qlayout import (  # noqa: E402
    Circuit,
    GateKind,
    PipelineConfig,
    QubitMapping,
    apply_mapping,
    cost,
    emit_qasm,
    equivalent,
    fix_directions,
    gate_counts,
    global_adjust,
    merge_single_qubit_runs,
    parse_qasm,
    route_circuit,
    transpile,
    transpile_baseline,
)

import certify  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 20250808
SETUP_REPEATS = 3
TOL = 1e-6
STAGES = ("global_adjust", "route", "fix", "merge")

#: Calibration-loop duration that defines reference speed (about the
#: fastest the loop ran on the 2-core virtual machine the bounds come from).
CALIBRATION_REF_S = 0.025
CALIBRATION_EVERY_S = 0.5


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work -- small tuples,
    dict updates, hashing -- that shares no code with the program."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(60000):
        key = (i & 63, (i * 7) & 63)
        counts[key] = counts.get(key, 0) + (hash(key) & 1)
    return time.perf_counter() - start


class Calibration:
    """Calibration-loop times spread through a run.  Their median tracks
    how fast the machine ran: over four runs on a shared 2-core virtual
    machine, compile time varied by 27 % and its ratio to the loop's
    time by 3 %."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.samples.append(calibration_loop())
            self.last = time.perf_counter()

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def null_span(name):
    return nullcontext()


class Spans:
    """Span durations kept in memory, per (circuit, span name)."""

    def __init__(self):
        self.case = ""
        self.durations: dict[tuple[str, str], list[float]] = defaultdict(list)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.durations[self.case, name].append(time.perf_counter() - start)

    def per_case(self, name: str) -> dict[str, float]:
        """Median duration of span ``name`` for each circuit that has one."""
        return {case: statistics.median(d) for (case, n), d in self.durations.items()
                if n == name}

    def total(self, name: str) -> float:
        """Sum over circuits of the per-circuit medians."""
        return sum(self.per_case(name).values())

    def sum(self, name: str) -> float:
        """Sum of every duration of span ``name``."""
        return sum(sum(d) for (_, n), d in self.durations.items() if n == name)


class Bench:
    """Compiles, checks and accounts the circuits of one workload.

    Counts are taken on the first pass only, so they do not depend on how
    many passes fit in the run.
    """

    def __init__(self, workload: workloads.Workload, cases: list[workloads.Case],
                 trace: bool):
        self.workload = workload
        self.cases = cases
        self.trace = trace
        self.spans = Spans()
        self.fine = self.spans if trace else null_span
        self.config = PipelineConfig()
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, tuple[str, Circuit]] = {}  # first-pass text, parsed
        self.checked = 0
        self.verified = 0
        self.ratios: dict[str, list[float]] = defaultdict(list)
        self.cost_pipeline = 0
        self.cost_baseline = 0
        self.swaps = 0
        self.counts: dict[str, int] = defaultdict(int)

    def fail(self, case: workloads.Case, what: str, reason) -> None:
        self.failures.append(f"{case.label}: {what}: {reason}")

    def run_case(self, case: workloads.Case, first: bool) -> None:
        self.spans.case = case.label
        self.attempted += 1
        try:
            with self.spans("compile"):
                with self.fine("qasm.parse"):
                    circuit = parse_qasm(case.qasm)
                with self.fine("pipeline.transpile"):
                    result = transpile(circuit, case.graph)
                with self.fine("qasm.emit"):
                    text = emit_qasm(result.circuit)
            if first:
                self.outputs[case.label] = (text, parse_qasm(text))
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.fail(case, "compile", repr(exc))
            self.checked += 2 * first  # neither output of this circuit is verified
            return
        first_text, output = self.outputs.get(case.label, (None, None))
        if text != first_text:
            self.fail(case, "compile", "output differs from the first pass")
            return

        self.attempted += 1
        problems = self.check(case, output, result.initial_mapping, result.final_mapping,
                              self.workload.oracle, self.spans, first)
        if problems:
            self.fail(case, "verify", problems)
        if first:
            self.checked += 1
            self.verified += not problems
            self.account(case, circuit, result, output)
        if self.trace:
            self.replay(case, circuit, result, text, first)

    def check(self, case, output, initial, final, oracle: str, span,
              first: bool) -> list[str]:
        """Problems of one output circuit.  The verdict -- ``equivalent``
        for the "statevector" oracle, the width-free check otherwise -- runs
        inside ``span("verify")``."""
        try:
            if oracle == "width_free":
                with span("verify"):
                    return certify.width_free_problems(case.circuit, output, case.graph,
                                                       initial, final)
            problems = certify.width_free_problems(case.circuit, output, case.graph,
                                                   initial, final)
            self.counts["sim.calls"] += first
            with span("verify"):
                ok = equivalent(case.circuit, output, final, TOL,
                                initial_map=initial, seed=case.seed)
        except Exception as exc:  # a check that raises is a failed check
            return [repr(exc)]
        return problems + ([] if ok else ["statevector probes disagree"])

    def account(self, case, circuit, result, output) -> None:
        """Cost of the pipeline output against the original and against the
        swap-there-and-back baseline, whose output is checked too."""
        after = cost(output)
        self.ratios[case.layout].append(after / cost(case.circuit))
        self.cost_pipeline += after
        self.swaps += result.swaps_emitted

        self.attempted += 1
        self.checked += 1
        try:
            with self.fine("pipeline.baseline"):
                base = transpile_baseline(circuit, case.graph)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.fail(case, "baseline", repr(exc))
            return
        # The width-free check covers the baseline wherever it is complete,
        # that is on undirected graphs.
        identity = QubitMapping.identity()
        oracle = "statevector" if case.graph.directed else "width_free"
        problems = self.check(case, base.circuit, identity, identity, oracle, null_span,
                              first=False)
        if problems:
            self.fail(case, "baseline verify", problems)
            return
        self.verified += 1
        self.cost_baseline += cost(base.circuit)

    def replay(self, case, circuit, result, text, first: bool) -> None:
        """``transpile`` stage by stage with the same defaults, one span per
        call; its QASM and mappings must equal those of ``transpile``."""
        graph, span = case.graph, self.spans
        self.attempted += 1
        work = circuit.widened(graph.num_qubits)
        after: dict[str, tuple[int, int]] = {}
        stage = "global_adjust"
        try:
            with span("global_adjust"):
                mapping, _ = global_adjust(work, graph, self.config.global_limits)
            with span("ir.apply_mapping"):
                relabeled = apply_mapping(work, mapping)
            after[stage] = gate_counts(relabeled)
            stage = "route"
            with span("routing.route"):
                routed = route_circuit(relabeled, graph, self.config.lookahead)
            after[stage] = gate_counts(routed.circuit)
            stage = "fix"
            with span("routing.fix"):
                fixed = fix_directions(routed.circuit, graph)
            after[stage] = gate_counts(fixed)
            stage = "merge"
            with span("merge"):
                merged = merge_single_qubit_runs(fixed)
            after[stage] = gate_counts(merged)
        except Exception as exc:  # counted per stage; the run goes on
            self.counts[f"{stage}.errors"] += first
            self.fail(case, f"replay {stage}", repr(exc))
            return
        if (emit_qasm(merged) != text or mapping != result.initial_mapping
                or mapping.then(routed.final_mapping) != result.final_mapping):
            self.fail(case, "replay", "stage-by-stage output differs from transpile")
        if not first:
            return
        c = self.counts
        c["global_adjust.illegal_in"] += illegal_cnots(work, graph)
        c["global_adjust.illegal_out"] += illegal_cnots(relabeled, graph)
        c["routing.swaps"] += routed.swaps_emitted
        c["routing.search_cost"] += routed.search_cost
        c["routing.reversed"] += (after["fix"][1] - after["route"][1]) // 4
        for name, (cnots, singles) in after.items():
            c[f"{name}.cnots_out"] += cnots
            c[f"{name}.singles_out"] += singles


def illegal_cnots(circuit, graph) -> int:
    """CNOTs that are not an edge of the graph's undirected view."""
    return sum(1 for g in circuit.gates if g.kind is GateKind.CNOT
               and not graph.is_legal_cnot(*g.qubits, respect_direction=False))


def tail_ms(seconds: list[float]) -> tuple[int, float] | None:
    """(p, ms) for the highest whole percentile p that has at least ten
    samples beyond it; None when fewer than 21 samples."""
    p = int(100 - 1000 / len(seconds)) if seconds else 0
    if p < 50:
        return None
    return p, 1000 * statistics.quantiles(seconds, n=100)[p - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_reference_speed(metrics: dict, scale: float) -> dict:
    """Times multiplied, rates divided, by the calibration scale."""
    factor = {"s": scale, "ms": scale, "gates/s": 1 / scale}
    return {name: metric(m["value"] * factor.get(m["unit"], 1), m["unit"])
            for name, m in metrics.items()}


def end_to_end(bench: Bench, setup_s: float) -> dict:
    compile_s = bench.spans.per_case("compile")
    verify_s = bench.spans.per_case("verify")
    gates = sum(len(c.circuit.gates) for c in bench.cases if c.label in compile_s)
    ratios = [r for rs in bench.ratios.values() for r in rs]
    return {
        "setup_s": metric(setup_s, "s"),
        "compile_gates_per_s": metric(gates / sum(compile_s.values()), "gates/s"),
        "compile_ms_p50": metric(1000 * statistics.median(compile_s.values()), "ms"),
        "verify_ms_p50": metric(1000 * statistics.median(verify_s.values()), "ms"),
        "verified_share": metric(bench.verified / bench.checked, "ratio"),
        "cost_ratio": metric(statistics.fmean(ratios), "ratio"),
        "cost_vs_baseline": metric(bench.cost_baseline / bench.cost_pipeline, "ratio"),
        "swaps": metric(bench.swaps, "count"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def per_layer(bench: Bench, setup_spans: list[Spans]) -> dict:
    s, c = bench.spans, bench.counts

    def setup_total(name):
        return statistics.median(sp.sum(name) for sp in setup_spans)

    def self_time(outer, children):
        return s.total(outer) - sum(s.total(name) for name in children)

    out = {
        "bench.gen_s": metric(setup_total("bench.gen"), "s"),
        "coupling.build_s": metric(setup_total("coupling.build"), "s"),
        "qasm.parse_s": metric(s.total("qasm.parse"), "s"),
        "qasm.emit_s": metric(s.total("qasm.emit"), "s"),
        "qasm.bytes_in": metric(sum(len(k.qasm.encode()) for k in bench.cases), "bytes"),
        "pipeline.transpile_s": metric(s.total("pipeline.transpile"), "s"),
        "pipeline.overhead_s": metric(self_time("pipeline.transpile", (
            "global_adjust", "ir.apply_mapping", "routing.route", "routing.fix",
            "merge")), "s"),
        "pipeline.baseline_s": metric(s.total("pipeline.baseline"), "s"),
        "global_adjust.s": metric(s.total("global_adjust"), "s"),
        "ir.apply_mapping_s": metric(s.total("ir.apply_mapping"), "s"),
        "global_adjust.illegal_in": metric(c["global_adjust.illegal_in"], "count"),
        "global_adjust.illegal_out": metric(c["global_adjust.illegal_out"], "count"),
        "global_adjust.legalized_ratio": metric(
            (c["global_adjust.illegal_in"] - c["global_adjust.illegal_out"])
            / max(c["global_adjust.illegal_in"], 1), "ratio"),
        "routing.route_s": metric(s.total("routing.route"), "s"),
        "routing.swaps": metric(c["routing.swaps"], "count"),
        "routing.search_cost": metric(c["routing.search_cost"], "count"),
        "routing.fix_s": metric(s.total("routing.fix"), "s"),
        "routing.reversed": metric(c["routing.reversed"], "count"),
        "merge.s": metric(s.total("merge"), "s"),
        "verify.s": metric(s.total("verify"), "s"),
        "sim.calls": metric(c["sim.calls"], "count"),
        "trace.overhead_s": metric(self_time("compile", (
            "qasm.parse", "pipeline.transpile", "qasm.emit")), "s"),
    }
    for stage in STAGES:
        for what in ("cnots_out", "singles_out", "errors"):
            out[f"{stage}.{what}"] = metric(c[f"{stage}.{what}"], "count")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    calibration = Calibration()
    setup_times, setup_spans = [], []
    for _ in range(SETUP_REPEATS):
        calibration.tick()
        spans = Spans()
        start = time.perf_counter()
        cases = workloads.build(workload, args.seed, spans if args.trace else null_span)
        setup_times.append(time.perf_counter() - start)
        setup_spans.append(spans)
    setup_s = IMPORT_S + statistics.median(setup_times)

    bench = Bench(workload, cases, bool(args.trace))
    bench.attempted += 1
    bench.failures += [f"width-free check {f}" for f in certify.self_check()]

    deadline = time.perf_counter() + args.seconds
    passes = 0
    done = False
    while not done:
        for case in cases:
            if passes and time.perf_counter() >= deadline:
                done = True
                break
            calibration.tick()
            bench.run_case(case, first=not passes)
        else:
            passes += 1
            done = time.perf_counter() >= deadline

    measured = per_layer(bench, setup_spans) if args.trace else end_to_end(bench, setup_s)
    print(json.dumps({
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "circuits": len(cases), "full_passes": passes,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "import_s": IMPORT_S, "setup_runs_s": setup_times,
        "compile_ms_tail": tail_ms(list(bench.spans.per_case("compile").values())),
        "cost_ratio_by_layout": {k: statistics.fmean(v) for k, v in bench.ratios.items()},
        "calibration_runs": len(calibration.samples),
        "calibration_median_s": statistics.median(calibration.samples),
        "scale": calibration.scale,
        "unscaled": {name: m["value"] for name, m in measured.items()},
        "failures": bench.failures[:20],
    }))
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures),
                      "metrics": at_reference_speed(measured, calibration.scale)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
