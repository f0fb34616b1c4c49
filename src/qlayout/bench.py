"""Benchmark harness: random layered circuits, cost accounting, reports.

Circuits are stacks of two-qubit blocks: per layer, a seeded random
maximal pairing of the register, each pair filled with the universal
3-CNOT template (four slices of random-angle u3 pairs interleaved with
three CNOTs), the odd qubit out getting a lone random u3.  A record's
prices are its two transpile results' ``cost_before`` and ``cost_after``,
read from their stage logs: the ``ir.cost`` of the input and of each
output, without another walk over the gates.

The draw contract: from ``np.random.default_rng(seed)``, each layer takes
one ``permutation(n)``, then one ``uniform(0, 2*pi)`` block of three angles
per u3, the rows in gate order (each pair's eight u3s, pair after pair,
then the odd qubit's).  PCG64 yields the same doubles drawn in one block or
three at a time, so this is the order a per-gate draw would take.
Changing it changes every seeded workload, ``tools/fingerprint.expected``
and ``tools/acceptance_grid.sha256``.

``run_benchmark`` sweeps layouts x qubit counts x layer depths, transpiles
every circuit with both the full pipeline and the swap-there-and-back
baseline, verifies both against the original on the statevector oracle,
and aggregates baseline/pipeline ratios per cell and per layout.  Records
that fail verification are flagged and kept out of the aggregates.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .coupling import make_layout
from .ir import Circuit, Gate, GateKind, _int_arg
from .pipeline import PipelineConfig, transpile, transpile_baseline
from .routing import DEFAULT_LOOKAHEAD
from .sim import DEFAULT_TOL, _check_tol, equivalent


def gen_random_circuit(num_qubits: int, su4_depth: int, seed: int) -> Circuit:
    """Deterministic random layered circuit on ``num_qubits`` qubits.

    Each of the ``su4_depth`` layers pairs the register at random; a pair
    contributes 3 CNOTs and 8 u3 gates, an unpaired qubit one u3.  The
    draws follow the contract in the module docstring.
    """
    n = _int_arg(num_qubits, "num_qubits")
    depth = _int_arg(su4_depth, "su4_depth")
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if depth < 1:
        raise ValueError("need at least 1 layer")
    rng = np.random.default_rng(seed)
    # Valid by construction, so built unchecked: the qubits are distinct
    # Python ints from a permutation of range(n), the angles finite floats.
    make, U3, CNOT = Gate._unchecked, GateKind.U3, GateKind.CNOT
    gates: list[Gate] = []
    for _ in range(depth):
        order = rng.permutation(n).tolist()
        angles = map(tuple, rng.uniform(0.0, 2 * np.pi,
                                        size=(8 * (n // 2) + n % 2, 3)).tolist())
        for a, b in zip(order[0::2], order[1::2]):
            qa, qb = (a,), (b,)
            ab = make(CNOT, (a, b))
            for cnot in (ab, make(CNOT, (b, a)), ab):
                gates += (make(U3, qa, next(angles)), make(U3, qb, next(angles)), cnot)
            gates += (make(U3, qa, next(angles)), make(U3, qb, next(angles)))
        if n % 2:
            gates.append(make(U3, (order[-1],), next(angles)))
    return Circuit._unchecked(n, n, tuple(gates))


@dataclass(frozen=True)
class BenchRecord:
    layout: str
    n: int
    su4_depth: int
    trial: int
    seed: int
    cost_original: int
    cost_pipeline: int
    cost_baseline: int
    time_pipeline_s: float
    time_baseline_s: float
    verified: bool


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _csv_cell(value: object) -> str:
    """``true``/``false`` for a bool, ``repr`` for a float, ``str`` otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def record_seed(base_seed: int, layout_index: int, n: int, depth: int, trial: int) -> int:
    """Stable per-cell seed derived from the sweep coordinates."""
    ss = np.random.SeedSequence(entropy=base_seed,
                                spawn_key=(layout_index, n, depth, trial))
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class BenchResult:
    records: tuple[BenchRecord, ...]
    aggregates: dict

    @property
    def failures(self) -> list[BenchRecord]:
        return [r for r in self.records if not r.verified]


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    rows = (",".join(_csv_cell(getattr(r, f.name)) for f in fields(r)) for r in records)
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def aggregate(records: Sequence[BenchRecord]) -> dict:
    """Cell ratios and per-layout means over the verified records.

    Per (n, depth) cell: total baseline cost / total pipeline cost, and the
    same ratio for times.  Per layout: the mean of per-circuit cost ratios
    against the original (one mean for the pipeline, one for the baseline),
    so small and large circuits weigh equally, plus the mean
    baseline/pipeline time ratio.  Time ratios are null when timing was
    disabled.
    """
    ok = [r for r in records if r.verified]
    timed = all(r.time_pipeline_s > 0 for r in ok) if ok else False
    grid_cost: dict[str, dict[str, float]] = {}
    grid_eff: dict[str, dict[str, float | None]] = {}
    cells: dict[tuple[int, int], list[BenchRecord]] = {}
    for r in ok:
        cells.setdefault((r.n, r.su4_depth), []).append(r)
    for (n, d), rs in sorted(cells.items()):
        pipeline_total = sum(r.cost_pipeline for r in rs)
        baseline_total = sum(r.cost_baseline for r in rs)
        grid_cost.setdefault(str(n), {})[str(d)] = baseline_total / pipeline_total
        eff = (sum(r.time_baseline_s for r in rs) / sum(r.time_pipeline_s for r in rs)
               if timed else None)
        grid_eff.setdefault(str(n), {})[str(d)] = eff

    per_layout: dict[str, dict[str, float | None]] = {}
    layouts: dict[str, list[BenchRecord]] = {}
    for r in ok:
        layouts.setdefault(r.layout, []).append(r)
    for layout, rs in sorted(layouts.items()):
        per_layout[layout] = {
            "cost_ratio_pipeline": sum(r.cost_pipeline / r.cost_original for r in rs) / len(rs),
            "cost_ratio_baseline": sum(r.cost_baseline / r.cost_original for r in rs) / len(rs),
            "efficiency": (sum(r.time_baseline_s / r.time_pipeline_s for r in rs) / len(rs)
                           if timed else None),
        }
    return {
        "records_total": len(records),
        "records_verified": len(ok),
        "grid": {"cost": grid_cost, "efficiency": grid_eff},
        "per_layout": per_layout,
    }


def run_benchmark(layouts: Sequence[str], qubits: Sequence[int],
                  depths: Sequence[int], trials: int, seed: int, *,
                  lookahead: int = DEFAULT_LOOKAHEAD, tol: float = DEFAULT_TOL,
                  record_times: bool = True) -> BenchResult:
    """Sweep the grid; transpile, verify and account every circuit.

    Identical arguments produce identical records (modulo the time fields,
    which are zeroed when ``record_times`` is off).
    """
    if trials < 1 or not layouts or not qubits or not depths:
        raise ValueError("empty benchmark grid")
    _check_tol(tol)
    records: list[BenchRecord] = []
    for li, layout in enumerate(layouts):
        for n in qubits:
            graph = make_layout(layout, n)
            config = PipelineConfig(lookahead=lookahead)
            for d in depths:
                for trial in range(trials):
                    circ_seed = record_seed(seed, li, n, d, trial)
                    circuit = gen_random_circuit(n, d, circ_seed)

                    t0 = time.perf_counter()
                    ours = transpile(circuit, graph, config)
                    t_pipeline = time.perf_counter() - t0

                    t0 = time.perf_counter()
                    base = transpile_baseline(circuit, graph)
                    t_baseline = time.perf_counter() - t0

                    ok = equivalent(circuit, ours.circuit, ours.final_mapping,
                                    tol, initial_map=ours.initial_mapping,
                                    seed=circ_seed)
                    ok = ok and equivalent(circuit, base.circuit, seed=circ_seed,
                                           tol=tol)
                    records.append(BenchRecord(
                        layout=str(layout), n=n, su4_depth=d, trial=trial,
                        seed=circ_seed,
                        cost_original=ours.cost_before,
                        cost_pipeline=ours.cost_after,
                        cost_baseline=base.cost_after,
                        time_pipeline_s=t_pipeline if record_times else 0.0,
                        time_baseline_s=t_baseline if record_times else 0.0,
                        verified=ok,
                    ))
    return BenchResult(tuple(records), aggregate(records))


def result_to_json(result: BenchResult, *, seed: int | None = None) -> str:
    payload = dict(result.aggregates)
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
