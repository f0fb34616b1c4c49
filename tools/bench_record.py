"""Run perfbench repeatedly and record each metric's median and spread.

    python3 tools/bench_record.py --label a0b6802 --runs 5 --seconds 30

Runs ``perfbench/run.py`` of a checkout (this one by default) as a
subprocess, ``--runs`` times per workload of its ``BENCHMARK.json``, the
workloads taking turns.  perfbench runs as it is, on its own default seed,
with ``--seconds`` passed through when given.  From the detail line and the
result line of every run it writes ``BENCH_<label>.json`` at the root of
this repository: the checkout's git sha and whether its tree had
uncommitted changes, the Python and numpy versions, CPU count and seed
perfbench reports, and per workload each end-to-end metric's median,
quartiles and per-run values, the per-layout cost ratios, the failure
counts and each run's calibration scale.  Two such files, one per commit,
show a change's delta; a claimed speed-up still needs alternating runs of
the two commits.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RUNS = 5

#: ``run(workload, seconds)`` -> one perfbench run's standard output, run for
#: ``seconds`` or, when that is ``None``, for perfbench's own default
Runner = Callable[[str, float | None], str]


def perfbench_runner(checkout: Path) -> Runner:
    """A runner that starts ``checkout``'s perfbench once per call and fails
    loudly when the run exits non-zero."""
    script = checkout / "perfbench" / "run.py"

    def run(workload: str, seconds: float | None) -> str:
        timing = [] if seconds is None else ["--seconds", str(seconds)]
        proc = subprocess.run([sys.executable, str(script), "--workload", workload, *timing],
                              capture_output=True, text=True, check=False)
        if proc.returncode:
            raise RuntimeError(f"{script} --workload {workload} exited "
                               f"{proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    return run


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The detail record and the result of one run: its last two lines."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected a detail line and a result line, got {stdout!r}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of one metric's runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarize(outputs: list[str]) -> dict:
    """One workload's record from the standard output of each of its runs."""
    parsed = [parse_run(out) for out in outputs]
    details = [d for d, _ in parsed]
    results = [r for _, r in parsed]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = {"unit": first["unit"],
                         **spread([r["metrics"][name]["value"] for r in results])}
    layouts = details[0]["cost_ratio_by_layout"]
    return {
        "metrics": metrics,
        "cost_ratio_by_layout": {layout: statistics.median(
            d["cost_ratio_by_layout"][layout] for d in details) for layout in layouts},
        "scales": [d["scale"] for d in details],
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
    }


def record(workloads: list[str], runs: int, seconds: float | None, run: Runner) -> dict:
    """Run every workload ``runs`` times, the workloads taking turns, and
    summarize each one's runs."""
    outputs: dict[str, list[str]] = {w: [] for w in workloads}
    for _ in range(runs):
        for workload in workloads:
            outputs[workload].append(run(workload, seconds))
    first, _ = parse_run(outputs[workloads[0]][0])
    return {**{key: first[key] for key in ("python", "numpy", "nproc", "seed")},
            "seconds": seconds, "runs": runs,
            "workloads": {w: summarize(out) for w, out in outputs.items()}}


def git_state(checkout: Path) -> dict:
    """The checkout's HEAD sha and whether its tree differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose perfbench runs (default: this one)")
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--seconds", type=float,
                        help="each run's length (default: perfbench's own)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkout = args.checkout.resolve()
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    state = git_state(checkout)
    out = ROOT / f"BENCH_{args.label}.json"
    data = {"label": args.label, **state,
            **record(workloads, args.runs, args.seconds, perfbench_runner(checkout))}
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
