"""tools/bench_record.py on canned perfbench output: no benchmark is run."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def canned(workload: str, gates_per_s: float, scale: float, failed: int = 0) -> str:
    """Standard output of one perfbench run, shaped as perfbench prints it."""
    detail = {"workload": workload, "seed": 7, "trace": 0, "python": "3.11.7",
              "numpy": "2.4.6", "nproc": 2, "cost_ratio_by_layout": {"linear": 1.25},
              "scale": scale, "unscaled": {}, "failures": []}
    result = {"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "compile_gates_per_s": {"value": gates_per_s, "unit": "gates/s"},
        "swaps": {"value": 12, "unit": "count"}}}
    return json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def test_record_alternates_workloads_and_takes_median_and_iqr():
    calls = []
    speeds = iter([100.0, 5.0, 300.0, 6.0, 200.0, 7.0, 400.0, 8.0])

    def run(workload, seconds):
        calls.append((workload, seconds))
        return canned(workload, next(speeds), scale=0.9 + len(calls) / 100,
                      failed=int(len(calls) == 8))

    rec = bench_record.record(["grid", "wide"], 4, 1.5, run)
    assert calls == [("grid", 1.5), ("wide", 1.5)] * 4
    assert (rec["python"], rec["numpy"], rec["nproc"]) == ("3.11.7", "2.4.6", 2)
    assert (rec["seed"], rec["seconds"], rec["runs"]) == (7, 1.5, 4)
    grid = rec["workloads"]["grid"]
    speed = grid["metrics"]["compile_gates_per_s"]
    assert speed["unit"] == "gates/s" and speed["runs"] == [100.0, 300.0, 200.0, 400.0]
    assert speed["median"] == 250.0
    assert (speed["q1"], speed["q3"], speed["iqr"]) == (175.0, 325.0, 150.0)
    assert grid["metrics"]["swaps"]["iqr"] == 0
    assert grid["scales"] == pytest.approx([0.91, 0.93, 0.95, 0.97])
    assert grid["cost_ratio_by_layout"] == {"linear": 1.25}
    assert rec["workloads"]["wide"]["failed"] == [0, 0, 0, 1]
    assert rec["workloads"]["wide"]["metrics"]["compile_gates_per_s"]["median"] == 6.5


def test_one_run_has_no_spread():
    assert bench_record.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0,
                                          "runs": [3.0]}


def test_output_without_a_result_line_is_rejected():
    with pytest.raises(ValueError, match="result line"):
        bench_record.parse_run(canned("grid", 1.0, 1.0).splitlines()[0])


def test_runner_passes_seconds_only_when_given(tmp_path):
    # a stand-in perfbench that prints its arguments as the detail line's workload
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text("import json, sys\n"
                      "print(json.dumps({'workload': sys.argv[1:]}))\n"
                      "print(json.dumps({'metrics': {}}))\n")
    run = bench_record.perfbench_runner(tmp_path)
    assert bench_record.parse_run(run("grid", None))[0]["workload"] == ["--workload", "grid"]
    assert bench_record.parse_run(run("wide", 2.5))[0]["workload"] == [
        "--workload", "wide", "--seconds", "2.5"]
