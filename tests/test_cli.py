"""CLI surface: subcommands, exit codes, file formats."""
import json

import pytest

import qlayout as ql
from qlayout.cli import main


CHAIN5_QASM = """OPENQASM 2.0;
qreg q[5];
creg c[5];
cx q[1],q[4];
"""


BELL_QASM = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nu1(0.3) q[1];\n"
# BELL_QASM with its two qubits exchanged
BELL_SWAPPED_QASM = "OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1],q[0];\nu1(0.3) q[0];\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "in.qasm").write_text(CHAIN5_QASM)
    (tmp_path / "chain5.json").write_text(
        '{"n": 5, "directed": true, "edges": [[0,1],[1,2],[2,3],[3,4]]}')
    return tmp_path


class TestTranspileCommand:
    def test_relabeling_only_run(self, workdir, capsys):
        out = workdir / "out.qasm"
        report = workdir / "report.json"
        code = main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", str(workdir / "chain5.json"),
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        rewritten = ql.parse_qasm(out.read_text())
        assert rewritten.gates == (ql.cx(3, 4),)
        data = json.loads(report.read_text())
        assert data["final_mapping"] == {"1": 3, "3": 1}
        assert data["cost_after"] == data["cost_before"]  # no gate added
        assert data["swaps_emitted"] == 0

    def test_layout_shorthand_and_merge(self, workdir):
        src = workdir / "legal.qasm"
        src.write_text("OPENQASM 2.0;\nqreg q[3];\nu1(0.5) q[0];\nu1(0.25) q[0];\n")
        out = workdir / "m.qasm"
        assert main(["transpile", "--qasm", str(src),
                     "--coupling", "layout:linear:3", "--out", str(out)]) == 0
        merged = ql.parse_qasm(out.read_text())
        assert ql.gate_counts(merged) == (0, 1)

    def test_parse_error_exits_1(self, workdir):
        bad = workdir / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n")
        assert main(["transpile", "--qasm", str(bad),
                     "--coupling", "layout:linear:3",
                     "--out", str(workdir / "x.qasm")]) == 1

    def test_register_wider_than_layout_exits_1(self, workdir):
        wide = workdir / "wide.qasm"
        wide.write_text("OPENQASM 2.0;\nqreg q[8];\nh q[7];\n")
        assert main(["transpile", "--qasm", str(wide),
                     "--coupling", "layout:linear:5",
                     "--out", str(workdir / "x.qasm")]) == 1

    def test_disconnected_layout_exits_2(self, workdir):
        graph = workdir / "broken.json"
        graph.write_text('{"n": 4, "directed": false, "edges": [[0,1],[2,3]]}')
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", str(graph),
                     "--out", str(workdir / "x.qasm")]) == 1  # 5q circuit on 4q layout
        ok = workdir / "small.qasm"
        ok.write_text("OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[3];\n")
        assert main(["transpile", "--qasm", str(ok),
                     "--coupling", str(graph),
                     "--out", str(workdir / "x.qasm")]) == 2

    def test_lookahead_above_bound_exits_1(self, workdir, capsys):
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", "layout:linear:5",
                     "--out", str(workdir / "x.qasm"), "--lookahead", "40"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "12" in err
        assert not (workdir / "x.qasm").exists()

    @pytest.mark.parametrize("limit", ["-3", "-1"])
    def test_negative_global_limit_exits_1(self, workdir, capsys, limit):
        # a negative node cap used to skip the relabel search silently
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", "layout:linear:5",
                     "--out", str(workdir / "x.qasm"), "--global-limit", limit]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_nodes" in err
        assert not (workdir / "x.qasm").exists()

    def test_zero_global_limit_is_accepted(self, workdir):
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", "layout:linear:5",
                     "--out", str(workdir / "x.qasm"), "--global-limit", "0"]) == 0

    @pytest.mark.parametrize("angle", ["(" * 400 + "1" + ")" * 400, "-" * 5000 + "1"])
    def test_deeply_nested_angle_exits_1(self, workdir, capsys, angle):
        deep = workdir / "deep.qasm"
        deep.write_text(f"OPENQASM 2.0;\nqreg q[2];\nu1({angle}) q[0];\n")
        assert main(["transpile", "--qasm", str(deep),
                     "--coupling", "layout:linear:3",
                     "--out", str(workdir / "x.qasm")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3, column ") and "nested deeper" in err

    def test_baseline_mode(self, workdir):
        out = workdir / "base.qasm"
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", "layout:linear:5", "--out", str(out),
                     "--baseline", "naive"]) == 0
        base = ql.parse_qasm(out.read_text())
        assert ql.equivalent(ql.parse_qasm(CHAIN5_QASM), base, tol=1e-9)


class TestVerifyCommand:
    def test_identical_files(self, workdir, capsys):
        assert main(["verify", "--original", str(workdir / "in.qasm"),
                     "--transpiled", str(workdir / "in.qasm")]) == 0
        out = capsys.readouterr().out
        assert "fidelity: 1.0" in out

    def test_transpile_output_verifies_with_report(self, workdir):
        out, report = workdir / "out.qasm", workdir / "report.json"
        main(["transpile", "--qasm", str(workdir / "in.qasm"),
              "--coupling", str(workdir / "chain5.json"),
              "--out", str(out), "--report", str(report)])
        assert main(["verify", "--original", str(workdir / "in.qasm"),
                     "--transpiled", str(out),
                     "--mapping", str(report), "--tol", "1e-6"]) == 0

    def test_corrupted_angle_exits_1(self, workdir):
        a = workdir / "a.qasm"
        b = workdir / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[2];\nu1(0.5) q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\nu1(0.6) q[0];\n")
        assert main(["verify", "--original", str(a), "--transpiled", str(b)]) == 1

    def test_bare_mapping_object(self, workdir):
        a = workdir / "a.qasm"
        b = workdir / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[2];\nu1(0.5) q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\nu1(0.5) q[1];\n")
        m = workdir / "map.json"
        m.write_text('{"0": 1, "1": 0}')
        # a pure relabeling with no gates moving states: probes only agree
        # from symmetric inputs, so the bare final map cannot make this pass;
        # pass the same map as initial too via a report-shaped file
        r = workdir / "rep.json"
        r.write_text('{"final_mapping": {"0": 1, "1": 0}, "initial_mapping": {"0": 1, "1": 0}}')
        assert main(["verify", "--original", str(a), "--transpiled", str(b),
                     "--mapping", str(r)]) == 0

    @pytest.mark.parametrize("report", [
        '{"final_mapping": {"0": 5, "5": 0}, "initial_mapping": {"0": 1, "1": 0}}',
        '{"final_mapping": {"0": 1, "1": 0}, "initial_mapping": {"0": 5, "5": 0}}',
    ])
    def test_mapping_outside_the_register_exits_2(self, workdir, capsys, report):
        a, b, r = workdir / "a.qasm", workdir / "b.qasm", workdir / "rep.json"
        a.write_text(BELL_QASM)
        b.write_text(BELL_SWAPPED_QASM)
        args = ["verify", "--original", str(a), "--transpiled", str(b), "--mapping", str(r)]
        r.write_text('{"final_mapping": {"0": 1, "1": 0}, "initial_mapping": {"0": 1, "1": 0}}')
        assert main(args) == 0  # the exchange at both ends verifies
        r.write_text(report)
        assert main(args) == 2
        assert "outside 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"0": [1]}', "[0, 1]", '{"final_mapping": 3}'])
    def test_malformed_mapping_exits_2(self, workdir, capsys, text):
        m = workdir / "map.json"
        m.write_text(text)
        assert main(["verify", "--original", str(workdir / "in.qasm"),
                     "--transpiled", str(workdir / "in.qasm"), "--mapping", str(m)]) == 2
        assert "JSON object of integers" in capsys.readouterr().err

    def test_missing_file_exits_2(self, workdir):
        assert main(["verify", "--original", str(workdir / "nope.qasm"),
                     "--transpiled", str(workdir / "in.qasm")]) == 2

    @pytest.mark.parametrize("tol", ["2", "1", "inf", "nan", "-0.1"])
    def test_tol_outside_the_unit_interval_exits_2(self, workdir, capsys, tol):
        # a CNOT against an H: with tol >= 1 any fidelity would read as equivalent
        a, b = workdir / "a.qasm", workdir / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
        assert main(["verify", "--original", str(a), "--transpiled", str(b),
                     "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tol" in captured.err and "equivalent" not in captured.out


class TestBenchCommand:
    def test_small_grid(self, workdir, capsys):
        csv_path = workdir / "bench.csv"
        code = main(["bench", "--layouts", "central", "--qubits", "3..4",
                     "--depths", "1..2", "--trials", "2", "--seed", "7",
                     "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 records
        agg = json.loads((workdir / "bench.json").read_text())
        assert agg["records_verified"] == 8
        assert agg["seed"] == 7

    def test_fixed_times_reproducible(self, workdir):
        args = ["bench", "--layouts", "linear", "--qubits", "3..3",
                "--depths", "1..2", "--trials", "2", "--seed", "3",
                "--fixed-times"]
        a, b = workdir / "a.csv", workdir / "b.csv"
        assert main(args + ["--csv", str(a)]) == 0
        assert main(args + ["--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--layouts", "linear", "--qubits", "4..3",
                  "--depths", "1..1", "--csv", str(workdir / "x.csv")])
        assert err.value.code == 2

    @pytest.mark.parametrize("tol", ["2", "inf"])
    def test_tol_outside_the_unit_interval_exits_2(self, workdir, capsys, tol):
        csv_path = workdir / "x.csv"
        assert main(["bench", "--layouts", "linear", "--qubits", "3..3",
                     "--depths", "1..1", "--trials", "1", "--tol", tol,
                     "--csv", str(csv_path)]) == 2
        assert "tol" in capsys.readouterr().err and not csv_path.exists()

    def test_unknown_layout_exits_2(self, workdir):
        assert main(["bench", "--layouts", "mesh", "--qubits", "3..3",
                     "--depths", "1..1", "--trials", "1", "--seed", "0",
                     "--csv", str(workdir / "x.csv")]) == 2
