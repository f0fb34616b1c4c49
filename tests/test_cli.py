"""CLI surface: subcommands, exit codes, file formats."""
import json
import math
from pathlib import Path

import pytest

import qlayout as ql
from qlayout import cli, sim
from qlayout.cli import build_parser, main
from qlayout.ir import MAX_REGISTER
from qlayout.routing import LegalityError
from qlayout.sim import DEFAULT_TOL


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

    def test_graph_file_that_repeats_a_key_exits_1(self, workdir, capsys):
        # json.loads alone would build a 5-vertex graph from the last "n"
        repeated = workdir / "repeated.json"
        repeated.write_text('{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "n": 6}')
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", str(repeated), "--out", str(workdir / "x.qasm")]) == 1
        assert "repeats a key" in capsys.readouterr().err
        assert not (workdir / "x.qasm").exists()

    def test_graph_file_with_an_unknown_key_exits_1(self, workdir, capsys):
        misspelled = workdir / "misspelled.json"
        misspelled.write_text('{"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4]], "directd": true}')
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", str(misspelled), "--out", str(workdir / "x.qasm")]) == 1
        assert "unknown key(s) ['directd']" in capsys.readouterr().err
        assert not (workdir / "x.qasm").exists()

    def test_graph_wider_than_a_register_exits_1(self, workdir, capsys):
        wide = workdir / "wide.json"
        wide.write_text(f'{{"n": {MAX_REGISTER + 1}, "edges": [[0, 1]]}}')
        for coupling in (str(wide), f"layout:linear:{MAX_REGISTER + 1}"):
            assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                         "--coupling", coupling, "--out", str(workdir / "x.qasm")]) == 1
            assert "MAX_REGISTER" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1_0", " \u0663", "+3"])
    def test_size_not_in_decimal_digits_exits_1(self, workdir, capsys, n):
        # int() would read these as 10, 3 and 3
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", f"layout:linear:{n}", "--out", str(workdir / "x.qasm")]) == 1
        assert "N in decimal digits" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -3])
    def test_graph_without_vertices_exits_1(self, workdir, capsys, n):
        empty = workdir / "empty.json"
        empty.write_text(f'{{"n": {n}, "edges": []}}')
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", str(empty), "--out", str(workdir / "x.qasm")]) == 1
        assert f"1 to {MAX_REGISTER} qubits (MAX_REGISTER), got {n}" in capsys.readouterr().err

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

    def test_disconnected_layout_exits_4(self, workdir):
        graph = workdir / "broken.json"
        graph.write_text('{"n": 4, "directed": false, "edges": [[0,1],[2,3]]}')
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", str(graph),
                     "--out", str(workdir / "x.qasm")]) == 1  # 5q circuit on 4q layout
        ok = workdir / "small.qasm"
        ok.write_text("OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[3];\n")
        assert main(["transpile", "--qasm", str(ok),
                     "--coupling", str(graph),
                     "--out", str(workdir / "x.qasm")]) == 4

    def test_disconnected_layout_and_usage_error_exit_differently(self, workdir, capsys):
        # one input, a 3-vertex graph with one edge: a bad flag is argparse's
        # exit 2, the disconnected layout is not
        (workdir / "t.qasm").write_text("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[2];\n")
        graph = workdir / "split.json"
        graph.write_text('{"n": 3, "edges": [[0,1]]}')
        argv = ["transpile", "--qasm", str(workdir / "t.qasm"), "--coupling", str(graph),
                "--out", str(workdir / "x.qasm")]
        with pytest.raises(SystemExit) as usage:
            main(argv + ["--lookahead=1_0"])
        disconnected = main(argv)
        assert (usage.value.code, disconnected) == (2, 4)
        assert "coupling graph is not connected" in capsys.readouterr().err
        assert not (workdir / "x.qasm").exists()

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

    @pytest.mark.parametrize("flag", ["--lookahead", "--global-limit"])
    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+3", " 3", "3 ", "", "-"])
    def test_integer_flag_not_in_decimal_digits_is_usage_error(self, workdir, capsys,
                                                               flag, value):
        # int() would read the first five as 10, 3, 3, 3 and 3
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--qasm", str(workdir / "in.qasm"),
                  "--coupling", "layout:linear:5",
                  "--out", str(workdir / "x.qasm"), f"{flag}={value}"])
        assert err.value.code == 2
        assert "an integer in decimal digits" in capsys.readouterr().err
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

    def test_legality_failure_exits_3(self, workdir, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise LegalityError("cx(0,4) is not an edge")
        monkeypatch.setattr(cli, "transpile", broken)
        out = workdir / "x.qasm"
        assert main(["transpile", "--qasm", str(workdir / "in.qasm"),
                     "--coupling", "layout:linear:5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "internal error: cx(0,4) is not an edge\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("text", ['{"0": [1]}', "[0, 1]", '{"final_mapping": 3}',
                                      # two spellings of qubit 0, and keys int() reads as 10 and 3
                                      '{"0": 0, "+0": 0}', '{"1_0": 10, "10": 1}',
                                      '{" \\u0663": 3}', '{"final_mapping": {"1 ": 1}}'])
    def test_malformed_mapping_exits_2(self, workdir, capsys, text):
        m = workdir / "map.json"
        m.write_text(text)
        assert main(["verify", "--original", str(workdir / "in.qasm"),
                     "--transpiled", str(workdir / "in.qasm"), "--mapping", str(m)]) == 2
        assert "JSON object of integers" in capsys.readouterr().err

    def test_mapping_that_repeats_a_key_exits_2(self, workdir, capsys):
        m = workdir / "map.json"
        m.write_text('{"0": 1, "1": 0, "0": 0}')
        assert main(["verify", "--original", str(workdir / "in.qasm"),
                     "--transpiled", str(workdir / "in.qasm"), "--mapping", str(m)]) == 2
        assert "repeats a key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+3"])
    def test_seed_not_in_decimal_digits_is_usage_error(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--original", str(workdir / "in.qasm"),
                  "--transpiled", str(workdir / "in.qasm"), f"--seed={value}"])
        assert err.value.code == 2
        assert "an integer in decimal digits" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
    def test_verdict_at_the_boundary_is_equivalents(self, workdir, monkeypatch, below):
        # a worst fidelity of exactly 1 - tol passes, the next float down fails,
        # in the library and on the command line alike
        tol = 1e-6
        worst = math.nextafter(1 - tol, 0) if below else 1 - tol
        monkeypatch.setattr(cli, "probe_fidelity", lambda *args, **kwargs: worst)
        monkeypatch.setattr(sim, "probe_fidelity", lambda *args, **kwargs: worst)
        circuit = ql.parse_qasm(CHAIN5_QASM)
        verdict = ql.equivalent(circuit, circuit, tol=tol)
        assert verdict is not below
        path = str(workdir / "in.qasm")
        code = main(["verify", "--original", path, "--transpiled", path, "--tol", repr(tol)])
        assert code == (0 if verdict else 1)

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

    def test_failed_verification_exits_1_and_lists_the_records(self, workdir, capsys,
                                                               monkeypatch):
        monkeypatch.setattr("qlayout.bench.equivalent", lambda *args, **kwargs: False)
        csv_path = workdir / "x.csv"
        assert main(["bench", "--layouts", "linear", "--qubits", "3..3",
                     "--depths", "1..1", "--trials", "2", "--seed", "5",
                     "--csv", str(csv_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "2 record(s) FAILED verification:"
        assert [line.split()[:4] for line in err[1:]] == [
            ["layout=linear", "n=3", "su4_depth=1", f"trial={trial}"] for trial in (0, 1)]
        assert csv_path.exists()  # the records are written before the exit

    def test_tol_defaults_are_the_library_default(self):
        parser = build_parser()
        verify = parser.parse_args(["verify", "--original", "a", "--transpiled", "b"])
        bench = parser.parse_args(["bench", "--layouts", "linear", "--qubits", "3",
                                   "--depths", "1", "--csv", "x.csv"])
        assert verify.tol == bench.tol == DEFAULT_TOL

    def test_single_value_is_a_one_value_range(self):
        args = build_parser().parse_args(["bench", "--layouts", "linear", "--qubits", "5",
                                          "--depths", "1..2", "--csv", "x.csv"])
        assert args.qubits == range(5, 6)

    def test_non_integer_range_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--layouts", "linear", "--qubits", "3..x",
                  "--depths", "1..1", "--csv", str(workdir / "x.csv")])
        assert err.value.code == 2
        assert "expected a..b, got '3..x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1_0..1_2", "\u0663", "3..\u0664", " 3..4", "+3..4"])
    def test_range_not_in_decimal_digits_is_usage_error(self, workdir, capsys, text):
        # int() would read these as 10..12, 3, 3..4, 3..4 and 3..4
        with pytest.raises(SystemExit) as err:
            main(["bench", "--layouts", "linear", f"--qubits={text}",
                  "--depths", "1..1", "--csv", str(workdir / "x.csv")])
        assert err.value.code == 2
        assert f"expected a..b, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--lookahead"])
    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+3"])
    def test_integer_flag_not_in_decimal_digits_is_usage_error(self, workdir, capsys,
                                                               flag, value):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--layouts", "linear", "--qubits", "3", "--depths", "1",
                  f"{flag}={value}", "--csv", str(workdir / "x.csv")])
        assert err.value.code == 2
        assert "an integer in decimal digits" in capsys.readouterr().err
        assert not (workdir / "x.csv").exists()

    def test_integer_flags_read_decimal_digits(self):
        args = build_parser().parse_args(["bench", "--layouts", "linear", "--qubits", "03..4",
                                          "--depths", "1", "--trials", "007", "--seed", "-2",
                                          "--lookahead", "3", "--csv", "x.csv"])
        assert (args.qubits, args.trials, args.seed, args.lookahead) == (range(3, 5), 7, -2, 3)

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


HANDWRITTEN = Path(__file__).with_name("data") / "handwritten.qasm"
STAR4_DIRECTED = Path(__file__).with_name("data") / "star4_directed.json"


class TestHandWrittenText:
    """A program in a spelling ``emit_qasm`` never writes: other register
    names, ``pi`` angles, comments, a bare-register barrier, measures."""

    def test_transpile_then_verify_with_the_report(self, tmp_path, capsys):
        out, report = tmp_path / "out.qasm", tmp_path / "report.json"
        assert main(["transpile", "--qasm", str(HANDWRITTEN), "--coupling", "layout:linear:4",
                     "--out", str(out), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["swaps_emitted"] > 0
        assert main(["verify", "--original", str(HANDWRITTEN), "--transpiled", str(out),
                     "--mapping", str(report)]) == 0
        assert capsys.readouterr().out.endswith("equivalent\n")

    def test_transpile_then_verify_on_a_directed_star(self, tmp_path, capsys):
        # the direction fixer and fusion read the grammar's u1/u2/h and pi spellings
        out, report = tmp_path / "out.qasm", tmp_path / "report.json"
        assert main(["transpile", "--qasm", str(HANDWRITTEN), "--coupling", str(STAR4_DIRECTED),
                     "--out", str(out), "--report", str(report)]) == 0
        stages = json.loads(report.read_text())["stages"]
        assert stages["fix_directions"]["singles"] > stages["local_adjust"]["singles"]
        assert stages["merge"]["singles"] < stages["fix_directions"]["singles"]
        assert main(["verify", "--original", str(HANDWRITTEN), "--transpiled", str(out),
                     "--mapping", str(report)]) == 0
        assert capsys.readouterr().out.endswith("equivalent\n")

    def test_baseline_reports_its_swaps(self, tmp_path, capsys):
        central = tmp_path / "central.qasm"
        central.write_text("OPENQASM 2.0;\nqreg q[5];\ncx q[1],q[2];\ncx q[2],q[3];\n")
        assert main(["transpile", "--qasm", str(central), "--coupling", "layout:central:5",
                     "--out", str(tmp_path / "out.qasm"), "--baseline", "naive"]) == 0
        assert "cost 20 -> 140, 4 swap(s)" in capsys.readouterr().out
