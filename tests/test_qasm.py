"""Parser/emitter contract: grammar subset, errors, exact round trips."""
import math
import random

import pytest
from hypothesis import given, settings

import qlayout as ql
from qlayout.qasm import MAX_NESTING, QasmError

from conftest import circuits, random_unitary_circuit


HEADER = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"


class TestParse:
    def test_basic_program(self):
        c = ql.parse_qasm(HEADER + "u1(0.5) q[0];\ncx q[0],q[1];\n")
        assert c.num_qubits == 2 and c.num_clbits == 2
        assert c.gates == (ql.u1(0.5, 0), ql.cx(0, 1))

    def test_empty_program(self):
        c = ql.parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[1];")
        assert c.num_qubits == 1 and len(c.gates) == 0

    def test_include_accepted_and_ignored(self):
        c = ql.parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];')
        assert c.gates == (ql.h(0),)

    def test_h_kept_as_its_own_kind(self):
        c = ql.parse_qasm(HEADER + "h q[1];")
        assert c.gates[0].kind is ql.GateKind.H

    def test_measure_and_barrier(self):
        c = ql.parse_qasm(HEADER + "measure q[0] -> c[1];\nbarrier q[0],q[1];\nbarrier q;")
        assert c.gates[0] == ql.measure(0, 1)
        assert c.gates[1] == ql.barrier(0, 1)
        assert c.gates[2] == ql.barrier(0, 1)  # bare register name = all qubits

    @pytest.mark.parametrize("text,value", [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("3*pi/4", 3 * math.pi / 4),
        ("-pi", -math.pi),
        ("2*pi", 2 * math.pi),
        ("1.5e-3", 1.5e-3),
        ("0.25", 0.25),
        ("(pi+1)/2", (math.pi + 1) / 2),
    ])
    def test_angle_expressions(self, text, value):
        c = ql.parse_qasm(HEADER + f"u1({text}) q[0];")
        assert c.gates[0].params[0] == pytest.approx(value, abs=0, rel=1e-15)

    @pytest.mark.parametrize("gate,column", [
        ("u1(1e999)", 4),
        ("u1(1e308*10)", 4),
        ("u2(1e999,1e999)", 4),
        ("u3(0,pi,-0*1e999)", 9),
        ("u3(1,2,1e999/1e999)", 8),
    ])
    def test_non_finite_angle_carries_position(self, gate, column):
        # the error names the first non-finite angle's first token
        with pytest.raises(QasmError, match="non-finite angle in u[123] gate") as err:
            ql.parse_qasm(HEADER + f"{gate} q[0];")
        assert (err.value.line, err.value.column) == (4, column)

    def test_unsupported_gate_rejected(self):
        with pytest.raises(QasmError, match="unsupported gate 'ccx'"):
            ql.parse_qasm(HEADER + "ccx q[0],q[1],q[0];")

    def test_out_of_range_index(self):
        with pytest.raises(QasmError, match="out of range"):
            ql.parse_qasm(HEADER + "h q[2];")
        with pytest.raises(QasmError, match="out of range"):
            ql.parse_qasm(HEADER + "measure q[0] -> c[5];")

    def test_syntax_error_carries_position(self):
        with pytest.raises(QasmError) as err:
            ql.parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]\ncx q[0],q[1];")
        assert err.value.line == 4  # the missing ';' is noticed at 'cx'

    def test_unknown_register(self):
        with pytest.raises(QasmError, match="unknown quantum register"):
            ql.parse_qasm("OPENQASM 2.0; qreg q[2]; h r[0];")

    def test_duplicate_qreg_rejected(self):
        with pytest.raises(QasmError, match="one qreg"):
            ql.parse_qasm("OPENQASM 2.0; qreg q[2]; qreg r[2];")

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmError, match="qreg"):
            ql.parse_qasm("OPENQASM 2.0; creg c[2];")

    def test_wrong_version_rejected(self):
        with pytest.raises(QasmError, match="version"):
            ql.parse_qasm("OPENQASM 3.0; qreg q[1];")

    def test_cx_same_qubit_rejected(self):
        with pytest.raises(QasmError, match="differ"):
            ql.parse_qasm(HEADER + "cx q[0],q[0];")

    @pytest.mark.parametrize("text,message,position", [
        (HEADER + "h q[1e3];", "register index must be an integer", (4, 5)),
        (HEADER + "measure q[0] -> c[2e0];", "register index must be an integer", (4, 19)),
        ("OPENQASM 2.0;\nqreg q[1e3];", "register size must be an integer", (2, 8)),
        ("OPENQASM 2.0;\nqreg q[2];\ncreg c[5E-1];", "register size must be an integer",
         (3, 8)),
        (HEADER + "qreg r[1e3];", "only one qreg", (4, 1)),  # the statement's first error
    ])
    def test_exponent_in_index_or_size_carries_position(self, text, message, position):
        with pytest.raises(QasmError, match=message) as err:
            ql.parse_qasm(text)
        assert (err.value.line, err.value.column) == position

    def test_repeated_barrier_qubit_carries_position(self):
        with pytest.raises(QasmError, match=r"repeated qubit q\[0\] in barrier") as err:
            ql.parse_qasm(HEADER + "barrier q[0],q[1],q[0];")
        assert (err.value.line, err.value.column) == (4, 19)

    def test_bare_barrier_on_empty_register_rejected(self):
        with pytest.raises(ValueError, match="^barrier needs a nonempty set of distinct qubits$"):
            ql.parse_qasm("OPENQASM 2.0;\nqreg q[0];\nbarrier q;")
        assert ql.parse_qasm("OPENQASM 2.0;\nqreg q[0];") == ql.Circuit(0)

    @pytest.mark.parametrize("angle,column", [
        ("(" * 400 + "1" + ")" * 400, 4 + MAX_NESTING),
        ("-" * 5000 + "1", 4 + MAX_NESTING),
        ("+-" * 40 + "(1)", 4 + MAX_NESTING),
    ])
    def test_nesting_beyond_the_bound_carries_position(self, angle, column):
        with pytest.raises(QasmError, match="nested deeper than 64 levels") as err:
            ql.parse_qasm(HEADER + f"u1({angle}) q[0];")
        assert (err.value.line, err.value.column) == (4, column)

    def test_nesting_at_the_bound_is_read(self):
        angle = "-(" * (MAX_NESTING // 2) + "pi" + ")" * (MAX_NESTING // 2)
        c = ql.parse_qasm(HEADER + f"u1({angle}) q[0];")
        assert c.gates[0].params == (math.pi,)


class TestEmit:
    def test_cnot_text(self):
        text = ql.emit_qasm(ql.Circuit(2, 0, (ql.cx(1, 0),)))
        assert "cx q[1],q[0];" in text

    def test_empty_circuit_is_header_only(self):
        text = ql.emit_qasm(ql.Circuit(3, 2))
        lines = [l for l in text.strip().splitlines()]
        assert lines == ['OPENQASM 2.0;', 'include "qelib1.inc";',
                         'qreg q[3];', 'creg c[2];']

    def test_angles_survive_exactly(self):
        c = ql.Circuit(1, 0, (ql.u3(0.1 + 0.2, math.pi / 3, -1.7e-12, 0),))
        back = ql.parse_qasm(ql.emit_qasm(c))
        assert back.gates[0].params == c.gates[0].params  # bit-exact


class TestRoundTrip:
    @given(c=circuits())
    @settings(max_examples=150)
    def test_parse_emit_identity(self, c):
        assert ql.parse_qasm(ql.emit_qasm(c)) == c

    def test_thousand_random_circuits(self):
        # independent generator: plain RNG over the whole gate set
        import numpy as np
        rng = np.random.default_rng(20240811)
        for trial in range(1000):
            n = int(rng.integers(2, 7))
            c = random_unitary_circuit(rng, n, int(rng.integers(0, 20)))
            if trial % 3 == 0:  # sprinkle measures and barriers
                extra = ql.Circuit(n, n, c.gates + (ql.measure(0, n - 1), ql.barrier(0)))
                c = extra
            assert ql.parse_qasm(ql.emit_qasm(c)) == c
