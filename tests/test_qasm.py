"""Parser/emitter contract: grammar subset, errors, exact round trips."""
import ast
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from qlayout import qasm
from qlayout.qasm import MAX_NESTING, MAX_REGISTER, QasmError

from conftest import circuits, random_unitary_circuit
from test_qasm_errors import _mutate_once


HEADER = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"

# Every spelling of a number that the tokenizer reads and Python reads as a
# float.  A bare integer is left out: Python keeps it an int, whose -0 is 0
# and whose arithmetic is exact where a double's rounds.
NUMBER_TEXTS = st.from_regex(r"(?:[0-9]{1,3}\.[0-9]{0,3}|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,3})?"
                             r"|[0-9]{1,3}[eE][+-]?[0-9]{1,3}", fullmatch=True)


@st.composite
def angle_texts(draw, depth=0):
    """An angle over numbers, ``pi``, unary signs, parentheses and ``+ - * /``
    that nests at most ``MAX_NESTING`` deep; ``depth`` is the nesting around it."""
    form = draw(st.sampled_from("nnpu(bb" if depth < MAX_NESTING else "nnpbb"))
    if form == "n":
        return draw(NUMBER_TEXTS)
    if form == "p":
        return "pi"
    if form == "u":
        return draw(st.sampled_from("+-")) + draw(angle_texts(depth + 1))
    if form == "(":
        return "(" + draw(angle_texts(depth + 1)) + ")"
    op = draw(st.sampled_from(["+", "-", "*", "/", " + ", " - ", " * ", " / "]))
    return draw(angle_texts(depth)) + op + draw(angle_texts(depth))


def first_zero_divisor(angle):
    """The offset in ``angle`` of the divisor of the first division by zero
    that Python's evaluation meets: it evaluates the operands of a division,
    left before right, before it divides."""
    def walk(node):
        for child in ast.iter_child_nodes(node):
            found = walk(child)
            if found is not None:
                return found
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and eval(ast.get_source_segment(angle, node.right), {"pi": math.pi}) == 0):
            after = angle[angle.index("/", node.left.end_col_offset) + 1:]
            return len(angle) - len(after.lstrip())
        return None
    return walk(ast.parse(angle, mode="eval"))


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
        ("u3(0, 1e308*10, 0)", 7),
        ("u3(0, 1, (1e308)*10)", 10),
    ])
    def test_non_finite_angle_carries_position(self, gate, column):
        # the error names the first non-finite angle's first token
        with pytest.raises(QasmError, match="non-finite angle in u[123] gate") as err:
            ql.parse_qasm(HEADER + f"{gate} q[0];")
        assert (err.value.line, err.value.column) == (4, column)

    @settings(max_examples=400, deadline=None)
    @given(angle=angle_texts())
    def test_angles_are_read_as_python_evaluates_them(self, angle):
        # register r: the grammar reads the gate, whatever the angle's spelling
        text = f"OPENQASM 2.0;\nqreg r[1];\nu1({angle}) r[0];\n"
        try:
            expected = eval(angle, {"pi": math.pi})
        except ZeroDivisionError:
            with pytest.raises(QasmError, match="division by zero in angle") as err:
                ql.parse_qasm(text)
            assert (err.value.line, err.value.column) == (3, 4 + first_zero_divisor(angle))
            return
        if not math.isfinite(expected):
            with pytest.raises(QasmError, match="non-finite angle in u1 gate") as err:
                ql.parse_qasm(text)
            assert (err.value.line, err.value.column) == (3, 4)
            return
        assert ql.parse_qasm(text).gates[0].params[0].hex() == expected.hex()

    @pytest.mark.parametrize("angle,value", [
        ("-0.0", -0.0), ("-0.0-0.0", -0.0), ("0.0-0.0", 0.0), ("-0.0*1.", -0.0),
        ("1.-2.-3.", -4.0), ("8./4./2.", 1.0), ("1.+2.*3.-4./2.", 5.0),
    ])
    def test_operators_combine_left_to_right_before_sums(self, angle, value):
        params = ql.parse_qasm(f"OPENQASM 2.0; qreg r[1]; u1({angle}) r[0];").gates[0].params
        assert params[0].hex() == value.hex()

    def test_division_by_zero_in_angle_carries_position(self):
        with pytest.raises(QasmError) as err:
            ql.parse_qasm("OPENQASM 2.0;\nqreg q[1];\nu1(1/0) q[0];\n")
        assert str(err.value) == "line 3, column 6: division by zero in angle"

    def test_barrier_before_qreg_carries_position(self):
        with pytest.raises(QasmError) as err:
            ql.parse_qasm("OPENQASM 2.0;\nbarrier q[0];\nqreg q[1];\n")
        assert str(err.value) == "line 2, column 1: barrier before qreg declaration"

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

    @pytest.mark.parametrize("text", [
        "OPENQASM 2.0; qreg q[10000000]; barrier q;",
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[65537];",
        "OPENQASM 2.0;\nqreg q[" + "9" * 5000 + "];",
    ])
    def test_register_above_the_bound_carries_position(self, text):
        # at the size token, before a barrier could list every qubit
        with pytest.raises(QasmError) as err:
            ql.parse_qasm(text)
        line = text.count("\n", 0, text.rindex("[")) + 1
        column = text.rindex("[") - text.rfind("\n", 0, text.rindex("[")) + 1
        assert str(err.value) == (f"line {line}, column {column}: "
                                  "register size must be at most 65536")

    def test_index_of_any_length_carries_position(self):
        for digits in ("1" * 5000, "0" * 5000 + "2"):
            with pytest.raises(QasmError, match=f"index {digits.lstrip('0')} out of range") as err:
                ql.parse_qasm(HEADER + f"h q[{digits}];")
            assert (err.value.line, err.value.column) == (4, 5)
        assert ql.parse_qasm(HEADER + "h q[" + "0" * 5000 + "1];").gates == (ql.h(1),)

    @pytest.mark.parametrize("text,line,column", [
        (HEADER + "h q[\u0660\u0661];", 4, 5),  # Arabic-Indic zero and one
        ("OPENQASM 2.0;\nqreg q[\u0663];", 2, 8),
        (HEADER + "u1(\u0661.5) q[0];", 4, 4),
        (HEADER + "h q[\uff11];", 4, 5),  # fullwidth one
        ("OPENQASM 2.0;\nqreg r[\u0663];", 2, 8),  # a name the pattern does not read
    ])
    def test_digits_of_other_scripts_are_characters_that_start_no_token(self, text, line,
                                                                        column):
        # OpenQASM 2.0 writes numbers in ASCII digits, and so do both readers
        with pytest.raises(QasmError, match="unexpected character") as err:
            ql.parse_qasm(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_leading_zeros_are_read_as_int_reads_them(self):
        # register r sends every statement to the grammar
        c = ql.parse_qasm("OPENQASM 2.0; qreg r[" + "0" * 5 + "2]; h r[01];")
        assert c == ql.Circuit(2, 0, (ql.h(1),))
        with pytest.raises(QasmError, match=r"index 5 out of range for r\[2\]") as err:
            ql.parse_qasm("OPENQASM 2.0;\nqreg r[2];\nh r[005];")
        assert (err.value.line, err.value.column) == (3, 5)
        text = "OPENQASM 2.0; qreg r[2]; h r[" + "0" * 5000 + "1];"
        assert ql.parse_qasm(text).gates == (ql.h(1),)

    def test_a_no_break_space_separates_tokens(self):
        # the tokenizer's \S stays Unicode, as the pattern's \s is
        text = "OPENQASM 2.0;\u00a0qreg\u00a0r[2];\u00a0h\u00a0r[1];"
        assert ql.parse_qasm(text).gates == (ql.h(1),)

    def test_register_at_the_bound_is_read(self):
        assert MAX_REGISTER == 2**16
        c = ql.parse_qasm(f"OPENQASM 2.0; qreg q[{MAX_REGISTER}]; creg c[{MAX_REGISTER}];")
        assert (c.num_qubits, c.num_clbits) == (MAX_REGISTER, MAX_REGISTER)
        # one register-sized tuple serves every bare-name barrier of a text
        c = ql.parse_qasm(f"OPENQASM 2.0; qreg q[{MAX_REGISTER}];" + " barrier q;" * 20)
        assert c.gates[0].qubits == tuple(range(MAX_REGISTER))
        assert len({id(g.qubits) for g in c.gates}) == 1
        # leading zeros count for nothing, however many there are
        assert ql.parse_qasm("OPENQASM 2.0; qreg q[" + "0" * 5000 + "2];") == ql.Circuit(2)

    def test_repeated_barrier_qubit_in_a_long_list_is_found_in_linear_time(self):
        # a quadratic search for the repeat takes about a minute here
        names = ",".join(f"q[{k}]" for k in range(MAX_REGISTER))
        text = f"OPENQASM 2.0;\nqreg q[{MAX_REGISTER}];\nbarrier {names},q[7];"
        start = time.perf_counter()
        with pytest.raises(QasmError, match=r"repeated qubit q\[7\] in barrier") as err:
            ql.parse_qasm(text)
        assert time.perf_counter() - start < 5.0
        assert (err.value.line, err.value.column) == (3, text.rindex("q[7]") - text.rfind("\n"))

    def test_repeated_barrier_qubit_carries_position(self):
        with pytest.raises(QasmError, match=r"repeated qubit q\[0\] in barrier") as err:
            ql.parse_qasm(HEADER + "barrier q[0],q[1],q[0];")
        assert (err.value.line, err.value.column) == (4, 19)

    def test_bare_barrier_on_empty_register_rejected(self):
        with pytest.raises(QasmError, match="^line 3, column 1: barrier needs a nonempty set "
                                            "of distinct qubits$") as err:
            ql.parse_qasm("OPENQASM 2.0;\nqreg q[0];\nbarrier q;")
        assert (err.value.line, err.value.column) == (3, 1)
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
        rng = np.random.default_rng(20240811)
        for trial in range(1000):
            n = int(rng.integers(2, 7))
            c = random_unitary_circuit(rng, n, int(rng.integers(0, 20)))
            if trial % 3 == 0:  # sprinkle measures and barriers
                extra = ql.Circuit(n, n, c.gates + (ql.measure(0, n - 1), ql.barrier(0)))
                c = extra
            assert ql.parse_qasm(ql.emit_qasm(c)) == c


#: the grammar itself, whatever a test stubs in its place
_GRAMMAR = qasm._grammar


def _outcome(read):
    """A reading's circuit and that circuit's emitted text (which tells -0.0
    from 0.0), or the error it raised."""
    try:
        c = read()
    except ValueError as e:
        return type(e), str(e)
    return c, ql.emit_qasm(c)


def _statement_end(text, pos):
    """Just past the first ";" token from ``pos``, or the end of the text."""
    return next((m.end() for m in qasm._TOKEN_RE.finditer(text, pos) if m[1] == ";"), len(text))


def _by_grammar(text):
    """What the grammar makes of ``text`` when it reads every statement, the
    header too; built with the checked ``Circuit``."""
    def read():
        regs, gates = {}, []
        end = _statement_end(text, 0)
        _GRAMMAR(text, 0, end, qasm._version, regs)
        while any(m[1] for m in qasm._TOKEN_RE.finditer(text, end)):  # stops at the next token
            pos, end = end, _statement_end(text, end)
            gate = _GRAMMAR(text, pos, end, qasm._statement, regs)
            if gate is not None:
                gates.append(gate)
        if "qreg" not in regs:
            raise QasmError("missing qreg declaration", 1, 1)
        return ql.Circuit(regs["qreg"][1], regs.get("creg", ("", 0))[1], tuple(gates))
    return _outcome(read)


def _parsed(text):
    return _outcome(lambda: ql.parse_qasm(text))


@pytest.fixture
def grammar_reads(monkeypatch):
    """The statements ``parse_qasm`` hands to the grammar, as text."""
    seen = []

    def spy(text, pos, end, *args):
        seen.append(text[pos:end].strip())
        return _GRAMMAR(text, pos, end, *args)

    monkeypatch.setattr(qasm, "_grammar", spy)
    return seen


@pytest.fixture
def no_grammar(monkeypatch):
    def fail(text, pos, *args):
        raise AssertionError(f"the grammar read {text[pos:pos + 40]!r}... of\n{text}")

    monkeypatch.setattr(qasm, "_grammar", fail)


def _emitted_with_measures(seed: int, count: int) -> list[str]:
    """``emit_qasm`` text of small seeded circuits with a creg, measures
    and barriers among their gates."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        gates = list(random_unitary_circuit(rng, n, int(rng.integers(1, 9))).gates)
        for _ in range(2):
            gates.insert(int(rng.integers(0, len(gates) + 1)),
                         ql.measure(int(rng.integers(0, n)), int(rng.integers(0, n))))
        gates.insert(int(rng.integers(0, len(gates) + 1)), ql.barrier(*range(n)))
        gates.insert(int(rng.integers(0, len(gates) + 1)), ql.barrier(n - 1))
        texts.append(ql.emit_qasm(ql.Circuit(n, n, tuple(gates))))
    return texts


def _without_fraction(angle: str) -> str:
    """``-1.25`` as ``-125.e-2``: the same decimal, with no digit after its point."""
    if "e" in angle:
        return angle
    whole, _, fraction = angle.partition(".")
    return f"{whole}{fraction}.e-{len(fraction)}"


class TestStatementReader:
    """``parse_qasm`` reads a statement with one pattern match where it can
    and with the grammar where it cannot; these tests hold every reading to
    the grammar's."""

    def test_mutations_of_emitted_text_are_read_as_the_grammar_reads_them(self, grammar_reads):
        rng = random.Random(20250808)
        bases = _emitted_with_measures(20250808, 20)
        matched = 0
        for _ in range(2000):
            text = rng.choice(bases)
            for _ in range(rng.choice((1, 1, 2, 3))):
                text = _mutate_once(rng, text)
            grammar_reads.clear()
            assert _parsed(text) == _by_grammar(text), text
            matched += not grammar_reads
        assert matched >= 200  # the mutations leave many texts in the pattern's spelling

    @pytest.mark.parametrize("body", [
        "u1(pi) q[0];", "u1(pi/2) q[0];", "u2(-(1),2) q[0];", "u1(+-1) q[0];",
        "u1(- 1) q[0];", "u1(1_0) q[0];", "u1(1_0.5) q[0];", "u1(.5_0) q[0];",
        "u1(1e999) q[0];", "u3(1,2) q[0];", "u1(0.5,1) q[0];", "h(0.5) q[0];", "u1 q[0];",
        "hq[0];", "cxq[0],q[1];", "u1.5(1) q[0];", "h q[0],q[1];", "cx q[0];", "cx(1) q[0],q[1];",
        "cx q[1],q[1];", "h q[2];", "h r[0];", "h q[\u0661];", "h q[1e0];", "h q[007];",
        "h q[0]; // note", "h q[0] h q[1];", "h q[0];;", "barrier q;", "barrier ;",
        "barrier q[0],q[0];", "barrier q[0],q[2];", "barrier q[0],;", "barrier q[0] q[1];",
        "barrier r;", "barrier q ; // all", "// c\nh q[0];", "h q[0]; // a; b\nh q[1];",
        "h // c\n q[0];", "measure q[0] -> c[2];", "measure q[0] - > c[0];",
        "measure q[0] -> q[0];", "creg d[1];", "qreg r[1];", 'include "qelib1.inc";', "@",
    ])
    def test_other_spellings_and_bad_statements_are_read_as_the_grammar_reads_them(self, body):
        for text in (HEADER + body, "OPENQASM 2.0;\nqreg q[2];\n" + body,
                     "OPENQASM 2.0;\nqreg q[0];\n" + body):
            assert _parsed(text) == _by_grammar(text), text

    @pytest.mark.parametrize("text", [
        "  OPENQASM   2.0 ;qreg\tq [ 2 ] ;creg c[2];\n\n",
        'OPENQASM 2.0;include"qelib1.inc";qreg q.a[2];u1 ( -0.0 ) q.a[ 1 ];',
        "OPENQASM 2.0;\nqreg q[2];\nu3(+1,.5,2.) q[0];\nu2(1E3,-7e-2) q[1];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0] , q[1] ;measure q[0]->c[0];",  # no creg
        "OPENQASM 2.0;\nqreg q[2];\ncreg q[1];\nmeasure q[1] -> q[0];\n",
        "OPENQASM 2.0;\nqreg q[3];\nbarrier q[2] ,\n q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncreg c[1];\nmeasure q[1] -> c[0];\n",
        "// header\nOPENQASM 2.0;\nqreg q[2];\nh q[0];\n",
        "OPENQASM 2.0;\nqreg q[0];\n",
        "OPENQASM 2.0;\nqreg q[70000];\n",
        "OPENQASM 3.0;\nqreg q[1];\n", "OPENQASM 2.0;\n", "OPENQASM2.0; qreg q[1];",
        "OPENQASM 2.0; qregq[1];", "", "// only a comment\n", "OPENQASM 2.0; qreg q[1]; //",
    ])
    def test_headers_and_spacing(self, text):
        assert _parsed(text) == _by_grammar(text)

    @pytest.mark.parametrize("tail", [
        " " * 100_000,  # trailing whitespace: each scan position would rescan it
        "barrier " * 12_500,
        "measure q[0] -> " * 6_000,
        "barrier " + "q[0]," * 20_000,
        "h " * 50_000,
        "u3(" + " " * 100_000 + "x",
        "u1(pi/2) q[0];" * 7_000,  # every statement read by the grammar
        "// c\nh q[0];" * 8_500,
        "barrier q;" * 10_000,
    ], ids=["trailing-space", "barrier-keywords", "measure-heads", "unclosed-barrier",
            "h-keywords", "open-angles", "pi-angles", "comment-lines", "bare-barriers"])
    def test_reading_time_is_linear(self, tail):
        # a quadratic scan takes minutes on these 100 kB texts; a linear one, milliseconds
        text = HEADER + tail
        start = time.perf_counter()
        got = _parsed(text)
        assert time.perf_counter() - start < 2.0
        assert got == _by_grammar(text)

    def test_whitespace_between_tokens_is_read(self, no_grammar):
        text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nu1 ( -0.0 ) q [ 1 ] ;\t"
        c = ql.parse_qasm(text)
        assert c == ql.Circuit(2, 1, (ql.u1(-0.0, 1),))
        assert math.copysign(1, c.gates[0].params[0]) == -1

    def test_emitted_text_never_reaches_the_grammar(self, no_grammar):
        # a silent fallback would keep every result and lose the speed
        texts = _emitted_with_measures(4242, 20)
        for layout in ("linear", "circle", "central", "neighbour"):
            for n in (3, 5, 8):
                graph = ql.make_layout(layout, n)
                circuit = ql.gen_random_circuit(n, 3, 100 * n + len(layout))
                texts.append(ql.emit_qasm(circuit))
                texts.append(ql.emit_qasm(ql.transpile(circuit, graph).circuit))
                texts.append(ql.emit_qasm(ql.transpile_baseline(circuit, graph).circuit))
        for text in texts:
            assert _parsed(text) == _by_grammar(text)

    @pytest.mark.parametrize("statement", ["u1(pi/2) q[1];", "h // c\n q[0];", "u2(-(1),2) q[0];"])
    def test_one_hand_written_statement_is_all_the_grammar_reads(self, grammar_reads, statement):
        lines = _emitted_with_measures(7, 1)[0].splitlines()
        lines.insert(len(lines) // 2, statement)
        text = "\n".join(lines) + "\n"
        assert _parsed(text) == _by_grammar(text)
        assert grammar_reads == [statement]

    @pytest.mark.parametrize("renames", [
        {"q": "qr"}, {"c": "cr"}, {"q": "qr", "c": "cr"}, {"c": "d"},
    ], ids=["qr", "cr", "qr-cr", "creg-d"])
    def test_other_register_names_are_read_as_the_grammar_reads_them(self, renames):
        for base in _emitted_with_measures(31, 10):
            text = base
            for old, new in renames.items():
                text = re.sub(rf"\b{old}\[", f"{new}[", text)
            assert _parsed(text) == _by_grammar(text) == _parsed(base), text

    def test_bare_register_barriers_are_read_as_the_grammar_reads_them(self):
        for base in _emitted_with_measures(32, 10):
            lines = base.splitlines()
            lines.insert(len(lines) // 2, "barrier q;")
            lines.append("barrier q ;")
            text = "\n".join(lines) + "\n"
            circuit, _ = got = _parsed(text)
            assert got == _by_grammar(text), text
            assert circuit.gates[-1] == ql.barrier(*range(circuit.num_qubits))

    @pytest.mark.parametrize("respell", [
        lambda a: a if a.startswith("-") else "+" + a,  # +x
        lambda a: re.sub(r"^(-?)0\.", r"\1.", a),  # .5
        _without_fraction,  # 5.
        lambda a: a + "E0",  # 1E2
    ], ids=["plus", "no-integer-part", "no-fraction", "capital-exponent"])
    def test_other_angle_spellings_are_read_as_the_grammar_reads_them(self, respell):
        # every respelling names the same decimal, so the same double
        respelled = 0
        for base in _emitted_with_measures(33, 10):
            text = re.sub(r"\(([^)]*)\)",
                          lambda m: "(" + ",".join(map(respell, m[1].split(","))) + ")", base)
            respelled += text != base
            assert _parsed(text) == _by_grammar(text) == _parsed(base), text
        assert respelled >= 5

    def test_a_header_the_grammar_reads_hands_it_only_the_header(self, grammar_reads):
        base = _emitted_with_measures(34, 1)[0]
        text = "// a comment before the version\n" + base
        assert _parsed(text) == _by_grammar(text) == _parsed(base)
        assert grammar_reads == ["// a comment before the version\n" + line
                                 if line.startswith("OPENQASM") else line
                                 for line in base.splitlines()[:4]]
