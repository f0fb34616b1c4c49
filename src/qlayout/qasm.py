"""OpenQASM 2.0 subset parser and emitter.

Accepted grammar: the ``OPENQASM 2.0;`` header, an optional
``include "qelib1.inc";`` (ignored), one ``qreg``, at most one ``creg``,
and statements built from u1/u2/u3/cx/h/measure/barrier.  Angle arguments
are arithmetic over float literals and ``pi`` (e.g. ``pi/2``, ``3*pi/4``).
A register holds at most ``MAX_REGISTER`` qubits or bits.

There are two readers, and ``parse_qasm`` picks one from the text itself.

- The statement reader reads the text ``emit_qasm`` writes, one compiled
  pattern match per statement: the header (``OPENQASM 2.0;``, the
  optional include, the ``qreg``, an optional ``creg``) and then gates
  whose angles are numeric literals with an optional sign.  Any other
  spelling -- an angle expression such as ``pi/2``, a comment, a
  declaration after the first gate, a bare-register barrier -- and any
  input it would reject makes it give up, returning ``None``.
- The token walk reads the whole grammar.  One regex scan, ``findall``,
  returns the tokens as strings, comments and whitespace dropped, and the
  walk steps through that list with an index, reading a token's kind from
  its first character.  No position is tracked; an error scans the text
  again up to its token to find one.  It runs on every text the statement
  reader gives up on, from the start.

Both readers check everything a checked ``Gate`` and ``Circuit`` would
(operand and angle counts, finite angles, distinct operands, indices within
the declared registers) and so build their gates and circuit unchecked, and
both return the same circuit for any text the statement reader accepts.

Errors come from the walk alone.  Malformed input, including an angle that
is infinite or NaN or that nests more than ``MAX_NESTING`` parentheses and
unary signs, and a register larger than ``MAX_REGISTER``, raises
:class:`QasmError`: a ``ValueError`` carrying the 1-based ``line`` and
``column`` of the offending token, or of the point just past the last
token when the input runs out.  The first error in reading order is
raised, except that a character which starts no token is reported
wherever it stands.

Emitted text parses back to a structurally equal circuit: angles are
printed with ``repr``, the shortest decimal that round-trips the double
exactly.
"""
from __future__ import annotations

import math
import re
import sys
from itertools import islice

from .ir import _PARAM_COUNT, SINGLE_QUBIT_KINDS, Circuit, Gate, GateKind

#: gate statements by name: the unitary kinds, spelled as ``emit_qasm`` prints them
_GATE_KINDS = {k.value: k for k in SINGLE_QUBIT_KINDS | {GateKind.CNOT}}

#: parentheses and unary signs an angle may nest, so reading one needs bounded stack
MAX_NESTING = 64

#: qubits or bits a register may declare, so that a short text cannot make
#: the reader build huge operand lists (``barrier q;`` names every qubit)
MAX_REGISTER = 2**16


class QasmError(ValueError):
    """Parse failure, annotated with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# A token is one match of the group; a comment matches outside it and comes
# back as "".  Whitespace matches nothing, so the scan steps over it, and ``\S``
# makes any character that starts no token a one-character token of its own.
_TOKEN_RE = re.compile(
    r"""//[^\n]*
      | ( \d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?
        | [A-Za-z_][A-Za-z0-9_.]*
        | "[^"\n]*"
        | ->
        | [()\[\],;*/+-]
        | \S )
    """,
    re.VERBOSE,
)

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _is_stray(tok: str) -> bool:
    """A character that starts no token: what the ``\\S`` alternative caught."""
    return len(tok) == 1 and not (tok in _NAME_START or tok in "()[],;*/+-" or tok.isdecimal())


class _Reject(Exception):
    """``(index, message)``: a parse failure at a token, before its position is known."""


def _error(text: str, index: int, message: str) -> QasmError:
    """``message`` at the ``index``-th token of ``text``, or just past the
    last token when there are fewer; (1, 1) when there are none."""
    tokens = list(islice((m for m in _TOKEN_RE.finditer(text) if m.lastindex), index + 1))
    if not tokens:
        return QasmError(message, 1, 1)
    offset = tokens[index].start() if index < len(tokens) else tokens[-1].end()
    return QasmError(message, text.count("\n", 0, offset) + 1,
                     offset - text.rfind("\n", 0, offset))


def parse_qasm(text: str) -> Circuit:
    """Parse source text into a :class:`Circuit`; malformed input raises
    :class:`QasmError` with line/column, as the module docstring sets out."""
    circuit = _read_statements(text)
    return circuit if circuit is not None else _walk(text)


# The statement reader's token classes are _TOKEN_RE's, made stricter where
# that is simpler: ASCII digits only (``\d`` is any Unicode digit), no ``_``
# between digits (``float`` and ``int`` take ``1_0``; the tokenizer splits
# it), at most as many digits in an index or size as MAX_REGISTER has, and
# a sign only directly before a number.
_NUMBER = (r"[+-]?(?:[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
           r"|[0-9]+(?:[eE][+-]?[0-9]+)?)")
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_INDEX = rf"[0-9]{{1,{len(str(MAX_REGISTER))}}}"
_OPERAND = rf"({_NAME})\s*\[\s*({_INDEX})\s*\]"
_OPERAND_RE = re.compile(_OPERAND)

_HEADER_RE = re.compile(rf"""
    \s*OPENQASM\s+2\.0\s*;
    (?:\s*include\s*"qelib1\.inc"\s*;)?
    \s*qreg\s+{_OPERAND}\s*;
    (?:\s*creg\s+{_OPERAND}\s*;)?
    """, re.VERBOSE)

# One match is one statement, with the whitespace before it.  A character
# that starts no statement matches the last alternative, which sets no group
# and takes the rest of the text, so the scan ends there.  The reader scans
# only up to the trailing whitespace, so ``findall`` covers every character
# it scans and the reader need not check that matches abut.  The whole scan
# is linear: each match attempt is linear in what it scans (the one repeated
# group starts with a comma, so it splits a text in one way only) and
# consumes it, which a ``\s*`` that ran to the end of the text would not --
# hence the trailing whitespace is left out.
_STATEMENT_RE = re.compile(rf"""\s*(?:
      (u[123]|h|cx)(?![A-Za-z0-9_.])  # the keyword, not the start of a longer name
      (?:\s*\(\s*({_NUMBER})\s*(?:,\s*({_NUMBER})\s*)?(?:,\s*({_NUMBER})\s*)?\))?
      \s*{_OPERAND}(?:\s*,\s*{_OPERAND})?\s*;
    | measure\s+{_OPERAND}\s*->\s*{_OPERAND}\s*;
    | barrier\s+({_NAME}\s*\[\s*{_INDEX}\s*\](?:\s*,\s*{_NAME}\s*\[\s*{_INDEX}\s*\])*)\s*;
    | \S[\s\S]* )""", re.VERBOSE)


def _read_statements(text: str) -> Circuit | None:
    """The circuit of ``text`` if it is spelled as the statement reader reads
    it and is valid, else ``None``; see the module docstring."""
    header = _HEADER_RE.match(text)
    if header is None:
        return None
    qname, qsize, cname, csize = header.groups()
    qsize = int(qsize)
    csize = int(csize) if cname else 0
    if qsize > MAX_REGISTER or csize > MAX_REGISTER:
        return None
    gates: list[Gate] = []
    for (kw, a1, a2, a3, r1, i1, r2, i2,
         mq, mi, mc, mj, listed) in _STATEMENT_RE.findall(text, header.end(),
                                                           len(text.rstrip())):
        if kw:
            kind = _GATE_KINDS[kw]
            q = int(i1)
            if r1 != qname or q >= qsize:
                return None
            if r2:  # a second operand: cx, which takes no angles
                t = int(i2)
                if kind is not GateKind.CNOT or a1 or r2 != qname or t >= qsize or t == q:
                    return None
                gates.append(Gate._unchecked(kind, (q, t)))
                continue
            if a3:
                params = (float(a1), float(a2), float(a3))
            elif a2:
                params = (float(a1), float(a2))
            elif a1:
                params = (float(a1),)
            else:
                params = ()
            if (kind is GateKind.CNOT or len(params) != _PARAM_COUNT[kind]
                    or not all(map(math.isfinite, params))):
                return None
            gates.append(Gate._unchecked(kind, (q,), params))
        elif mq:
            q, c = int(mi), int(mj)
            if mq != qname or mc != cname or q >= qsize or c >= csize:
                return None
            gates.append(Gate._unchecked(GateKind.MEASURE, (q,), (), c))
        elif listed:
            operands = []
            for name, index in _OPERAND_RE.findall(listed):
                if name != qname:
                    return None
                operands.append(int(index))
            if max(operands) >= qsize or len(set(operands)) != len(operands):
                return None
            gates.append(Gate._unchecked(GateKind.BARRIER, tuple(operands)))
        else:
            return None
    return Circuit._unchecked(qsize, csize, tuple(gates))


def _walk(text: str) -> Circuit:
    """The token walk: the whole grammar, and every error."""
    toks = list(filter(None, _TOKEN_RE.findall(text)))
    toks.append("")  # end of input: equal to no expected token
    try:
        return _parse(toks)
    except (_Reject, ValueError) as exc:
        # A stray character is reported before any other error, wherever it
        # stands.  A parse that succeeds matched every token, so has none.
        stray = next((k for k, t in enumerate(toks) if _is_stray(t)), None)
        if stray is not None:
            raise _error(text, stray, f"unexpected character {toks[stray]!r}") from None
        if isinstance(exc, _Reject):
            raise _error(text, *exc.args) from None
        raise


# Each function below takes the index of its first token and returns the index
# after its last.  The "" that ends the token list stands for the end of input.

def _unexpected(toks: list[str], i: int, message: str) -> _Reject:
    """``message`` about ``toks[i]``, or end of input if there is none."""
    return _Reject(i, message if toks[i] else "unexpected end of input")


def _expect(toks: list[str], i: int, want: str) -> int:
    if toks[i] != want:
        raise _Reject(i, f"expected {want!r}, found {toks[i]!r}" if toks[i]
                      else f"unexpected end of input, expected {want!r}")
    return i + 1


# expression := term (('+'|'-') term)*
# term       := factor (('*'|'/') factor)*
# factor     := ['-'|'+'] (number | 'pi' | '(' expression ')')
# ``depth`` counts the parentheses and unary signs around the current token.
def _expression(toks: list[str], i: int, depth: int = 0) -> tuple[float, int]:
    value, i = _term(toks, i, depth)
    while True:
        op = toks[i]
        if op == "+":
            rhs, i = _term(toks, i + 1, depth)
            value += rhs
        elif op == "-":
            rhs, i = _term(toks, i + 1, depth)
            value -= rhs
        else:
            return value, i


def _term(toks: list[str], i: int, depth: int) -> tuple[float, int]:
    value, i = _factor(toks, i, depth)
    while True:
        op = toks[i]
        if op == "*":
            rhs, i = _factor(toks, i + 1, depth)
            value *= rhs
        elif op == "/":
            divisor, j = _factor(toks, i + 1, depth)
            if divisor == 0:
                raise _Reject(i + 1, "division by zero in angle")
            value /= divisor
            i = j
        else:
            return value, i


def _factor(toks: list[str], i: int, depth: int) -> tuple[float, int]:
    tok = toks[i]
    if tok == "-" or tok == "+" or tok == "(":
        if depth == MAX_NESTING:
            raise _Reject(i, f"angle nested deeper than {MAX_NESTING} levels")
        if tok == "(":
            value, i = _expression(toks, i + 1, depth + 1)
            return value, _expect(toks, i, ")")
        value, i = _factor(toks, i + 1, depth + 1)
        return (-value if tok == "-" else value), i
    if not tok:
        raise _Reject(i, "unexpected end of angle expression")
    if tok[0].isdecimal() or tok[0] == ".":
        return float(tok), i + 1
    if tok == "pi":
        return math.pi, i + 1
    raise _Reject(i, f"expected a number or 'pi', found {tok!r}")


def _index(toks: list[str], i: int, name: str, size: int) -> int:
    """The integer at ``toks[i]``, closed by ``]``, below ``size``."""
    idx = toks[i]
    if "." in idx or not idx[:1].isdecimal():
        raise _unexpected(toks, i, "register index must be an integer")
    _expect(toks, i + 1, "]")
    if not idx.isdecimal():  # an exponent (1e3); checked here, a missing "]" comes first
        raise _Reject(i, "register index must be an integer")
    k = _integer(idx)
    if k is None or k >= size:
        raise _Reject(i, f"index {idx if k is None else k} out of range for {name}[{size}]")
    return k


def _integer(digits: str) -> int | None:
    """``int(digits)`` for a string of decimal digits, or ``None`` when it has
    more significant digits than ``int`` reads (``sys.get_int_max_str_digits()``,
    a count that takes in leading zeros, so they are dropped first)."""
    try:
        return int(digits)
    except ValueError:
        pass
    digits = digits[next((k for k, d in enumerate(digits) if int(d)), len(digits) - 1):]
    return int(digits) if len(digits) <= sys.get_int_max_str_digits() else None


def _qubit(toks: list[str], i: int, qreg: tuple[str, int] | None) -> int:
    """The operand ``name[index]`` at ``toks[i:i + 4]``."""
    if qreg is None or toks[i] != qreg[0]:
        raise _unexpected(toks, i, f"unknown quantum register {toks[i]!r}")
    return _index(toks, _expect(toks, i + 1, "["), *qreg)


def _qubits(toks: list[str], i: int, qreg: tuple[str, int] | None) -> tuple[list[int], int]:
    """A comma-separated list of operands."""
    out = [_qubit(toks, i, qreg)]
    i += 4
    while toks[i] == ",":
        out.append(_qubit(toks, i + 1, qreg))
        i += 5
    return out, i


def _parse(toks: list[str]) -> Circuit:
    _expect(toks, 0, "OPENQASM")
    if toks[1] != "2.0":
        raise _unexpected(toks, 1, f"unsupported version {toks[1]!r}")
    i = _expect(toks, 2, ";")

    qreg: tuple[str, int] | None = None  # (name, size) once declared
    creg: tuple[str, int] | None = None
    every: tuple[int, ...] | None = None  # the operands of a bare-name barrier
    gates: list[Gate] = []
    while toks[i]:
        tok, start = toks[i], i
        kind = _GATE_KINDS.get(tok)
        if kind is not None:
            params: list[float] = []
            i += 1
            n_angles = _PARAM_COUNT[kind]
            if n_angles:
                value, i = _expression(toks, _expect(toks, i, "("))
                params.append(value)
                while toks[i] == ",":
                    value, i = _expression(toks, i + 1)
                    params.append(value)
                i = _expect(toks, i, ")")
                if len(params) != n_angles:
                    raise _Reject(start, f"{tok} takes {n_angles} angle(s), got {len(params)}")
            operands, i = _qubits(toks, i, qreg)
            i = _expect(toks, i, ";")
            if kind is GateKind.CNOT:
                if len(operands) != 2:
                    raise _Reject(start, "cx takes two qubits")
                if operands[0] == operands[1]:
                    raise _Reject(start, "cx control and target must differ")
            elif len(operands) != 1:
                raise _Reject(start, f"{tok} takes one qubit")
            if not all(map(math.isfinite, params)):
                i = start + 2  # walk the angles again to the first non-finite one
                for value in params:
                    if not math.isfinite(value):
                        raise _Reject(i, f"non-finite angle in {tok} gate")
                    i = _expression(toks, i)[1] + 1
            gates.append(Gate._unchecked(kind, tuple(operands), tuple(params)))
        elif tok == "measure":
            q = _qubit(toks, i + 1, qreg)
            i = _expect(toks, i + 5, "->")
            if creg is None or toks[i] != creg[0]:
                raise _unexpected(toks, i, f"unknown classical register {toks[i]!r}")
            c = _index(toks, _expect(toks, i + 1, "["), *creg)
            i = _expect(toks, i + 4, ";")
            gates.append(Gate._unchecked(GateKind.MEASURE, (q,), (), c))
        elif tok == "barrier":
            if qreg is None:
                raise _Reject(i, "barrier before qreg declaration")
            if toks[i + 1] == qreg[0] and toks[i + 2] == ";":  # bare name: every qubit
                if every is None:  # one tuple for all of them, not one per statement
                    every = tuple(range(qreg[1]))
                operands, i = every, i + 3
            else:
                operands, i = _qubits(toks, i + 1, qreg)
                i = _expect(toks, i, ";")
                if len(set(operands)) != len(operands):
                    first: dict[int, int] = {}  # qubit -> where it is first named
                    k = next(k for k, q in enumerate(operands) if first.setdefault(q, k) != k)
                    raise _Reject(start + 1 + 5 * k,
                                  f"repeated qubit {qreg[0]}[{operands[k]}] in barrier")
                operands = tuple(operands)
            if not operands:  # the bare name of an empty register
                raise ValueError("barrier needs a nonempty set of distinct qubits")
            gates.append(Gate._unchecked(GateKind.BARRIER, operands))
        elif tok == "qreg" or tok == "creg":
            name = toks[i + 1]
            if name[:1] not in _NAME_START:
                raise _unexpected(toks, i + 1, "expected a register name")
            i = _expect(toks, i + 2, "[")
            size = toks[i]
            if "." in size or not size[:1].isdecimal():
                raise _unexpected(toks, i, "register size must be an integer")
            i = _expect(toks, _expect(toks, i + 1, "]"), ";")
            if (qreg if tok == "qreg" else creg) is not None:
                raise _Reject(start, f"only one {tok} is supported")
            if not size.isdecimal():  # an exponent (1e3), checked after the statement's form
                raise _Reject(start + 3, "register size must be an integer")
            n = _integer(size)
            if n is None or n > MAX_REGISTER:
                raise _Reject(start + 3, f"register size must be at most {MAX_REGISTER}")
            if tok == "qreg":
                qreg = (name, n)
            else:
                creg = (name, n)
        elif tok == "include":
            if toks[i + 1] != '"qelib1.inc"':
                raise _unexpected(toks, i + 1, f"unsupported include {toks[i + 1]}")
            i = _expect(toks, i + 2, ";")
        elif tok[0] in _NAME_START:
            raise _Reject(i, f"unsupported gate {tok!r}")
        else:
            raise _Reject(i, f"unexpected {tok!r}")

    if qreg is None:
        raise QasmError("missing qreg declaration", 1, 1)
    return Circuit._unchecked(qreg[1], creg[1] if creg else 0, tuple(gates))


#: per unitary kind, the bound ``format`` of its statement, taking the
#: angles and then the qubits; ``!r`` prints an angle as ``repr`` does
_STATEMENT_FORMATS = {
    GateKind.U1: "u1({!r}) q[{}];".format,
    GateKind.U2: "u2({!r},{!r}) q[{}];".format,
    GateKind.U3: "u3({!r},{!r},{!r}) q[{}];".format,
    GateKind.H: "h q[{}];".format,
    GateKind.CNOT: "cx q[{}],q[{}];".format,
}


def emit_qasm(circuit: Circuit) -> str:
    """Render a circuit back to source text.

    ``parse_qasm(emit_qasm(c))`` is structurally equal to ``c``.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for g in circuit.gates:
        fmt = _STATEMENT_FORMATS.get(g.kind)
        if fmt is not None:
            lines.append(fmt(*g.params, *g.qubits))
        elif g.kind is GateKind.MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.clbit}];")
        else:
            lines.append("barrier " + ",".join(f"q[{q}]" for q in g.qubits) + ";")
    return "\n".join(lines) + "\n"
