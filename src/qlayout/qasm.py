"""OpenQASM 2.0 subset parser and emitter.

Accepted grammar: the ``OPENQASM 2.0;`` header, an optional
``include "qelib1.inc";`` (ignored), one ``qreg``, at most one ``creg``,
and statements built from u1/u2/u3/cx/h/measure/barrier.  Angle arguments
are arithmetic over float literals and ``pi`` (e.g. ``pi/2``, ``3*pi/4``).
A register holds at most ``MAX_REGISTER`` qubits or bits.

``parse_qasm`` reads a text once, a statement at a time.  A statement
spelled as ``emit_qasm`` writes it is one match of a compiled pattern, with
the comments before it; the header in that spelling is one match of another.
That spelling is: registers named ``q`` and ``c``; angles as ``repr`` prints
a finite float (an optional ``-``, digits, optionally ``.`` and digits, then
optionally ``e``, a sign and digits: ``0.5``, ``-2.0``, ``1e-05``); a
``barrier`` that lists its qubits; whitespace anywhere between tokens.  Any
other statement (another register name, an angle such as ``pi/2``, ``+1``,
``.5``, ``5.`` or ``1E2``, a bare ``barrier q;``, a later declaration, a
comment inside a statement, a header spelled otherwise, anything malformed)
is read by a recursive-descent grammar over its tokens, up to and including
its first ``;``, and reading then goes back to the pattern.  Both ways check
everything a checked ``Gate`` and ``Circuit`` would (operand and angle
counts, finite angles, distinct operands, indices within the declared
registers) and so build gates and circuit unchecked; a statement that
matches the pattern but fails a check goes to the grammar, which reports
the error.  Both ways read numbers, indices and sizes in the ASCII digits
``0``-``9`` only, as OpenQASM 2.0 writes them: a digit of another script is
a character that starts no token.

Malformed input, including an angle that is infinite or NaN or that nests
more than ``MAX_NESTING`` parentheses and unary signs, and a register
larger than ``MAX_REGISTER``, raises :class:`QasmError`: a ``ValueError``
carrying the 1-based ``line`` and ``column`` of the offending token, or of
the point just past the last token when the input runs out.  The first
error in reading order is raised, except that a character which starts no
token is reported wherever it stands.

Emitted text parses back to a structurally equal circuit: angles are
printed with ``repr``, the shortest decimal that round-trips the double
exactly.
"""
from __future__ import annotations

import math
import re
import sys

from .ir import _PARAM_COUNT, MAX_REGISTER, SINGLE_QUBIT_KINDS, Circuit, Gate, GateKind, _is_digits

#: gate statements by name: the unitary kinds, spelled as ``emit_qasm`` prints them
_GATE_KINDS = {k.value: k for k in SINGLE_QUBIT_KINDS | {GateKind.CNOT}}

#: parentheses and unary signs an angle may nest, so reading one needs bounded stack
MAX_NESTING = 64


class QasmError(ValueError):
    """Parse failure, annotated with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# A token is one match of the group; a comment matches outside it and comes
# back as "".  Whitespace matches nothing, so the scan steps over it, and ``\S``
# makes any character that starts no token a one-character token of its own.
# Digits are ASCII, as the patterns below read them, so a digit of another
# script is such a character; ``\S`` stays Unicode, so that a no-break space
# is whitespace here as it is to the patterns' ``\s``.
_TOKEN_RE = re.compile(
    r"""//[^\n]*
      | ( (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
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
    return len(tok) == 1 and not (tok in _NAME_START or tok in "()[],;*/+-" or _is_digits(tok))


class _Reject(Exception):
    """``(index, message)``: a parse failure at a token of one statement."""


# The patterns read the spelling ``emit_qasm`` writes, registers ``q`` and ``c``
# and angles as ``repr`` prints a finite float, with any whitespace between
# tokens: ASCII digits only (``\d`` is any Unicode digit), at most as many in
# an index or size as MAX_REGISTER has, and a keyword always followed by a
# separator, so it is never the start of a longer name.
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?"
_DIGITS = rf"[0-9]{{1,{len(str(MAX_REGISTER))}}}"
_INDEX = rf"\[\s*({_DIGITS})\s*\]"

_HEADER_RE = re.compile(rf"""
    \s*OPENQASM\s+2\.0\s*;
    (?:\s*include\s*"qelib1\.inc"\s*;)?
    \s*qreg\s+q\s*{_INDEX}\s*;
    (?:\s*creg\s+c\s*{_INDEX}\s*;)?
    """, re.VERBOSE)

# A statement as the tokenizer splits it: up to and including its first ";"
# token, or to the end of the text.  It always matches, so a match never
# gives back what it took and is linear in what it reads.
_EXTENT = r'''(?:[^;"/]+|//[^\n]*|"[^"\n]*"|["/])*;?'''
_EXTENT_RE = re.compile(_EXTENT)

# One match is a statement with the whitespace and comments before it, all
# in group 1.  Of the other groups, a statement the pattern does not spell
# sets only the last, to its extent, which is empty at the end of the text.
# As that alternative always matches, nothing taken before it is given back
# and ``findall`` skips nothing; the others fail or end by a statement's
# first ";", and the one repeated group starts with a comma: each attempt is
# linear in the statement it reads.
_STATEMENT_RE = re.compile(rf"""
    ( \s*(?://[^\n]*\s*)*(?:
        (u[123]|h)(?:\s*\(\s*({_NUMBER})\s*(?:,\s*({_NUMBER})\s*)?(?:,\s*({_NUMBER})\s*)?\)|\s)
        \s*q\s*{_INDEX}\s*;
      | cx\s+q\s*{_INDEX}\s*,\s*q\s*{_INDEX}\s*;
      | measure\s+q\s*{_INDEX}\s*->\s*c\s*{_INDEX}\s*;
      | barrier\s+(q\s*\[\s*{_DIGITS}\s*\](?:\s*,\s*q\s*\[\s*{_DIGITS}\s*\])*)\s*;
      | ({_EXTENT}) ))
    """, re.VERBOSE)
_DIGITS_RE = re.compile("[0-9]+")


def parse_qasm(text: str) -> Circuit:
    """Parse source text into a :class:`Circuit`; malformed input raises
    :class:`QasmError` with line/column, as the module docstring sets out."""
    regs: dict[str, tuple] = {}  # "qreg" and "creg": (name, size); "every": see _every
    gates: list[Gate] = []
    append, make, isfinite = gates.append, Gate._unchecked, math.isfinite
    header = _HEADER_RE.match(text)
    if header and max(int(header[1]), int(header[2] or 0)) <= MAX_REGISTER:
        regs["qreg"] = ("q", int(header[1]))
        if header[2]:
            regs["creg"] = ("c", int(header[2]))
        pos = header.end()
    else:  # the grammar reads the first statement, the version
        pos = _EXTENT_RE.match(text).end()
        _grammar(text, 0, pos, _version, regs)
    qsize, csize = _sizes(regs)
    for read, kw, a1, a2, a3, i, i1, i2, mi, mj, listed, other in _STATEMENT_RE.findall(text, pos):
        if kw:
            q = int(i)
            params = ((float(a1), float(a2), float(a3)) if a3 else (float(a1), float(a2)) if a2
                      else (float(a1),) if a1 else ())
            kind = _GATE_KINDS[kw]
            # a sum of finite angles is finite unless it overflows (then the grammar reads it)
            gate = (make(kind, (q,), params)
                    if q < qsize and len(params) == _PARAM_COUNT[kind] and isfinite(sum(params))
                    else None)
        elif i1:
            q, t = int(i1), int(i2)
            gate = make(GateKind.CNOT, (q, t)) if q < qsize and t < qsize and q != t else None
        elif mi:
            q, c = int(mi), int(mj)
            gate = make(GateKind.MEASURE, (q,), (), c) if q < qsize and c < csize else None
        elif listed:
            operands = tuple(map(int, _DIGITS_RE.findall(listed)))
            gate = (make(GateKind.BARRIER, operands)
                    if max(operands) < qsize and len(set(operands)) == len(operands) else None)
        elif other:
            gate = None
        else:  # only whitespace and comments are left
            break
        end = pos + len(read)
        if gate is None:  # a spelling the pattern does not read, or a failed check
            gate = _grammar(text, pos, end, _statement, regs)
            qsize, csize = _sizes(regs)
        if gate is not None:
            append(gate)
        pos = end
    if "qreg" not in regs:
        raise QasmError("missing qreg declaration", 1, 1)
    return Circuit._unchecked(regs["qreg"][1], regs.get("creg", ("", 0))[1], tuple(gates))


def _sizes(regs: dict[str, tuple]) -> tuple[int, int]:
    """The sizes the pattern reads against: of registers ``q`` and ``c``, and 0
    for a register not declared or declared under another name."""
    qreg, creg = regs.get("qreg", ("", 0)), regs.get("creg", ("", 0))
    return (qreg[1] if qreg[0] == "q" else 0), (creg[1] if creg[0] == "c" else 0)


def _every(regs: dict[str, tuple]) -> tuple[int, ...]:
    """Every qubit, in one tuple for all the bare-register barriers of a text."""
    if "every" not in regs:
        regs["every"] = tuple(range(regs["qreg"][1]))
    return regs["every"]


def _grammar(text: str, pos: int, end: int, parse, regs: dict[str, tuple]) -> Gate | None:
    """What ``parse`` reads in the statement ``text[pos:end]``: its gate, or
    ``None`` for a declaration, which it records in ``regs``."""
    toks = [*filter(None, _TOKEN_RE.findall(text, pos, end)), ""]  # "": end of input
    try:
        return parse(toks, regs)
    except _Reject as exc:
        index, message = exc.args
    # The error stands at the index-th token from ``pos``, or just past the
    # last.  A stray character is reported first, wherever it stands; the
    # statements before ``pos`` were read, so they hold none.
    found = [m for m in _TOKEN_RE.finditer(text, pos) if m.lastindex]
    stray = next((m for m in found if _is_stray(m[1])), None)
    if stray is not None:
        offset, message = stray.start(), f"unexpected character {stray[1]!r}"
    elif index < len(found):
        offset = found[index].start()
    else:  # end of input: just past the last token, if there is one
        offset = found[-1].end() if found else 0
    raise QasmError(message, text.count("\n", 0, offset) + 1,
                    offset - text.rfind("\n", 0, offset))


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
# One loop reads both levels, left to right: ``value`` is the term being
# multiplied out, and the "+" or "-" that starts the next term adds it to
# ``total``, the sum of the terms before it.  A "-" negates the term it
# starts, as ``a - b`` is ``a + (-b)`` in floating point, and ``total``
# starts at -0.0, which added to any double gives that double (0.0 would
# turn an angle of -0.0 into 0.0).
# ``depth`` counts the parentheses and unary signs around the current token.
def _expression(toks: list[str], i: int, depth: int = 0) -> tuple[float, int]:
    total = -0.0
    value, i = _factor(toks, i, depth)
    while (op := toks[i]) in ("+", "-", "*", "/"):
        rhs, j = _factor(toks, i + 1, depth)
        if op == "*":
            value *= rhs
        elif op != "/":
            total += value
            value = -rhs if op == "-" else rhs
        elif rhs == 0:
            raise _Reject(i + 1, "division by zero in angle")
        else:
            value /= rhs
        i = j
    return total + value, i


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
    if _is_digits(tok[0]) or tok[0] == "." and tok != ".":  # a lone "." is a stray
        return float(tok), i + 1
    if tok == "pi":
        return math.pi, i + 1
    raise _Reject(i, f"expected a number or 'pi', found {tok!r}")


def _operand(toks: list[str], i: int, reg: tuple[str, int] | None, kind: str) -> int:
    """The operand ``name[index]`` at ``toks[i:i + 4]``, in ``reg``, a
    ``kind`` ("quantum" or "classical") register."""
    if reg is None or toks[i] != reg[0]:
        raise _unexpected(toks, i, f"unknown {kind} register {toks[i]!r}")
    i = _expect(toks, i + 1, "[")
    idx = toks[i]
    if "." in idx or not _is_digits(idx[:1]):
        raise _unexpected(toks, i, "register index must be an integer")
    _expect(toks, i + 1, "]")
    if not _is_digits(idx):  # an exponent (1e3); checked here, a missing "]" comes first
        raise _Reject(i, "register index must be an integer")
    k = _integer(idx)
    if k is None or k >= reg[1]:
        raise _Reject(i, f"index {idx if k is None else k} out of range for {reg[0]}[{reg[1]}]")
    return k


def _integer(digits: str) -> int | None:
    """``int(digits)`` for a string of ASCII decimal digits, or ``None`` when
    it has more significant digits than ``int`` reads
    (``sys.get_int_max_str_digits()``, 0 for no bound, a count that takes in
    leading zeros, so they are dropped first)."""
    digits = digits.lstrip("0") or "0"
    bound = sys.get_int_max_str_digits()
    return int(digits) if not bound or len(digits) <= bound else None


def _qubits(toks: list[str], i: int, qreg: tuple[str, int] | None) -> tuple[list[int], int]:
    """A comma-separated list of operands."""
    out = [_operand(toks, i, qreg, "quantum")]
    while toks[i + 4] == ",":
        i += 5
        out.append(_operand(toks, i, qreg, "quantum"))
    return out, i + 4


def _version(toks: list[str], regs: dict[str, tuple]) -> None:
    """The first statement, ``OPENQASM 2.0;``."""
    _expect(toks, 0, "OPENQASM")
    if toks[1] != "2.0":
        raise _unexpected(toks, 1, f"unsupported version {toks[1]!r}")
    _expect(toks, 2, ";")


def _statement(toks: list[str], regs: dict[str, tuple]) -> Gate | None:
    """The gate of any later statement, or ``None`` for a declaration,
    which is recorded in ``regs``, or an include."""
    tok = toks[0]
    qreg = regs.get("qreg")
    kind = _GATE_KINDS.get(tok)
    if kind is not None:
        params: list[float] = []
        starts: list[int] = []  # the token each angle starts at
        i = 1
        n_angles = _PARAM_COUNT[kind]
        if n_angles:
            i = _expect(toks, i, "(") - 1  # each angle follows the "(" or a ","
            while not starts or toks[i] == ",":
                starts.append(i + 1)
                value, i = _expression(toks, i + 1)
                params.append(value)
            i = _expect(toks, i, ")")
            if len(params) != n_angles:
                raise _Reject(0, f"{tok} takes {n_angles} angle(s), got {len(params)}")
        operands, i = _qubits(toks, i, qreg)
        _expect(toks, i, ";")
        if kind is GateKind.CNOT:
            if len(operands) != 2:
                raise _Reject(0, "cx takes two qubits")
            if operands[0] == operands[1]:
                raise _Reject(0, "cx control and target must differ")
        elif len(operands) != 1:
            raise _Reject(0, f"{tok} takes one qubit")
        for start, value in zip(starts, params):
            if not math.isfinite(value):
                raise _Reject(start, f"non-finite angle in {tok} gate")
        return Gate._unchecked(kind, tuple(operands), tuple(params))
    if tok == "measure":
        q = _operand(toks, 1, qreg, "quantum")
        _expect(toks, 5, "->")
        c = _operand(toks, 6, regs.get("creg"), "classical")
        _expect(toks, 10, ";")
        return Gate._unchecked(GateKind.MEASURE, (q,), (), c)
    if tok == "barrier":
        if qreg is None:
            raise _Reject(0, "barrier before qreg declaration")
        if toks[1] == qreg[0] and toks[2] == ";":  # bare name: every qubit
            if not qreg[1]:
                raise _Reject(0, "barrier needs a nonempty set of distinct qubits")
            return Gate._unchecked(GateKind.BARRIER, _every(regs))
        operands, i = _qubits(toks, 1, qreg)
        _expect(toks, i, ";")
        if len(set(operands)) != len(operands):
            first: dict[int, int] = {}  # qubit -> where it is first named
            k = next(k for k, q in enumerate(operands) if first.setdefault(q, k) != k)
            raise _Reject(1 + 5 * k, f"repeated qubit {qreg[0]}[{operands[k]}] in barrier")
        return Gate._unchecked(GateKind.BARRIER, tuple(operands))
    if tok == "qreg" or tok == "creg":
        name = toks[1]
        if name[:1] not in _NAME_START:
            raise _unexpected(toks, 1, "expected a register name")
        _expect(toks, 2, "[")
        size = toks[3]
        if "." in size or not _is_digits(size[:1]):
            raise _unexpected(toks, 3, "register size must be an integer")
        _expect(toks, _expect(toks, 4, "]"), ";")
        if tok in regs:
            raise _Reject(0, f"only one {tok} is supported")
        if not _is_digits(size):  # an exponent (1e3), checked after the statement's form
            raise _Reject(3, "register size must be an integer")
        n = _integer(size)
        if n is None or n > MAX_REGISTER:
            raise _Reject(3, f"register size must be at most {MAX_REGISTER}")
        regs[tok] = (name, n)
        return None
    if tok == "include":
        if toks[1] != '"qelib1.inc"':
            raise _unexpected(toks, 1, f"unsupported include {toks[1]}")
        _expect(toks, 2, ";")
        return None
    if tok[0] in _NAME_START:
        raise _Reject(0, f"unsupported gate {tok!r}")
    raise _Reject(0, f"unexpected {tok!r}")


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
