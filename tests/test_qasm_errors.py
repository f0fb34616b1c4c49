"""Golden outcomes of the QASM reader on seeded mutations of small programs.

Each case is a short program, a few of whose tokens or characters were
inserted, deleted or replaced, or which was cut short.  The recorded
outcome is either the exception the reader raised -- for a ``QasmError``
its message, line and column -- or the text that ``emit_qasm`` gives for
the circuit it returned.  Only the outcomes are stored; the inputs are
regenerated from the seed, so any change to which inputs are accepted,
to what they parse to, or to the first error reported and where, shows
up here.

Re-record after an intended change with::

    PYTHONPATH=src python tests/test_qasm_errors.py
"""
import json
import random
import re
from pathlib import Path

import qlayout as ql
from qlayout.qasm import QasmError

DATA = Path(__file__).with_name("data") / "qasm_errors.json"
SEED = 20250808
N_CASES = 1000

# Together these cover every statement form the reader accepts.
BASES = (
    'OPENQASM 2.0;\n'
    'include "qelib1.inc";\n'
    '// two qubits, two bits\n'
    'qreg q[2];\n'
    'creg c[2];\n'
    'u1(pi/2) q[0];\n'
    'h q[1];  // trailing comment\n'
    'cx q[0],q[1];\n'
    'measure q[0] -> c[1];\n',
    'OPENQASM 2.0; qreg r[3]; creg m[1]; u2(0.5,pi-1+2) r[1]; barrier r; '
    'cx r[2],r[0]; measure r[1]->m[0];',
    'OPENQASM 2.0;\nqreg q[2];\nu3((pi+1)/2,2*pi/3,-0.25e1) q[0];\n'
    'barrier q[0],q[1];\nu1(-(pi-.5)*2) q[1];\n',
    'OPENQASM 2.0;\nqreg q[1];\nu3(1.5e-3, pi/4/2, +3) q[0];\nbarrier q[0];\n',
)

# A lexer for the mutator only, independent of the one under test.
_PIECE = re.compile(r'//[^\n]*|\s+|\d*\.?\d+(?:[eE][+-]?\d+)?|[A-Za-z_][\w.]*'
                    r'|"[^"\n]*"|->|\S')
NUMBERS = ('0', '1', '2', '7', '1.5', '.5', '2.', '3e-2', '1e3', '1e999', '1e308')
TOKEN_POOL = NUMBERS + (
    'OPENQASM', '2.0', '3.0', 'include', '"qelib1.inc"', '"other.inc"', 'qreg', 'creg',
    'q', 'r', 'c', 'u1', 'u2', 'u3', 'h', 'cx', 'ccx', 'measure', 'barrier', 'pi',
    '(', ')', '[', ']', ',', ';', '*', '/', '+', '-', '->', '//', '@', '"')
CHAR_POOL = '0123456789.eE+-*/()[],;>" \n\tqcrpiuhx@$_'
FILLERS = (' ', '\n', '\t', ' // note\n', '\n\n  ')


def _mutate_once(rng: random.Random, text: str) -> str:
    if not text:
        return rng.choice(TOKEN_POOL)
    op = rng.choice(("insert token", "delete token", "replace token", "replace number",
                     "insert filler", "insert char", "delete char", "replace char",
                     "truncate"))
    if op == "truncate":
        return text[:rng.randrange(len(text) + 1)]
    if op.endswith("char"):
        i = rng.randrange(len(text))
        if op == "insert char":
            return text[:i] + rng.choice(CHAR_POOL) + text[i:]
        if op == "delete char":
            return text[:i] + text[i + 1:]
        return text[:i] + rng.choice(CHAR_POOL) + text[i + 1:]
    pieces = _PIECE.findall(text)
    slots = [k for k, p in enumerate(pieces)
             if not p.isspace() and (op != "replace number" or p[-1].isdigit())]
    if not slots:
        return text + rng.choice(TOKEN_POOL)
    k = rng.choice(slots)
    if op == "insert token":
        pieces.insert(k, rng.choice(TOKEN_POOL) + rng.choice(("", " ")))
    elif op == "insert filler":
        pieces.insert(k, rng.choice(FILLERS))
    elif op == "delete token":
        del pieces[k]
    elif op == "replace number":
        pieces[k] = rng.choice(NUMBERS)
    else:
        pieces[k] = rng.choice(TOKEN_POOL)
    return "".join(pieces)


def cases() -> list[str]:
    rng = random.Random(SEED)
    out = []
    for _ in range(N_CASES):
        text = rng.choice(BASES)
        for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
            text = _mutate_once(rng, text)
        out.append(text)
    return out


def outcome(text: str) -> list:
    try:
        circuit = ql.parse_qasm(text)
    except QasmError as e:  # the message must start with the position it reports
        return ["QasmError", e.line, e.column,
                str(e).removeprefix(f"line {e.line}, column {e.column}: ")]
    except ValueError as e:
        return [type(e).__name__, str(e)]
    return ["ok", ql.emit_qasm(circuit)]


def test_outcomes_match_golden():
    golden = json.loads(DATA.read_text())
    assert golden["seed"] == SEED and len(golden["outcomes"]) == N_CASES
    mismatches = [(i, text, want, outcome(text))
                  for i, (text, want) in enumerate(zip(cases(), golden["outcomes"]))
                  if outcome(text) != want]
    assert not mismatches, f"{len(mismatches)} differ; first: {mismatches[0]}"


def test_corpus_exercises_both_outcomes():
    kinds = [o[0] for o in json.loads(DATA.read_text())["outcomes"]]
    assert kinds.count("ok") >= 100 and kinds.count("QasmError") >= 500


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(outcome(t)) for t in cases())
    DATA.write_text(f'{{"seed": {SEED}, "outcomes": [\n{rows}\n]}}\n')
    print(f"wrote {DATA}")
