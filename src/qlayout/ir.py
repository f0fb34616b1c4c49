"""Circuit intermediate representation.

The gate set is the OpenQASM 2.0 u-family plus CNOT: u1/u2/u3 carry one,
two and three Euler angles (radians, double precision), ``h`` is kept as
its own kind even though its matrix equals u2(0, pi), and measure/barrier
are carried through every transformation untouched.  The weighted gate
cost, :func:`price`, is defined here once: :func:`cost`, the pipeline's
report, the router's SWAP price and the benchmark all derive from it.

Everything here is immutable; transformations return new values.

Values are checked once, where they enter the program.  The public
constructors (``Gate(...)``, ``Circuit(...)``, ``cx``/``h``/``u1``/...,
``QubitMapping``) check every field: parameter count, finite angles,
operand count and distinctness, register sizes, qubit and clbit bounds.
Every integer field -- a register size, a qubit, a clbit, a mapped qubit,
and a coupling graph's size and edge endpoints -- is read by one rule,
:func:`_int_arg`: a Python or numpy integer is stored as ``int``, and
anything else (a float, a bool, a string) is a ``ValueError`` naming the
field, never truncated.  Every integer read from text -- a QASM index or
register size, a layout size, a CLI integer, a mapping key -- is spelled
by one rule too, :func:`_is_digits`: ASCII decimal digits.
The QASM reader makes the same checks on its input and builds its gates
and circuit without a second pass.  A rewrite inside the program (relabeling
through a permutation, a SWAP triple on a graph edge, a reversed CNOT, a
fused single-qubit gate, a widened register) builds values whose validity
follows from valid inputs, and the seeded random generator
(``bench.gen_random_circuit``) builds values valid by construction; both
use ``Gate._unchecked`` and
``Circuit._unchecked``, which store their arguments as given.  Those must
already be exactly what a checked construction would store: qubits as
``int`` in the register, angles as finite ``float``, in tuples.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence


class GateKind(Enum):
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    H = "h"
    CNOT = "cx"
    MEASURE = "measure"
    BARRIER = "barrier"

    # Members compare by identity, so they may hash by it too: Enum's own
    # __hash__ is a Python-level call on every set or dict lookup of a kind.
    __hash__ = object.__hash__


#: kinds counted as single-qubit gates (measure/barrier are bookkeeping, not gates)
SINGLE_QUBIT_KINDS = frozenset({GateKind.U1, GateKind.U2, GateKind.U3, GateKind.H})

#: qubits or bits a register may hold.  It bounds a QASM register, so that a
#: short text cannot make the reader build huge operand lists (``barrier q;``
#: names every qubit), and a coupling graph, whose width a transpiled
#: circuit takes on
MAX_REGISTER = 2**16


def _int_arg(value: object, name: str) -> int:
    """``value`` as a Python int; ``ValueError`` naming ``name`` if it is
    not an integer (a bool is not one here)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII decimal digits, ``0`` to ``9``:
    the one spelling of every integer the program reads from text (a QASM
    index or size, a layout size, a CLI integer, a mapping key).
    ``str.isdigit`` alone also takes the digits of other scripts."""
    return text.isascii() and text.isdigit()


_PARAM_COUNT = {
    GateKind.U1: 1,
    GateKind.U2: 2,
    GateKind.U3: 3,
    GateKind.H: 0,
    GateKind.CNOT: 0,
    GateKind.MEASURE: 0,
    GateKind.BARRIER: 0,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One circuit operation.

    ``qubits`` is ``(control, target)`` for CNOT and a single index for
    every other kind except barrier, which may list any number of qubits.
    ``clbit`` is set for measure only.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(_int_arg(q, "qubit") for q in self.qubits))
        if self.clbit is not None:
            object.__setattr__(self, "clbit", _int_arg(self.clbit, "clbit"))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.params) != _PARAM_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind.value} takes {_PARAM_COUNT[self.kind]} parameter(s), "
                f"got {len(self.params)}"
            )
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(f"non-finite angle in {self.kind.value} gate")
        if self.kind is GateKind.CNOT:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("cx needs two distinct qubits")
        elif self.kind is GateKind.BARRIER:
            if not self.qubits or len(set(self.qubits)) != len(self.qubits):
                raise ValueError("barrier needs a nonempty set of distinct qubits")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind.value} acts on exactly one qubit")
        if (self.clbit is not None) != (self.kind is GateKind.MEASURE):
            raise ValueError("clbit is set exactly for measure gates")

    @classmethod
    def _unchecked(cls, kind: GateKind, qubits: tuple[int, ...],
                   params: tuple[float, ...] = (), clbit: int | None = None) -> "Gate":
        """A gate from fields already known to be valid, stored as given
        (see the module docstring); no check, no conversion."""
        g = object.__new__(cls)
        _set_kind(g, kind)
        _set_qubits(g, qubits)
        _set_params(g, params)
        _set_clbit(g, clbit)
        return g

    @property
    def is_single_qubit(self) -> bool:
        return self.kind in SINGLE_QUBIT_KINDS

    def _moved(self, perm: Sequence[int]) -> "Gate":
        """This gate with each qubit q on ``perm[q]``, unchecked: ``perm``
        must map distinct qubits to distinct ints, so operands stay
        distinct; that they lie in the register is the caller's to ensure."""
        qubits = self.qubits
        if len(qubits) == 1:
            moved = (perm[qubits[0]],)
        elif len(qubits) == 2:
            moved = (perm[qubits[0]], perm[qubits[1]])
        else:
            moved = tuple(map(perm.__getitem__, qubits))
        if moved == qubits:
            return self
        return Gate._unchecked(self.kind, moved, self.params, self.clbit)


# The slots' own setters: they write a frozen gate's fields without going
# through its __setattr__, which refuses.
_set_kind = Gate.kind.__set__
_set_qubits = Gate.qubits.__set__
_set_params = Gate.params.__set__
_set_clbit = Gate.clbit.__set__


def u1(lam: float, q: int) -> Gate:
    return Gate(GateKind.U1, (q,), (lam,))


def u2(phi: float, lam: float, q: int) -> Gate:
    return Gate(GateKind.U2, (q,), (phi, lam))


def u3(theta: float, phi: float, lam: float, q: int) -> Gate:
    return Gate(GateKind.U3, (q,), (theta, phi, lam))


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def measure(q: int, c: int) -> Gate:
    return Gate(GateKind.MEASURE, (q,), clbit=c)


def barrier(*qubits: int) -> Gate:
    return Gate(GateKind.BARRIER, tuple(qubits))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` qubits and ``num_clbits``
    bits, each register holding 0 to :data:`MAX_REGISTER`.

    Gate order is program order: the first gate acts first, so the circuit
    unitary is the right-to-left product of the gate matrices.
    """

    num_qubits: int
    num_clbits: int = 0
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for name in ("num_qubits", "num_clbits"):
            size = _int_arg(getattr(self, name), name)
            if not 0 <= size <= MAX_REGISTER:
                raise ValueError(f"{name} must be in 0..{MAX_REGISTER} (MAX_REGISTER), "
                                 f"got {size}")
            object.__setattr__(self, name, size)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g.kind.value} touches qubit outside 0..{self.num_qubits - 1}")
            if g.clbit is not None and not (0 <= g.clbit < self.num_clbits):
                raise ValueError(f"measure writes clbit outside 0..{self.num_clbits - 1}")

    @classmethod
    def _unchecked(cls, num_qubits: int, num_clbits: int,
                   gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit whose gates are already known to lie in its registers,
        stored as given (see the module docstring)."""
        c = object.__new__(cls)
        object.__setattr__(c, "num_qubits", num_qubits)
        object.__setattr__(c, "num_clbits", num_clbits)
        object.__setattr__(c, "gates", gates)
        return c

    def __len__(self) -> int:
        return len(self.gates)

    def with_gates(self, gates: Iterable[Gate]) -> "Circuit":
        return Circuit(self.num_qubits, self.num_clbits, tuple(gates))

    def widened(self, num_qubits: int) -> "Circuit":
        """Same gates on a register of at least the current size."""
        if num_qubits < self.num_qubits:
            raise ValueError("cannot shrink a circuit")
        return Circuit._unchecked(num_qubits, self.num_clbits, self.gates)


@dataclass(frozen=True)
class QubitMapping:
    """A relabeling of qubit indices: a bijection where unlisted indices map
    to themselves.  The empty mapping is the identity."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = [(_int_arg(a, "mapped qubit"), _int_arg(b, "mapped qubit")) for a, b in self.pairs]
        cleaned = tuple(sorted((a, b) for a, b in pairs if a != b))
        object.__setattr__(self, "pairs", cleaned)
        srcs = [a for a, _ in cleaned]
        dsts = [b for _, b in cleaned]
        if len(set(srcs)) != len(srcs) or sorted(srcs) != sorted(dsts):
            raise ValueError(f"not a bijection: {dict(cleaned)}")

    @classmethod
    def identity(cls) -> "QubitMapping":
        return cls(())

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "QubitMapping":
        return cls(tuple(d.items()))

    @classmethod
    def swap(cls, a: int, b: int) -> "QubitMapping":
        return cls(((a, b), (b, a)))

    def __call__(self, q: int) -> int:
        for a, b in self.pairs:
            if a == q:
                return b
        return q

    @property
    def is_identity(self) -> bool:
        return not self.pairs

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def then(self, later: "QubitMapping") -> "QubitMapping":
        """Composition: apply ``self`` first, then ``later``."""
        keys = {a for a, _ in self.pairs + later.pairs}
        return QubitMapping.from_dict({q: later(self(q)) for q in keys})


def _as_mapping(mapping: QubitMapping | Mapping[int, int]) -> QubitMapping:
    """``mapping`` itself, or the :class:`QubitMapping` of a ``{from: to}`` dict."""
    if isinstance(mapping, QubitMapping):
        return mapping
    return QubitMapping.from_dict(mapping)


def apply_mapping(circuit: Circuit, mapping: QubitMapping | Mapping[int, int]) -> Circuit:
    """Rewrite the qubit indices of every gate; classical bits are untouched.
    A gate on a qubit sent outside the register is a ``ValueError``."""
    mapping = _as_mapping(mapping)
    if mapping.is_identity:
        return circuit
    n = circuit.num_qubits
    perm = list(range(n))
    for a, b in mapping.pairs:
        if 0 <= a < n:  # no gate touches a qubit outside the register
            perm[a] = b
    return Circuit(n, circuit.num_clbits, tuple(g._moved(perm) for g in circuit.gates))


def gate_counts(circuit: Circuit) -> tuple[int, int]:
    """(CNOT count, single-qubit gate count); measure/barrier excluded."""
    n2 = n1 = 0
    cnot = GateKind.CNOT
    for g in circuit.gates:
        kind = g.kind
        if kind in SINGLE_QUBIT_KINDS:
            n1 += 1
        elif kind is cnot:
            n2 += 1
    return n2, n1


#: weighted gate-count prices; one routed SWAP (3 CNOTs + 4 H) costs 34
CNOT_COST = 10
SINGLE_COST = 1


def price(cnots: int, singles: int) -> int:
    """Weighted gate count: :data:`CNOT_COST` per CNOT, :data:`SINGLE_COST` per single."""
    return cnots * CNOT_COST + singles * SINGLE_COST


def cost(circuit: Circuit) -> int:
    """The :func:`price` of a circuit's :func:`gate_counts`."""
    return price(*gate_counts(circuit))


# --- 2x2 gate matrices -------------------------------------------------------
#
# Matrices are row-major 4-tuples (a, b, c, d) = [[a, b], [c, d]] of complex
# scalars; plain cmath is much faster than numpy for one matrix at a time.
# The merge pass tests its runs with them, and the tests take them as the
# reference products; the statevector oracle builds its matrices in batches.

Mat2 = tuple[complex, complex, complex, complex]

#: per single-qubit kind, the u3 angles it fixes, ahead of its own
#: parameters: u1(lam) is u3(0, 0, lam), u2(phi, lam) is u3(pi/2, phi, lam)
#: and h is u2(0, pi)
_U3_PREFIX = {
    GateKind.U3: (),
    GateKind.U2: (math.pi / 2,),
    GateKind.U1: (0.0, 0.0),
    GateKind.H: (math.pi / 2, 0.0, math.pi),
}


def u3_angles(gate: Gate) -> tuple[float, float, float]:
    """(theta, phi, lam) of the u3 equal to a single-qubit gate."""
    try:
        return _U3_PREFIX[gate.kind] + gate.params
    except KeyError:
        raise ValueError(f"{gate.kind.value} is not a single-qubit gate") from None


def u3_matrix(theta: float, phi: float, lam: float) -> Mat2:
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return (c + 0j, -cmath.exp(1j * lam) * s,
            cmath.exp(1j * phi) * s, cmath.exp(1j * (lam + phi)) * c)


def single_qubit_matrix(gate: Gate) -> Mat2:
    """Matrix of a single-qubit gate, the u3 of :func:`u3_angles`."""
    return u3_matrix(*u3_angles(gate))


def mat2_mul(x: Mat2, y: Mat2) -> Mat2:
    """Matrix product x @ y."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])
