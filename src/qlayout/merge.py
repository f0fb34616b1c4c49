"""Single-qubit gate fusion.

Any single-qubit gate factors as Rz(phi) Ry(theta) Rz(lam), which is the
u3 parameterization up to global phase; :func:`~qlayout.ir.u3_angles`
reads every kind as a u3 (u1 is a bare Rz, u2 pins theta to pi/2, h is
u2(0, pi)).  Multiplying two such gates therefore reduces to rewriting the
inner Ry(t1) Rz(mid) Ry(t2) sandwich back into Z-Y order; :func:`yz_to_zy`
does that rewrite and everything else is angle addition.

One private core, :func:`_product`, multiplies two gates given as a kind
and its angles: it dispatches on the two kinds and runs the Y-Z rewrite on
raw floats (:func:`_yz_to_zy`, which :func:`yz_to_zy` returns as a
:class:`ZYTriple`).  :func:`merge_adjacent` calls it once its operands are
checked.  :func:`merge_single_qubit_runs` keeps each open run as the kind
and angles of its product so far, and builds one gate per run when the run
ends; a run of one gate is emitted as that gate.

All identities here hold modulo global phase, which is physically
unobservable and discarded throughout.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .ir import (
    _U3_PREFIX,
    SINGLE_QUBIT_KINDS,
    Circuit,
    Gate,
    GateKind,
    Mat2,
    single_qubit_matrix,
    u3_angles,
)

#: below this, sin/cos of half-angles are treated as zero (gimbal lock)
ATOL = 1e-9

_TAU = 2 * math.pi


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.remainder(angle, _TAU)
    if a <= -math.pi:
        return math.pi
    return a if a != 0.0 else 0.0  # no -0.0


class ZYTriple(NamedTuple):
    """Angles of Rz(phi) Ry(theta) Rz(lam), i.e. u3(theta, phi, lam) up to
    phase; theta is canonical in [0, pi], phi and lam in (-pi, pi]."""

    theta: float
    phi: float
    lam: float


def yz_to_zy(theta1: float, mid: float, theta2: float) -> ZYTriple:
    """Rewrite Ry(theta1) Rz(mid) Ry(theta2) as Rz(phi) Ry(theta) Rz(lam).

    The product is special unitary, so the angles can be read off its
    entries: |m00| = cos(theta/2), |m10| = sin(theta/2), and the entry
    phases carry phi +- lam.  When theta lands on 0 or pi the two Z angles
    are not separable; the whole Z rotation is folded into phi and lam is
    pinned to 0.
    """
    return ZYTriple._make(_yz_to_zy(theta1, mid, theta2))


def _yz_to_zy(theta1: float, mid: float, theta2: float) -> tuple[float, float, float]:
    """:func:`yz_to_zy` as a plain (theta, phi, lam) tuple."""
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    c2, s2 = math.cos(theta2 / 2), math.sin(theta2 / 2)
    em, ep = cmath.exp(-0.5j * mid), cmath.exp(0.5j * mid)
    # Ry(theta1) @ Rz(mid) @ Ry(theta2), written out
    m00 = c1 * em * c2 - s1 * ep * s2
    m10 = s1 * em * c2 + c1 * ep * s2
    cos_half = abs(m00)
    sin_half = abs(m10)
    theta = 2 * math.atan2(sin_half, cos_half)
    if sin_half < ATOL:
        return 0.0, _wrap(-2 * cmath.phase(m00)), 0.0
    if cos_half < ATOL:
        return math.pi, _wrap(2 * cmath.phase(m10)), 0.0
    arg10, arg00 = cmath.phase(m10), cmath.phase(m00)
    return theta, _wrap(arg10 - arg00), _wrap(-arg10 - arg00)


_U1, _U2, _U3 = GateKind.U1, GateKind.U2, GateKind.U3


def _product(later: GateKind, lp: tuple[float, ...],
             earlier: GateKind, ep: tuple[float, ...]) -> tuple[GateKind, tuple[float, ...]]:
    """Kind and angles of the gate ``later(lp) @ earlier(ep)``, two
    single-qubit gates given by kind and angles: the fusion core that
    :func:`merge_adjacent` and :func:`merge_single_qubit_runs` share.

    Pure-Rz neighbours reduce to angle addition; anything else goes through
    the Y-Z rewrite, and the result is the cheapest kind realizing the
    Rz Ry Rz product.  The angles of a gate whose operands are finite are
    finite, except where two large angles add up to an infinity: a wrap of
    it raises, and the Y-Z rewrite turns it into NaN, which is refused
    here.
    """
    if later is _U1:
        if earlier is _U1:
            return _U1, (_wrap(lp[0] + ep[0]),)
        t, p, l = _U3_PREFIX[earlier] + ep
        if earlier is _U3:
            return _U3, (t, _wrap(p + lp[0]), l)
        return _U2, (_wrap(p + lp[0]), _wrap(l))
    if earlier is _U1:
        t, p, l = _U3_PREFIX[later] + lp
        if later is _U3:
            return _U3, (t, p, _wrap(l + ep[0]))
        return _U2, (_wrap(p), _wrap(l + ep[0]))

    t1, p1, l1 = _U3_PREFIX[later] + lp
    t2, p2, l2 = _U3_PREFIX[earlier] + ep
    theta, alpha, gamma = _yz_to_zy(t1, l1 + p2, t2)
    if theta != theta:  # l1 + p2 overflowed, and every angle is NaN
        raise ValueError("non-finite angle in u3 gate")
    phi, lam = p1 + alpha, gamma + l2
    if abs(theta) < ATOL:
        return _U1, (_wrap(phi + lam),)
    if abs(theta - math.pi / 2) < ATOL:
        return _U2, (_wrap(phi), _wrap(lam))
    return _U3, (theta, _wrap(phi), _wrap(lam))


def merge_adjacent(later: Gate, earlier: Gate) -> Gate:
    """Fuse two single-qubit gates on the same qubit into one.

    The result's matrix equals matrix(later) @ matrix(earlier) up to global
    phase (``earlier`` acts first in program order).  Pure-Rz neighbours
    reduce to angle addition; anything else goes through the Y-Z rewrite.
    """
    if not later.is_single_qubit or not earlier.is_single_qubit:
        raise ValueError("only single-qubit gates can be fused")
    if later.qubits != earlier.qubits:
        raise ValueError(f"gates act on different qubits: {later.qubits} vs {earlier.qubits}")
    kind, params = _product(later.kind, later.params, earlier.kind, earlier.params)
    return Gate._unchecked(kind, later.qubits, params)


def _may_be_identity(gate: Gate) -> bool:
    """False for a gate whose matrix :func:`_is_identity` must reject, read
    off the angles before any matrix is built: |m01| = |sin(theta/2)|, up
    to rounding of a unit phase, so above 2 * ATOL the gate fails the
    off-diagonal test.  Only rules out: a True still needs the matrix."""
    return abs(math.sin(u3_angles(gate)[0] / 2)) <= 2 * ATOL


def _is_identity(m: Mat2, atol: float = ATOL) -> bool:
    """Whether a unitary equals the identity up to global phase."""
    if abs(m[1]) > atol or abs(m[2]) > atol:
        return False
    unit = m[0] / abs(m[0])
    return abs(m[0] - unit) <= atol and abs(m[3] - unit) <= atol


def merge_single_qubit_runs(circuit: Circuit) -> Circuit:
    """Fuse every maximal run of single-qubit gates per qubit.

    A run ends where a CNOT, measure or barrier touches the qubit; the
    fused gate is emitted there (or at the end of the circuit), so CNOT
    order and cross-qubit ordering are preserved.  Runs that fuse to the
    identity are dropped.  Lone gates pass through unchanged, which makes
    the pass idempotent.

    An open run is kept as the kind and angles of its product so far, and
    one gate is built for it when it ends.
    """
    # qubit -> (kind, angles, gate) of the open run; the gate is its only
    # gate, or None once a second one has been fused in
    runs: dict[int, tuple[GateKind, tuple[float, ...], Gate | None]] = {}
    out: list[Gate] = []

    def flush(q: int) -> None:
        kind, params, gate = runs.pop(q)
        if gate is None:
            gate = Gate._unchecked(kind, (q,), params)
        if not (_may_be_identity(gate) and _is_identity(single_qubit_matrix(gate))):
            out.append(gate)

    for g in circuit.gates:
        kind = g.kind
        if kind in SINGLE_QUBIT_KINDS:
            q = g.qubits[0]
            run = runs.get(q)
            if run is None:
                runs[q] = (kind, g.params, g)
            else:
                kind, params = _product(kind, g.params, run[0], run[1])
                runs[q] = (kind, params, None)
        else:
            ended = [q for q in g.qubits if q in runs]
            if ended:
                ended.sort()
                for q in ended:
                    flush(q)
            out.append(g)
    for q in sorted(runs):
        flush(q)
    return Circuit._unchecked(circuit.num_qubits, circuit.num_clbits, tuple(out))
