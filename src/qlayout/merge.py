"""Single-qubit gate fusion.

Any single-qubit gate factors as Rz(phi) Ry(theta) Rz(lam), which is the
u3 parameterization up to global phase (u1 is a bare Rz, u2 pins theta to
pi/2, h is u2(0, pi)).  Multiplying two such gates therefore reduces to
rewriting the inner Ry(t1) Rz(mid) Ry(t2) sandwich back into Z-Y order;
:func:`yz_to_zy` does that rewrite and everything else is angle addition.

All identities here hold modulo global phase, which is physically
unobservable and discarded throughout.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .ir import (
    Circuit,
    Gate,
    GateKind,
    Mat2,
    mat2_mul,
    single_qubit_matrix,
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
        return ZYTriple(0.0, _wrap(-2 * cmath.phase(m00)), 0.0)
    if cos_half < ATOL:
        return ZYTriple(math.pi, _wrap(2 * cmath.phase(m10)), 0.0)
    phi = cmath.phase(m10) - cmath.phase(m00)
    lam = -cmath.phase(m10) - cmath.phase(m00)
    return ZYTriple(theta, _wrap(phi), _wrap(lam))


def _as_zyz(gate: Gate) -> tuple[float, float, float]:
    """(theta, phi, lam) of a single-qubit gate, h included."""
    if gate.kind is GateKind.U1:
        return 0.0, gate.params[0], 0.0
    if gate.kind is GateKind.U2:
        return math.pi / 2, gate.params[0], gate.params[1]
    if gate.kind is GateKind.U3:
        return gate.params
    if gate.kind is GateKind.H:
        return math.pi / 2, 0.0, math.pi
    raise ValueError(f"{gate.kind.value} is not a single-qubit gate")


def _from_zyz(theta: float, phi: float, lam: float, qubit: int) -> Gate:
    """Cheapest gate kind realizing Rz(phi) Ry(theta) Rz(lam)."""
    if abs(theta) < ATOL:
        return _fused(GateKind.U1, qubit, (_wrap(phi + lam),))
    if abs(theta - math.pi / 2) < ATOL:
        return _fused(GateKind.U2, qubit, (_wrap(phi), _wrap(lam)))
    return _fused(GateKind.U3, qubit, (theta, _wrap(phi), _wrap(lam)))


def _fused(kind: GateKind, qubit: int, params: tuple[float, ...]) -> Gate:
    """A fused gate.  Its qubit is an input gate's and its angles are
    floats, as many as its kind takes, so only finiteness is checked: two
    large angles can add up to an infinity, which the Y-Z rewrite turns
    into NaN."""
    if not all(map(math.isfinite, params)):
        raise ValueError(f"non-finite angle in {kind.value} gate")
    return Gate._unchecked(kind, (qubit,), params)


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
    qubit = later.qubits[0]

    if later.kind is GateKind.U1 and earlier.kind is GateKind.U1:
        return _fused(GateKind.U1, qubit, (_wrap(later.params[0] + earlier.params[0]),))
    if later.kind is GateKind.U1:
        t, p, l = _as_zyz(earlier)
        kind = GateKind.U2 if earlier.kind in (GateKind.U2, GateKind.H) else earlier.kind
        if kind is GateKind.U2:
            return _fused(GateKind.U2, qubit, (_wrap(p + later.params[0]), _wrap(l)))
        return _fused(GateKind.U3, qubit, (t, _wrap(p + later.params[0]), l))
    if earlier.kind is GateKind.U1:
        t, p, l = _as_zyz(later)
        kind = GateKind.U2 if later.kind in (GateKind.U2, GateKind.H) else later.kind
        if kind is GateKind.U2:
            return _fused(GateKind.U2, qubit, (_wrap(p), _wrap(l + earlier.params[0])))
        return _fused(GateKind.U3, qubit, (t, p, _wrap(l + earlier.params[0])))

    t1, p1, l1 = _as_zyz(later)
    t2, p2, l2 = _as_zyz(earlier)
    theta, alpha, gamma = yz_to_zy(t1, l1 + p2, t2)
    return _from_zyz(theta, p1 + alpha, gamma + l2, qubit)


def _may_be_identity(gate: Gate) -> bool:
    """False for a gate whose matrix :func:`_is_identity` must reject, read
    off the angles before any matrix is built.  u2 and h have
    |m01| = 1/sqrt(2); a u3 has |m01| = |sin(theta/2)|, up to rounding of a
    unit phase, so above 2 * ATOL it fails the off-diagonal test.  Only
    rules out: a True still needs the matrix."""
    kind = gate.kind
    if kind is GateKind.U2 or kind is GateKind.H:
        return False
    return kind is not GateKind.U3 or abs(math.sin(gate.params[0] / 2)) <= 2 * ATOL


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
    """
    pending: dict[int, Gate] = {}  # qubit -> fused gate of the open run
    out: list[Gate] = []

    def flush(q: int) -> None:
        gate = pending.pop(q, None)
        if gate is not None and not (_may_be_identity(gate)
                                     and _is_identity(single_qubit_matrix(gate))):
            out.append(gate)

    for g in circuit.gates:
        if g.is_single_qubit:
            q = g.qubits[0]
            pending[q] = merge_adjacent(g, pending[q]) if q in pending else g
        else:
            for q in sorted(set(g.qubits) & pending.keys()):
                flush(q)
            out.append(g)
    for q in sorted(pending):
        flush(q)
    return Circuit._unchecked(circuit.num_qubits, circuit.num_clbits, tuple(out))
