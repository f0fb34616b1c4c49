"""Dense statevector simulation and equivalence checking.

Qubit 0 is the least significant bit of the basis index, so basis state
``|b>`` assigns bit ``(b >> q) & 1`` to qubit q.  Circuits are limited to
16 qubits; measures and barriers are treated as the identity, since the
oracle compares states, not samples.

A circuit is run on a (2**n, k) block of column states in two steps:

* *Fusion.*  One pass over the gates turns the circuit into a short list
  of dense blocks.  Consecutive single-qubit gates on a qubit multiply out
  to one 2x2 (``ir.mat2_mul``).  A CNOT opens a 4x4 block on its pair,
  folding in the 2x2s pending on both qubits, or extends the pair's open
  block; gates on either qubit of an open block join it.  A CNOT that
  would join two open blocks, or one open block and a third qubit, first
  closes -- emits -- the blocks it straddles.  Open blocks sit on disjoint
  qubits, so they commute, and the order in which they are emitted only
  has to respect each qubit's own gate order.  The 2x2s of all the
  single-qubit gates come from one vectorized evaluation of the u3
  formula, and a pair block keeps one 4x4 factor per CNOT (the CNOT's row
  swap after the Kronecker product of the 2x2s pending on its qubits),
  multiplied out when the block closes.
* *Kernels.*  A 2x2 on qubit q is one broadcast ``matmul`` over the
  ``(2**(n-q-1), 2, 2**q * k)`` view of the block.  A 4x4 on a pair
  gathers the rows grouped by the pair's two bits -- a strided copy
  through a transposed view, so no index table is built -- multiplies
  them by the block in one ``(4, 4) @ (4, 2**n * k / 4)`` product and
  scatters the result back.  Each kernel reads one buffer and writes the
  other, so a run holds exactly two blocks however long the circuit.

The probe states are built in one pass: the angles of all product probes
are one ``rng.random`` draw -- the same doubles, in the same order, that
scalar ``uniform(0, pi)``/``uniform(0, 2 pi)`` calls give -- and the
product states grow together, one concatenation per qubit.

Nothing is cached between calls: each call fuses its circuits afresh, so
its cost is the cost of checking those circuits, whatever was checked
before.
"""
from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from .ir import (
    IDENTITY_2,
    SINGLE_QUBIT_KINDS,
    Circuit,
    Gate,
    GateKind,
    Mat2,
    QubitMapping,
    mat2_mul,
    u3_angles,
)

MAX_QUBITS = 16

#: probe budget for registers too large to sweep every basis state
BASIS_PROBES = 32
PRODUCT_PROBES = 8


def _single_matrices(gates: Sequence[Gate]) -> list[list[complex]]:
    """The row-major 2x2 of every single-qubit gate, in order, from one
    vectorized evaluation of ``ir.u3_matrix``'s formula over the
    ``ir.u3_angles`` of all of them; each agrees with
    ``ir.single_qubit_matrix`` to rounding."""
    angles = [u3_angles(g) for g in gates if g.kind in SINGLE_QUBIT_KINDS]
    theta, phi, lam = np.array(angles, dtype=float).reshape(-1, 3).T
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    e_phi, e_lam = np.exp(1j * phi), np.exp(1j * lam)
    return np.stack((cos + 0j, -e_lam * sin, e_phi * sin, e_phi * e_lam * cos),
                    axis=1).tolist()


def _kron(x: Mat2, y: Mat2) -> list[complex]:
    """Row-major 4x4 ``x (x) y``: x acts on the high bit of the local index."""
    a, b, c, d = x
    e, f, g, h = y
    return [a * e, a * f, b * e, b * f,
            a * g, a * h, b * g, b * h,
            c * e, c * f, d * e, d * f,
            c * g, c * h, d * g, d * h]


class _Pair:
    """An open 4x4 block on qubits (x, y), whose local index is
    ``2 * bit(x) + bit(y)``: its factors so far, each a row-major 4x4
    list, and the single-qubit gates since its last CNOT."""

    __slots__ = ("x", "y", "factors", "ux", "uy")

    def __init__(self, x: int, y: int, ux: Mat2 | None, uy: Mat2 | None):
        self.x, self.y = x, y
        self.factors: list[list[complex]] = []
        self.ux, self.uy = ux, uy

    def cnot(self, control: int) -> None:
        """Append the pending single-qubit gates, then a CNOT: it swaps
        rows 2 and 3 when x is the control, rows 1 and 3 when y is."""
        f = _kron(self.ux or IDENTITY_2, self.uy or IDENTITY_2)
        a = 8 if control == self.x else 4
        f[a:a + 4], f[12:16] = f[12:16], f[a:a + 4]
        self.factors.append(f)
        self.ux = self.uy = None

    def matrix(self) -> np.ndarray:
        """The product of the factors, the pending gates last."""
        if self.ux is not None or self.uy is not None:
            self.factors.append(_kron(self.ux or IDENTITY_2, self.uy or IDENTITY_2))
        factors = np.array(self.factors, dtype=np.complex128).reshape(-1, 4, 4)
        product = factors[0]
        for f in factors[1:]:
            product = f @ product
        return product


def _fuse(gates: Sequence[Gate]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The gates as dense blocks ``(qubits, matrix)``, in an order that
    keeps every qubit's gates in program order; a 4x4 on ``(x, y)`` has
    local index ``2 * bit(x) + bit(y)``."""
    blocks: list[tuple[tuple[int, ...], np.ndarray]] = []
    single: dict[int, Mat2] = {}  # pending 2x2s on qubits outside any pair
    pair: dict[int, _Pair] = {}   # open pair of each of its two qubits
    matrices = iter(_single_matrices(gates))
    cnot, measure, barrier = GateKind.CNOT, GateKind.MEASURE, GateKind.BARRIER

    def close(p: _Pair) -> None:
        blocks.append(((p.x, p.y), p.matrix()))
        del pair[p.x], pair[p.y]

    for g in gates:
        kind = g.kind
        if kind is cnot:
            c, t = g.qubits
            p = pair.get(c)
            if p is None or pair.get(t) is not p:
                for q in (c, t):
                    if q in pair:
                        close(pair[q])
                p = _Pair(c, t, single.pop(c, None), single.pop(t, None))
                pair[c] = pair[t] = p
            p.cnot(c)
        elif kind is not measure and kind is not barrier:
            q = g.qubits[0]
            u = next(matrices)
            p = pair.get(q)
            if p is None:
                prev = single.get(q)
                single[q] = u if prev is None else mat2_mul(u, prev)
            elif q == p.x:
                p.ux = u if p.ux is None else mat2_mul(u, p.ux)
            else:
                p.uy = u if p.uy is None else mat2_mul(u, p.uy)
        # measure/barrier: identity
    for p in {id(p): p for p in pair.values()}.values():
        close(p)
    for q, u in single.items():
        blocks.append(((q,), np.array(u, dtype=np.complex128).reshape(2, 2)))
    return blocks


def _apply(circuit: Circuit, block: np.ndarray) -> np.ndarray:
    """Run the circuit on a (2**n, k) block of column states, n at least
    the circuit's width, and return the result.  ``block`` is used as one
    of the two work buffers, so its contents are lost."""
    dim, k = block.shape
    src, dst = block, np.empty_like(block)
    for qubits, matrix in _fuse(circuit.gates):
        if len(qubits) == 1:
            q = qubits[0]
            shape = (dim >> (q + 1), 2, k << q)
            np.matmul(matrix, src.reshape(shape), out=dst.reshape(shape))
        else:
            x, y = qubits
            lo, hi = min(x, y), max(x, y)
            shape = (dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, k << lo)
            axes = (1, 3, 0, 2, 4) if x == hi else (3, 1, 0, 2, 4)
            grouped = dst.reshape((2, 2) + shape[0:5:2])
            np.copyto(grouped, src.reshape(shape).transpose(axes))
            np.matmul(matrix, grouped.reshape(4, -1), out=src.reshape(4, -1))
            np.copyto(dst.reshape(shape).transpose(axes), src.reshape(grouped.shape))
        src, dst = dst, src
    return src


def simulate(circuit: Circuit, initial: int | np.ndarray = 0) -> np.ndarray:
    """Statevector after the circuit, from a basis index or a state vector."""
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit simulator limit")
    dim = 1 << n
    if isinstance(initial, (int, np.integer)):
        if not (0 <= initial < dim):
            raise ValueError(f"basis index {initial} outside 0..{dim - 1}")
        state = np.zeros(dim, dtype=np.complex128)
        state[initial] = 1.0
    else:
        state = np.asarray(initial, dtype=np.complex128).reshape(dim).copy()
        norm = np.linalg.norm(state)
        if norm == 0:
            raise ValueError("initial state must be nonzero")
        state /= norm
    return _apply(circuit, state.reshape(dim, 1)).reshape(dim)


def permute_amplitudes(state: np.ndarray, mapping: QubitMapping,
                       num_qubits: int) -> np.ndarray:
    """``state`` (rows indexed by basis state) under the relabeling
    ``mapping``: the amplitude of basis index b moves to sigma[b], where
    bit q of b lands on wire mapping(q).  A mapping that moves a qubit of the register
    outside 0..num_qubits-1 is a ValueError."""
    wires = [mapping(q) for q in range(num_qubits)]
    if not all(0 <= w < num_qubits for w in wires):
        raise ValueError(f"mapping {mapping.as_dict()} moves a qubit outside "
                         f"0..{num_qubits - 1}")
    idx = np.arange(1 << num_qubits)
    sigma = np.zeros_like(idx)
    for q, w in enumerate(wires):
        sigma |= ((idx >> q) & 1) << w
    out = np.empty_like(state)
    out[sigma] = state
    return out


def _probe_block(n: int, seed: int) -> np.ndarray:
    """Probe states as columns: every basis state for small registers
    (sampled ones beyond 6 qubits), plus seeded random product states --
    basis probes alone are blind to diagonal-phase differences."""
    dim = 1 << n
    rng = np.random.default_rng(seed)
    basis = np.arange(dim) if n <= 6 else rng.choice(dim, size=BASIS_PROBES, replace=False)
    # theta ~ uniform(0, pi) and phi ~ uniform(0, 2 pi) per probe and qubit
    angles = rng.random((PRODUCT_PROBES, n, 2))
    theta = np.pi * angles[:, :, 0]
    phi = 2 * np.pi * angles[:, :, 1]
    zero = np.cos(theta / 2)
    one = np.exp(1j * phi) * np.sin(theta / 2)
    states = np.ones((PRODUCT_PROBES, 1), dtype=np.complex128)
    for q in range(n):  # qubit q is the higher bit of what came before
        states = np.concatenate((zero[:, q:q + 1] * states, one[:, q:q + 1] * states),
                                axis=1)
    block = np.zeros((dim, len(basis) + PRODUCT_PROBES), dtype=np.complex128)
    block[basis, np.arange(len(basis))] = 1.0
    block[:, len(basis):] = states.T
    return block


def probe_fidelity(original: Circuit, transpiled: Circuit,
                   final_map: QubitMapping | None = None, *,
                   initial_map: QubitMapping | None = None,
                   seed: int = 0) -> float:
    """Worst |<P(final_map) U_original probe, U_transpiled probe'>| over the
    probe set.

    ``final_map`` says where each original qubit's state ends up in the
    transpiled circuit; ``initial_map`` (for circuits whose very first
    wires were renamed, with no gates moving states there) says where it
    begins, and permutes the transpiled side's probes accordingly.  The
    narrower circuit runs on the wider register as it is.
    """
    final_map = final_map or QubitMapping.identity()
    initial_map = initial_map or QubitMapping.identity()
    n = max(original.num_qubits, transpiled.num_qubits)
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit simulator limit")
    probes = _probe_block(n, seed)
    ref = permute_amplitudes(_apply(original, probes.copy()), final_map, n)
    if not initial_map.is_identity:
        probes = permute_amplitudes(probes, initial_map, n)
    out = _apply(transpiled, probes)
    np.conj(ref, out=ref)
    ref *= out
    return float(np.abs(ref.sum(axis=0)).min())


def _check_tol(tol: float) -> None:
    """A fidelity tolerance is a real number, not a bool, with 0 <= tol < 1:
    at 1 or above every pair of circuits would pass."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < 1:
        raise ValueError(f"tol must be a real number with 0 <= tol < 1, got {tol!r}")


def equivalent(original: Circuit, transpiled: Circuit,
               final_map: QubitMapping | None = None, tol: float = 1e-6, *,
               initial_map: QubitMapping | None = None, seed: int = 0) -> bool:
    """Whether the circuits agree on every probe, up to the given
    relabeling and global phase, within ``tol`` (see :func:`_check_tol`)
    of perfect fidelity."""
    _check_tol(tol)
    worst = probe_fidelity(original, transpiled, final_map,
                           initial_map=initial_map, seed=seed)
    return worst >= 1 - tol
