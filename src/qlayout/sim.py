"""Dense statevector simulation and equivalence checking.

Qubit 0 is the least significant bit of the basis index, so basis state
``|b>`` assigns bit ``(b >> q) & 1`` to qubit q.  Circuits are limited to
16 qubits; measures and barriers are treated as the identity, since the
oracle compares states, not samples.

A circuit runs on a block of k column states held as two real planes, a
float64 array ``(2, 2**n, k)`` of real and imaginary parts, in two steps:

* *Fusion.*  One pass over each circuit's gates turns it into a short list
  of dense blocks, recording only integers.  Each qubit's single-qubit
  gates since its last CNOT form a run.  A CNOT opens a block on its pair
  or extends the pair's open block by one factor: the Kronecker product of
  the runs it pops from the pair's two qubits, then its row swap.  A CNOT
  that would join two open blocks, or one open block and a third qubit,
  first closes -- emits -- the blocks it straddles, popping the runs still
  pending on their qubits into a last factor.  Open blocks sit on disjoint
  qubits, so they commute, and the order in which they are emitted only
  has to respect each qubit's own gate order.  numpy then builds every
  matrix of every circuit the call simulates in one batch -- both sides of
  :func:`probe_fidelity` together, so the numpy calls' fixed cost is paid
  once per call: the 2x2 of every gate from one evaluation of the u3
  formula, every run's product and every block's product as a segmented
  batched product that loops over the position in the segment, every
  factor's Kronecker product in one ``einsum`` and its row swap in one
  fancy index, and every block's real form ``[[A, -B], [B, A]]`` of its
  complex matrix ``A + iB``.  Each matrix is the same product of the same
  factors as when its circuit is fused alone, so batching changes no bit.
* *Kernels.*  The states' qubit axes are kept in a lazy order: they stay
  as the last kernel left them.  A kernel on m qubits needs them as the
  leading qubit axes, right after the plane axis; when they are not, one
  transposing copy into the other buffer puts them there, the rest keeping
  their order.  The kernel is then one real ``(2**(m+1), 2**(m+1)) @
  (2**(m+1), 2**(n-m) * k)`` product from one buffer into the other, so a
  run holds exactly two blocks however long the circuit.

Relabelings cost no kernel.  The transpiled side of :func:`probe_fidelity`
starts from the probes read with probe qubit q on wire ``initial_map(q)``,
which is an axis order, not a copy; the reference side ends with one
transposing copy into the transpiled side's final axis order, with its
qubit q read as wire ``final_map(q)``.

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
from typing import Mapping, Sequence

import numpy as np

from .ir import (
    _U3_PREFIX,
    Circuit,
    Gate,
    GateKind,
    QubitMapping,
    _as_mapping,
)

MAX_QUBITS = 16

#: the default fidelity tolerance of every equivalence check
DEFAULT_TOL = 1e-6

#: probe budget for registers too large to sweep every basis state
BASIS_PROBES = 32
PRODUCT_PROBES = 8

#: rows of a pair factor, a 4x4 on local index ``2 * bit(x) + bit(y)``,
#: after the CNOT it ends with: none (a closing factor), control x (rows
#: 2 and 3 swap) or control y (rows 1 and 3 swap)
_CNOT_ROWS = np.array([[0, 1, 2, 3], [0, 1, 3, 2], [0, 3, 2, 1]])

#: the 2x2 a pair factor reads for a qubit with no single-qubit gate pending
_IDENTITY = np.eye(2, dtype=np.complex128)[None]

#: an m-qubit block: its qubits, the high bit of its local index first, and
#: the real form of its matrix, ``2**(m+1)`` square
Block = tuple[tuple[int, ...], np.ndarray]


def _single_matrices(angles: Sequence[float]) -> np.ndarray:
    """The 2x2 of each single-qubit gate whose ``ir.u3_angles`` come three
    by three in ``angles``, ``(len(angles) // 3, 2, 2)``, from one
    vectorized evaluation of ``ir.u3_matrix``'s formula; each agrees with
    ``ir.single_qubit_matrix`` to rounding."""
    theta, phi, lam = np.array(angles, dtype=float).reshape(-1, 3).T
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    e_phi, e_lam = np.exp(1j * phi), np.exp(1j * lam)
    return np.stack((cos + 0j, -e_lam * sin, e_phi * sin, e_phi * e_lam * cos),
                    axis=1).reshape(-1, 2, 2)


def _segment_products(matrices: np.ndarray, segments: np.ndarray, count: int) -> np.ndarray:
    """For each of ``count`` segments, the product of the matrices whose
    entry in ``segments`` names it, a later one on the left.  The loop runs
    over the position in a segment: with the segments longest first, step j
    is one batched product over those longer than j, a leading slice.  Every
    segment names at least one matrix."""
    sizes = np.bincount(segments, minlength=count)
    grouped = np.argsort(segments, kind="stable")  # matrix indices, segment by segment
    longest = np.argsort(-sizes, kind="stable")
    first = (np.cumsum(sizes) - sizes)[longest]    # each segment's first entry in grouped
    longer = np.cumsum(np.bincount(sizes)[::-1])[::-1]  # segments longer than j, at j + 1
    products = matrices[grouped[first]]
    for j in range(1, len(longer) - 1):
        live = longer[j + 1]
        products[:live] = matrices[grouped[first[:live] + j]] @ products[:live]
    out = np.empty_like(products)
    out[longest] = products
    return out


def _real_forms(matrices: np.ndarray) -> np.ndarray:
    """``[[A, -B], [B, A]]`` of each complex ``A + iB`` of the batch: the
    matrix that acts on the real and imaginary planes stacked."""
    re, im = matrices.real, matrices.imag
    return np.concatenate((np.concatenate((re, -im), axis=2),
                           np.concatenate((im, re), axis=2)), axis=1)


def _fuse(circuits: Sequence[Sequence[Gate]]) -> list[list[Block]]:
    """Each gate list of ``circuits`` as dense blocks (:data:`Block`), in an
    order that keeps every qubit's gates in program order; a block on
    ``(x, y)`` has local index ``2 * bit(x) + bit(y)``.  Each list gets one
    integer pass, and every matrix of every list is built in one numpy
    batch, so a list's blocks are the same as when it is fused alone."""
    angles: list[float] = []       # u3 angles of the single-qubit gates, flat
    runs: list[int] = []           # the run of each single-qubit gate
    pairs: list[tuple[int, int]] = []  # the qubits of each pair block, by opening
    # four entries per pair factor: the runs it pops for its block's x and
    # y (-1: none), its row order in _CNOT_ROWS and its block
    factors: list[int] = []
    ends: list[tuple[list[int], dict[int, int]]] = []  # per list: closed, run
    num_runs = 0
    cnot, prefix = GateKind.CNOT, _U3_PREFIX
    for gates in circuits:
        run: dict[int, int] = {}       # the open run of each qubit
        pair: dict[int, int] = {}      # the open block of each of its two qubits
        closed: list[int] = []         # pair blocks in emission order
        pop = run.pop

        def close(b: int) -> None:
            x, y = pairs[b]
            if x in run or y in run:  # the last factor: the runs left pending on the pair
                factors.extend((pop(x, -1), pop(y, -1), 0, b))
            closed.append(b)
            del pair[x], pair[y]

        for g in gates:
            kind = g.kind
            if kind is cnot:
                c, t = g.qubits
                b = pair.get(c)
                if b is None or pair.get(t) != b:
                    for q in (c, t):
                        if q in pair:
                            close(pair[q])
                    b = pair[c] = pair[t] = len(pairs)
                    pairs.append((c, t))
                x, y = pairs[b]
                factors.extend((pop(x, -1), pop(y, -1), 1 if c == x else 2, b))
            elif kind in prefix:  # a single-qubit gate; measure and barrier are the identity
                q = g.qubits[0]
                r = run.get(q)
                if r is None:
                    r = run[q] = num_runs
                    num_runs += 1
                runs.append(r)
                angles += prefix[kind] + g.params  # ir.u3_angles(g)
        for b in dict.fromkeys(pair.values()):
            close(b)
        ends.append((closed, run))

    products = _segment_products(_single_matrices(angles), np.array(runs, dtype=np.intp),
                                 num_runs)
    # run -1, a qubit with nothing pending, reads the identity
    products = np.concatenate((products, _IDENTITY))
    fx, fy, rows, owner = np.array(factors, dtype=np.intp).reshape(-1, 4).T
    kron = np.einsum("fab,fcd->facbd", products[fx], products[fy]).reshape(-1, 4, 4)
    kron = kron[np.arange(len(rows))[:, None], _CNOT_ROWS[rows]]
    blocks = _real_forms(_segment_products(kron, owner, len(pairs)))
    singles = iter(_real_forms(products[[r for _, run in ends for r in run.values()]]))
    return [[(pairs[b], blocks[b]) for b in closed] + [((q,), next(singles)) for q in run]
            for closed, run in ends]


def _arrange(src: np.ndarray, dst: np.ndarray, order: list[int], new: list[int]) -> None:
    """Copy the planes ``src``, whose qubit axes hold the qubits of
    ``order``, into ``dst`` with them in the order ``new``."""
    n, k = len(order), src.shape[-1]
    shape = (2,) * (n + 1) + (k,)
    axis = {q: i for i, q in enumerate(order, 1)}
    np.copyto(dst.reshape(shape),
              src.reshape(shape).transpose([0, *(axis[q] for q in new), n + 1]))


def _run(blocks: Sequence[Block], planes: np.ndarray, spare: np.ndarray,
         order: list[int]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Apply the blocks to ``planes``, a ``(2, 2**n, k)`` block of column
    states whose qubit axes hold the qubits of ``order``, the most
    significant first.  ``planes`` and ``spare`` are the two work buffers,
    so the contents of both are lost; return the buffer that holds the
    result, the other one, and the result's axis order."""
    src, dst = planes, spare
    for qubits, matrix in blocks:
        m = len(qubits)
        if tuple(order[:m]) != qubits:
            new = [*qubits, *(q for q in order if q not in qubits)]
            _arrange(src, dst, order, new)
            src, dst, order = dst, src, new
        np.matmul(matrix, src.reshape(2 << m, -1), out=dst.reshape(2 << m, -1))
        src, dst = dst, src
    return src, dst, order


def _width(n: int) -> int:
    """``n``, checked as the width of a simulated register: at most :data:`MAX_QUBITS`."""
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit simulator limit")
    return n


def _planes(states: np.ndarray) -> np.ndarray:
    """The real and imaginary planes of a complex block, ``(2, *states.shape)``."""
    return np.stack((states.real, states.imag))


def _natural(n: int) -> list[int]:
    """The axis order of a state indexed by basis state: qubit n-1, the most
    significant bit, first."""
    return list(range(n - 1, -1, -1))


def simulate(circuit: Circuit, initial: int | np.ndarray = 0) -> np.ndarray:
    """Statevector after the circuit, from a basis index or a state vector."""
    n = _width(circuit.num_qubits)
    dim = 1 << n
    if isinstance(initial, (bool, np.bool_)):
        raise ValueError(f"initial must be a basis index or a state vector, got {initial!r}")
    if isinstance(initial, (int, np.integer)):
        if not (0 <= initial < dim):
            raise ValueError(f"basis index {initial} outside 0..{dim - 1}")
        state = np.zeros(dim, dtype=np.complex128)
        state[initial] = 1.0
    else:
        state = np.asarray(initial, dtype=np.complex128).reshape(dim)
        norm = np.linalg.norm(state)
        if norm == 0:
            raise ValueError("initial state must be nonzero")
        state = state / norm
    planes = _planes(state.reshape(dim, 1))
    natural = _natural(n)
    (blocks,) = _fuse([circuit.gates])
    out, spare, order = _run(blocks, planes, np.empty_like(planes), natural)
    _arrange(out, spare, order, natural)
    return spare[0, :, 0] + 1j * spare[1, :, 0]


def _wires(mapping: QubitMapping, num_qubits: int) -> list[int]:
    """The wire ``mapping`` moves each qubit of the register to; a mapping
    that moves one outside 0..num_qubits-1 is a ValueError."""
    moves = mapping.as_dict()
    wires = [moves.get(q, q) for q in range(num_qubits)]
    if not all(0 <= w < num_qubits for w in wires):
        raise ValueError(f"mapping {moves} moves a qubit outside "
                         f"0..{num_qubits - 1}")
    return wires


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
                   final_map: QubitMapping | Mapping[int, int] | None = None, *,
                   initial_map: QubitMapping | Mapping[int, int] | None = None,
                   seed: int = 0) -> float:
    """Worst |<P(final_map) U_original probe, U_transpiled probe'>| over the
    probe set.

    ``final_map`` says where each original qubit's state ends up in the
    transpiled circuit; ``initial_map`` (for circuits whose very first
    wires were renamed, with no gates moving states there) says where it
    begins, and permutes the transpiled side's probes accordingly.  Either
    may be a :class:`QubitMapping` or a ``{from: to}`` dict, as for
    ``apply_mapping``.  The narrower circuit runs on the wider register as
    it is.
    """
    n = _width(max(original.num_qubits, transpiled.num_qubits))
    final = _wires(_as_mapping(final_map or {}), n)
    initial = _wires(_as_mapping(initial_map or {}), n)
    planes = _planes(_probe_block(n, seed))
    natural = _natural(n)
    ref_blocks, out_blocks = _fuse([original.gates, transpiled.gates])
    ref, free, ref_order = _run(ref_blocks, planes.copy(), np.empty_like(planes), natural)
    # the transpiled side starts with probe qubit q on wire initial[q]
    out, free, out_order = _run(out_blocks, planes, free,
                                [initial[q] for q in natural])
    # and the reference side ends with its qubit q read as wire final[q]
    qubit = {w: q for q, w in enumerate(final)}
    _arrange(ref, free, ref_order, [qubit[w] for w in out_order])
    re = np.einsum("pdk,pdk->k", free, out)
    im = np.einsum("dk,dk->k", free[0], out[1]) - np.einsum("dk,dk->k", free[1], out[0])
    return float(np.hypot(re, im).min())


def _check_tol(tol: float) -> None:
    """A fidelity tolerance is a real number, not a bool, with 0 <= tol < 1:
    at 1 or above every pair of circuits would pass."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < 1:
        raise ValueError(f"tol must be a real number with 0 <= tol < 1, got {tol!r}")


def _within_tol(worst: float, tol: float) -> bool:
    """The equivalence verdict on a worst probe fidelity: within ``tol`` of
    1, the boundary included."""
    return worst >= 1 - tol


def equivalent(original: Circuit, transpiled: Circuit,
               final_map: QubitMapping | Mapping[int, int] | None = None,
               tol: float = DEFAULT_TOL, *,
               initial_map: QubitMapping | Mapping[int, int] | None = None,
               seed: int = 0) -> bool:
    """Whether the circuits agree on every probe, up to the given
    relabeling and global phase, within ``tol`` (see :func:`_check_tol`)
    of perfect fidelity."""
    _check_tol(tol)
    worst = probe_fidelity(original, transpiled, final_map,
                           initial_map=initial_map, seed=seed)
    return _within_tol(worst, tol)
