"""Dense statevector simulation and equivalence checking.

Qubit 0 is the least significant bit of the basis index, so basis state
``|b>`` assigns bit ``(b >> q) & 1`` to qubit q.  Circuits are limited to
16 qubits; measures and barriers are treated as the identity, since the
oracle compares states, not samples.

Also home to the exhaustive routing oracle used to certify the lookahead
router: it tries every control/target displacement assignment and returns
the true minimum search cost.
"""
from __future__ import annotations

import numpy as np

from .coupling import CouplingGraph
from .ir import Circuit, GateKind, QubitMapping, single_qubit_matrix
from .routing import _first_illegal, _repairs

MAX_QUBITS = 16

#: probe budget for registers too large to sweep every basis state
BASIS_PROBES = 32
PRODUCT_PROBES = 8


def _apply(circuit: Circuit, block: np.ndarray) -> np.ndarray:
    """Run the circuit on a (2**n, k) block of column states, in place."""
    n = circuit.num_qubits
    k = block.shape[1]
    view = block.reshape((2,) * n + (k,))
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            c, t = g.qubits
            idx10: list = [slice(None)] * (n + 1)
            idx10[n - 1 - c] = 1
            idx11 = list(idx10)
            idx10[n - 1 - t] = 0
            idx11[n - 1 - t] = 1
            tmp = view[tuple(idx10)].copy()
            view[tuple(idx10)] = view[tuple(idx11)]
            view[tuple(idx11)] = tmp
        elif g.is_single_qubit:
            u = np.array(single_qubit_matrix(g), dtype=np.complex128).reshape(2, 2)
            axis = n - 1 - g.qubits[0]
            moved = np.moveaxis(view, axis, 0)
            moved[:] = np.tensordot(u, moved, axes=(1, 0))
        # measure/barrier: identity
    return block


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


def permutation_vector(mapping: QubitMapping, num_qubits: int) -> np.ndarray:
    """sigma with sigma[b] = the basis index where bit q of b lands on wire
    mapping(q); permuting amplitudes by ``out[sigma] = psi`` relabels the
    state's qubits."""
    idx = np.arange(1 << num_qubits)
    out = np.zeros_like(idx)
    for q in range(num_qubits):
        out |= ((idx >> q) & 1) << mapping(q)
    return out


def permute_amplitudes(state: np.ndarray, mapping: QubitMapping,
                       num_qubits: int) -> np.ndarray:
    sigma = permutation_vector(mapping, num_qubits)
    out = np.empty_like(state)
    out[sigma] = state
    return out


def _probe_block(n: int, seed: int) -> np.ndarray:
    """Probe states as columns: every basis state for small registers
    (sampled ones beyond 6 qubits), plus seeded random product states --
    basis probes alone are blind to diagonal-phase differences."""
    dim = 1 << n
    rng = np.random.default_rng(seed)
    cols = []
    if n <= 6:
        cols.extend(np.eye(dim, dtype=np.complex128).T)
    else:
        for b in rng.choice(dim, size=BASIS_PROBES, replace=False):
            col = np.zeros(dim, dtype=np.complex128)
            col[b] = 1.0
            cols.append(col)
    for _ in range(PRODUCT_PROBES):
        state = np.ones(1, dtype=np.complex128)
        for _q in range(n):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            factor = np.array([np.cos(theta / 2),
                               np.exp(1j * phi) * np.sin(theta / 2)])
            state = np.kron(factor, state)  # new qubit is the higher bit
        cols.append(state)
    return np.stack(cols, axis=1)


def probe_fidelity(original: Circuit, transpiled: Circuit,
                   final_map: QubitMapping | None = None, *,
                   initial_map: QubitMapping | None = None,
                   seed: int = 0) -> float:
    """Worst |<P(final_map) U_original probe, U_transpiled probe'>| over the
    probe set.

    ``final_map`` says where each original qubit's state ends up in the
    transpiled circuit; ``initial_map`` (for circuits whose very first
    wires were renamed, with no gates moving states there) says where it
    begins, and permutes the transpiled side's probes accordingly.
    """
    final_map = final_map or QubitMapping.identity()
    initial_map = initial_map or QubitMapping.identity()
    n = max(original.num_qubits, transpiled.num_qubits)
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit simulator limit")
    probes = _probe_block(n, seed)
    ref = _apply(original.widened(n), probes.copy())
    ref = ref[np.argsort(permutation_vector(final_map, n))]

    if initial_map.is_identity:
        tr_probes = probes.copy()
    else:
        tr_probes = np.empty_like(probes)
        tr_probes[permutation_vector(initial_map, n)] = probes
    out = _apply(transpiled.widened(n), tr_probes)
    fidelities = np.abs(np.sum(np.conj(ref) * out, axis=0))
    return float(fidelities.min())


def equivalent(original: Circuit, transpiled: Circuit,
               final_map: QubitMapping | None = None, tol: float = 1e-6, *,
               initial_map: QubitMapping | None = None, seed: int = 0) -> bool:
    """Whether the circuits agree on every probe, up to the given
    relabeling and global phase, within ``tol`` of perfect fidelity."""
    worst = probe_fidelity(original, transpiled, final_map,
                           initial_map=initial_map, seed=seed)
    return worst >= 1 - tol


MAX_ORACLE_ILLEGAL = 12


def brute_force_route_cost(circuit: Circuit, graph: CouplingGraph) -> int:
    """Exact minimum routing search cost over every displacement assignment.

    Walks the same decision tree as the router but exhaustively: at each
    illegal CNOT both the control and the target displacement are realized
    (chain applied, remainder relabeled) and the cheaper subtree wins.  No
    estimation anywhere, so this is the ground truth the lookahead router
    is measured against; cost units match the router's accounting
    (34 per intermediate vertex, +4 per displaced control).
    """
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    illegal = sum(1 for c, t in cnots
                  if not graph.is_legal_cnot(c, t, respect_direction=False))
    if illegal > MAX_ORACLE_ILLEGAL:
        raise ValueError(f"{illegal} illegal CNOTs exceeds the oracle cap "
                         f"of {MAX_ORACLE_ILLEGAL}")

    def best(start: int, perm: list[int]) -> int:
        # the CNOTs from ``start`` on, read through the relabeling ``perm``
        i = _first_illegal(cnots, graph, start, perm)
        if i < 0:
            return 0
        c, t = cnots[i]
        return min(cost + best(i + 1, moved)
                   for _, cost, moved in _repairs((perm[c], perm[t]), graph, perm))

    return best(0, list(range(graph.num_qubits)))
