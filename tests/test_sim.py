"""Statevector simulator, equivalence oracle, exhaustive routing oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from qlayout.coupling import CouplingGraph, make_layout
from qlayout.ir import GateKind, QubitMapping, single_qubit_matrix
from qlayout.routing import MAX_ORACLE_ILLEGAL, brute_force_route_cost
from qlayout.sim import permute_amplitudes, probe_fidelity, simulate

from conftest import circuits, random_unitary_circuit


def reference_unitary(circuit: ql.Circuit) -> np.ndarray:
    """The circuit's 2**n x 2**n unitary, one full matrix per gate: a kron
    of 2x2s for a single-qubit gate (qubit 0 rightmost), a permutation
    matrix for a CNOT, the identity for measure and barrier."""
    n = circuit.num_qubits
    dim = 1 << n
    total = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            c, t = g.qubits
            full = np.zeros((dim, dim))
            for b in range(dim):
                full[b ^ (1 << t) if b >> c & 1 else b, b] = 1
        elif g.is_single_qubit:
            full = np.ones((1, 1))
            for q in reversed(range(n)):
                factor = (np.array(single_qubit_matrix(g)).reshape(2, 2)
                          if q == g.qubits[0] else np.eye(2))
                full = np.kron(full, factor)
        else:
            continue
        total = full @ total
    return total


@st.composite
def fusion_circuits(draw):
    """Random circuits over every gate kind, with CNOT chains such as
    (a,b), (b,c), (a,b) -- in either orientation -- spliced in, which
    close pair blocks and open them again."""
    circuit = draw(circuits(max_qubits=5, max_gates=20))
    n = circuit.num_qubits
    gates = list(circuit.gates)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b, *rest = draw(st.permutations(range(n)))
        c = rest[0] if rest else a
        chain = [(a, b), (b, c), (a, b)]
        flips = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        at = draw(st.integers(min_value=0, max_value=len(gates)))
        gates[at:at] = [ql.cx(*(pair[::-1] if flip else pair))
                        for pair, flip in zip(chain, flips)]
    return circuit.with_gates(gates)


class TestSimulate:
    def test_u2_of_0_pi_makes_plus_state(self):
        s = simulate(ql.Circuit(1, 0, (ql.u2(0.0, math.pi, 0),)))
        assert np.allclose(s, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_cnot_flips_target_on_set_control(self):
        # qubit 0 is the least significant bit: |01> means q0=1
        s = simulate(ql.Circuit(2, 0, (ql.cx(0, 1),)), initial=0b01)
        assert np.argmax(np.abs(s)) == 0b11

    def test_cnot_leaves_cleared_control(self):
        s = simulate(ql.Circuit(2, 0, (ql.cx(0, 1),)), initial=0b10)
        assert np.argmax(np.abs(s)) == 0b10

    def test_measure_and_barrier_are_identity(self):
        c1 = ql.Circuit(2, 2, (ql.h(0), ql.measure(0, 0), ql.barrier(0, 1)))
        c2 = ql.Circuit(2, 2, (ql.h(0),))
        assert np.allclose(simulate(c1), simulate(c2))

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            c = random_unitary_circuit(np.random.default_rng(seed), 5, 40)
            s = simulate(c, initial=int(rng.integers(0, 32)))
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_linearity(self):
        c = random_unitary_circuit(np.random.default_rng(3), 3, 20)
        a = simulate(c, initial=0b001)
        b = simulate(c, initial=0b110)
        combo = np.zeros(8, dtype=complex)
        combo[0b001] = 0.6
        combo[0b110] = 0.8j
        got = simulate(c, initial=combo)
        assert np.allclose(got, 0.6 * a + 0.8j * b, atol=1e-12)

    def test_qubit_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            simulate(ql.Circuit(17, 0))

    def test_bad_basis_index(self):
        with pytest.raises(ValueError):
            simulate(ql.Circuit(2, 0), initial=4)

    @settings(max_examples=150, deadline=None)
    @given(fusion_circuits(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_gate_by_gate_reference(self, circuit, seed):
        unitary = reference_unitary(circuit)
        dim = 1 << circuit.num_qubits
        for b in range(dim):
            assert np.max(np.abs(simulate(circuit, b) - unitary[:, b])) <= 1e-12
        rng = np.random.default_rng(seed)
        for _ in range(3):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            assert np.max(np.abs(simulate(circuit, psi) - unitary @ psi)) <= 1e-12


class TestPermutation:
    def test_swap_permutes_bits(self):
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0  # q0 set
        out = permute_amplitudes(state, QubitMapping.swap(0, 1), 2)
        assert out[0b10] == 1.0  # now q1 set

    def test_identity(self):
        state = np.arange(8, dtype=complex)
        out = permute_amplitudes(state, QubitMapping.identity(), 3)
        assert np.array_equal(out, state)


class TestEquivalent:
    def test_identical_circuits(self):
        c = random_unitary_circuit(np.random.default_rng(1), 4, 25)
        assert ql.equivalent(c, c, tol=1e-12)

    def test_extra_phase_gate_detected(self):
        c = random_unitary_circuit(np.random.default_rng(2), 3, 15)
        tweaked = c.with_gates(c.gates + (ql.u1(0.1, 0),))
        assert not ql.equivalent(c, tweaked, tol=1e-6)

    def test_symmetric_under_identity_mapping(self):
        a = random_unitary_circuit(np.random.default_rng(4), 3, 10)
        b = random_unitary_circuit(np.random.default_rng(5), 3, 10)
        assert ql.equivalent(a, b, tol=1e-6) == ql.equivalent(b, a, tol=1e-6)

    def test_relabeled_circuit_with_mapping(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.u2(0.3, 0.4, 2)))
        m = QubitMapping.from_dict({0: 2, 2: 0})
        relabeled = ql.apply_mapping(c, m)
        # a whole-program relabeling permutes both ends
        assert ql.equivalent(c, relabeled, m, 1e-12, initial_map=m)
        assert not ql.equivalent(c, relabeled, m, 1e-6)

    def test_mapping_outside_the_register_rejected(self):
        # qubit 5 of a 2-qubit register must not be read as some other qubit
        c = ql.Circuit(2, 0, (ql.h(0), ql.cx(0, 1), ql.u1(0.3, 1)))
        outside = QubitMapping.from_dict({0: 5, 5: 0})
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            probe_fidelity(c, c, outside)
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            probe_fidelity(c, c, initial_map=outside)

    def test_probe_fidelity_is_one_for_self(self):
        c = random_unitary_circuit(np.random.default_rng(6), 3, 12)
        assert probe_fidelity(c, c) == pytest.approx(1.0, abs=1e-12)

    def test_large_register_uses_sampled_probes(self):
        c = random_unitary_circuit(np.random.default_rng(7), 7, 30)
        m = QubitMapping.swap(0, 5)
        relabeled = ql.apply_mapping(c, m)
        assert ql.equivalent(c, relabeled, m, 1e-9, initial_map=m, seed=3)

    def test_unequal_widths_padded(self):
        small = ql.Circuit(2, 0, (ql.cx(0, 1),))
        wide = small.widened(4)
        assert ql.equivalent(small, wide, tol=1e-12)

    @pytest.mark.parametrize("tol", [True, False, 1, 1.0, 1.5, 2, -1e-9, math.inf,
                                     math.nan, "1e-6", None, QubitMapping.swap(0, 1)])
    def test_tol_outside_the_unit_interval_rejected(self, tol):
        # at tol >= 1 every pair would pass; a mapping passed third lands here
        a = ql.Circuit(2, 0, (ql.cx(0, 1),))
        b = ql.Circuit(2, 0, (ql.h(0),))
        with pytest.raises(ValueError, match="tol"):
            ql.equivalent(a, b, None, tol)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-6, 0.5, np.float64(1e-9), np.float32(0.25)])
    def test_tol_in_the_unit_interval_accepted(self, tol):
        c = random_unitary_circuit(np.random.default_rng(8), 3, 12)
        assert ql.equivalent(c, c, tol=tol) is (probe_fidelity(c, c) >= 1 - tol)


class TestBruteForceOracle:
    def test_legal_circuit_costs_nothing(self):
        g = make_layout("linear", 4)
        c = ql.Circuit(4, 0, (ql.cx(0, 1), ql.cx(2, 3)))
        assert brute_force_route_cost(c, g) == 0

    def test_single_illegal_takes_the_cheaper_branch(self):
        g = make_layout("linear", 4)
        c = ql.Circuit(4, 0, (ql.cx(0, 2),))
        assert brute_force_route_cost(c, g) == 34  # target branch, one swap

    def test_two_step_instance(self):
        g = make_layout("linear", 4)
        c = ql.Circuit(4, 0, (ql.cx(0, 3),))
        assert brute_force_route_cost(c, g) == 68

    def test_oracle_cap(self):
        g = make_layout("linear", 8)
        gates = tuple(ql.cx(0, 7) for _ in range(MAX_ORACLE_ILLEGAL + 1))
        with pytest.raises(ValueError, match="oracle cap"):
            brute_force_route_cost(ql.Circuit(8, 0, gates), g)

    def test_oracle_never_beaten_by_router(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = 5
            g = make_layout(["linear", "circle", "central", "neighbour"][int(rng.integers(0, 4))], n)
            gates = tuple(ql.cx(*map(int, rng.choice(n, 2, replace=False)))
                          for _ in range(int(rng.integers(1, 7))))
            c = ql.Circuit(n, 0, gates)
            assert brute_force_route_cost(c, g) <= ql.route_circuit(c, g).search_cost
