"""Statevector simulator, equivalence oracle, exhaustive routing oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from qlayout.coupling import CouplingGraph, make_layout
from qlayout.ir import GateKind, QubitMapping, single_qubit_matrix
from qlayout import routing, sim
from qlayout.routing import MAX_ORACLE_ILLEGAL, brute_force_route_cost
from qlayout.sim import _fuse, _probe_block, probe_fidelity, simulate

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


def permutation_matrix(mapping: QubitMapping, n: int) -> np.ndarray:
    """The 2**n x 2**n matrix that moves basis state b to the one with bit
    q of b on wire mapping(q)."""
    dim = 1 << n
    full = np.zeros((dim, dim))
    for b in range(dim):
        full[sum((b >> q & 1) << mapping(q) for q in range(n)), b] = 1
    return full


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


#: circuits at the edges of fusion, on different widths
EDGE_CIRCUITS = {
    "empty": ql.Circuit(3),
    "measure and barrier only": ql.Circuit(3, 2, (ql.measure(0, 1), ql.barrier(0, 1, 2),
                                                  ql.measure(2, 0))),
    "single-qubit gates only": ql.Circuit(3, 0, (ql.h(2), ql.u1(0.3, 0), ql.u3(0.1, 0.2, 0.4, 2),
                                                 ql.u2(0.5, 0.6, 1))),
    "one qubit": ql.Circuit(1, 1, (ql.u2(0.2, 0.9, 0), ql.measure(0, 0), ql.h(0),
                                   ql.u1(0.7, 0))),
    "one qubit, empty": ql.Circuit(1),
    "CNOTs only": ql.Circuit(4, 0, (ql.cx(0, 1), ql.cx(1, 0), ql.cx(1, 2), ql.cx(3, 0),
                                    ql.cx(0, 1))),
    "a run still open at the end": ql.Circuit(3, 0, (ql.h(0), ql.cx(0, 1), ql.u1(0.7, 1),
                                                     ql.cx(1, 2), ql.u2(0.2, 0.9, 0),
                                                     ql.u3(0.3, 0.5, 0.7, 2))),
    "six qubits": ql.Circuit(6, 0, (ql.cx(5, 0), ql.h(3), ql.cx(3, 4), ql.u1(0.2, 5),
                                    ql.cx(0, 4), ql.cx(2, 1))),
}


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

    @pytest.mark.parametrize("width,initial", [(1, True), (2, False), (2, np.bool_(True))])
    def test_bool_is_not_a_basis_index(self, width, initial):
        # numpy would read a bool as a mask: [1, 1] for True, the zero vector for False
        with pytest.raises(ValueError, match="basis index or a state vector"):
            simulate(ql.Circuit(width), initial)

    def test_zero_initial_state_rejected(self):
        with pytest.raises(ValueError, match="initial state must be nonzero"):
            simulate(ql.Circuit(2), np.zeros(4))

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

    @pytest.mark.parametrize("gates", [
        (ql.h(0), ql.cx(0, 1), ql.u3(0.3, 0.5, 0.7, 0), ql.cx(0, 1), ql.cx(1, 0)),
        (ql.cx(0, 1), ql.u1(0.4, 0), ql.u2(0.2, 0.9, 1), ql.cx(0, 2), ql.h(1), ql.cx(2, 1)),
        (ql.u2(0.6, 0.1, 1), ql.cx(2, 1), ql.u3(1.1, 0.2, 0.3, 2), ql.u1(0.8, 1), ql.h(1)),
    ], ids=["gate on x between two CNOTs of (x, y)",
            "gates on x and y pending when cx(x, z) closes (x, y)",
            "gates on both qubits of a pair pending at the end"])
    def test_gates_pending_on_a_pair_match_the_reference(self, gates):
        circuit = ql.Circuit(3, 0, gates)
        unitary = reference_unitary(circuit)
        for b in range(8):
            assert np.max(np.abs(simulate(circuit, b) - unitary[:, b])) <= 1e-12

    @pytest.mark.parametrize("circuit", EDGE_CIRCUITS.values(), ids=EDGE_CIRCUITS)
    def test_edge_circuits_match_the_reference(self, circuit):
        unitary = reference_unitary(circuit)
        dim = 1 << circuit.num_qubits
        for b in range(dim):
            assert np.max(np.abs(simulate(circuit, b) - unitary[:, b])) <= 1e-12
        psi = np.array([1, 1j]) @ np.random.default_rng(5).normal(size=(2, dim))
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(simulate(circuit, psi) - unitary @ psi)) <= 1e-12

    def test_pair_layer_fuses_to_one_block(self):
        # one layer on two qubits: 3 CNOTs and 8 u3s, all on the one pair
        circuit = ql.gen_random_circuit(2, 1, 11)
        assert ql.gate_counts(circuit) == (3, 8)
        assert [set(qubits) for qubits, _ in _fuse([circuit.gates])[0]] == [{0, 1}]


def assert_fused_as_alone(gate_lists):
    """One ``_fuse`` call over ``gate_lists`` gives, for each list, what
    fusing that list alone gives: the same qubits, block order and matrix
    bytes."""
    together = _fuse(gate_lists)
    assert len(together) == len(gate_lists)
    for gates, blocks in zip(gate_lists, together):
        (alone,) = _fuse([gates])
        assert [qubits for qubits, _ in blocks] == [qubits for qubits, _ in alone]
        assert ([(m.shape, m.tobytes()) for _, m in blocks]
                == [(m.shape, m.tobytes()) for _, m in alone])


class TestBatchedFusion:
    def test_no_lists(self):
        assert _fuse([]) == []

    @pytest.mark.parametrize("first", EDGE_CIRCUITS, ids=str)
    @pytest.mark.parametrize("second", EDGE_CIRCUITS, ids=str)
    def test_edge_circuit_pairs(self, first, second):
        assert_fused_as_alone([EDGE_CIRCUITS[first].gates, EDGE_CIRCUITS[second].gates])

    def test_every_edge_circuit_in_one_call(self):
        assert_fused_as_alone([c.gates for c in EDGE_CIRCUITS.values()])

    def test_open_run_and_cnots_only_shapes(self):
        # the open runs end the list, after the pair blocks, on their own qubits
        open_run, cnots = _fuse([EDGE_CIRCUITS["a run still open at the end"].gates,
                                 EDGE_CIRCUITS["CNOTs only"].gates])
        assert [len(qubits) for qubits, _ in open_run] == [2, 2, 1]
        assert all(len(qubits) == 2 for qubits, _ in cnots)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(circuits(max_qubits=6, max_gates=25), fusion_circuits()),
                    min_size=1, max_size=4))
    def test_random_circuits(self, batch):
        assert_fused_as_alone([c.gates for c in batch])

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_and_random_unitary_circuits(self, seed):
        rng = np.random.default_rng(seed)
        batch = [random_unitary_circuit(rng, int(rng.integers(2, 7)), int(rng.integers(0, 60)))
                 for _ in range(3)]
        batch += [ql.gen_random_circuit(n, seed + 1, 100 * seed + n) for n in (2, 5, 8)]
        assert_fused_as_alone([c.gates for c in batch])

    @settings(max_examples=60, deadline=None)
    @given(fusion_circuits(), st.sampled_from(["linear", "circle", "central", "neighbour"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_probe_fidelity_of_one_batch_is_that_of_each_side_alone(self, original, layout,
                                                                    seed):
        # fusion_circuits are at most 5 qubits wide, the narrower side padded
        result = ql.transpile(original, make_layout(layout, 5))
        args = (original, result.circuit, result.final_mapping)
        kwargs = {"initial_map": result.initial_mapping, "seed": seed}
        batched = probe_fidelity(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_fuse", lambda lists: [_fuse([gates])[0] for gates in lists])
            assert probe_fidelity(*args, **kwargs) == batched


class TestRelabeling:
    def test_final_swap_moves_the_state(self):
        # a SWAP triple leaves qubit 0's state on wire 1 and qubit 1's on wire 0
        idle = ql.Circuit(2, 0, (ql.u3(0.4, 0.2, 0.1, 0),))
        swapped = idle.with_gates(idle.gates + (ql.cx(0, 1), ql.cx(1, 0), ql.cx(0, 1)))
        assert probe_fidelity(idle, swapped, QubitMapping.swap(0, 1)) == pytest.approx(1, abs=1e-12)
        assert probe_fidelity(idle, swapped) < 0.5

    def test_identity_mapping_is_no_mapping(self):
        a = random_unitary_circuit(np.random.default_rng(9), 3, 15)
        b = random_unitary_circuit(np.random.default_rng(10), 3, 15)
        identity = QubitMapping.identity()
        assert (probe_fidelity(a, b, identity, initial_map=identity)
                == probe_fidelity(a, b) == probe_fidelity(a, b, {}, initial_map={}))

    @settings(max_examples=100, deadline=None)
    @given(fusion_circuits(), st.data(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_explicit_permutations(self, original, data, seed):
        n = original.num_qubits
        initial, final = (QubitMapping.from_dict(dict(enumerate(data.draw(st.permutations(range(n))))))
                          for _ in range(2))
        if data.draw(st.booleans()):  # the same program on relabeled wires
            transpiled = ql.apply_mapping(original, initial)
        else:
            transpiled = data.draw(fusion_circuits().filter(lambda c: c.num_qubits <= n))
        probes = _probe_block(n, seed)
        ref = permutation_matrix(final, n) @ reference_unitary(original) @ probes
        out = (reference_unitary(transpiled.widened(n)) @ permutation_matrix(initial, n)
               @ probes)
        expected = np.abs(np.sum(ref.conj() * out, axis=0)).min()
        got = probe_fidelity(original, transpiled, final, initial_map=initial, seed=seed)
        assert abs(got - expected) <= 1e-12


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

    def test_dict_mapping_gives_the_verdict_of_its_qubit_mapping(self):
        c = ql.Circuit(2, 0, (ql.h(0), ql.cx(0, 1), ql.u1(0.3, 1)))
        d = {0: 1, 1: 0}
        m = QubitMapping.from_dict(d)
        relabeled = ql.apply_mapping(c, d)
        for kwargs in ({"initial_map": d}, {}):  # equivalent, then not
            as_mapping = {k: m for k in kwargs}
            assert (ql.equivalent(c, relabeled, d, 1e-12, **kwargs)
                    is ql.equivalent(c, relabeled, m, 1e-12, **as_mapping)
                    is bool(kwargs))
            assert (probe_fidelity(c, relabeled, d, **kwargs)
                    == probe_fidelity(c, relabeled, m, **as_mapping))

    def test_mapping_outside_the_register_rejected(self):
        # qubit 5 of a 2-qubit register must not be read as some other qubit
        c = ql.Circuit(2, 0, (ql.h(0), ql.cx(0, 1), ql.u1(0.3, 1)))
        outside = QubitMapping.from_dict({0: 5, 5: 0})
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            probe_fidelity(c, c, outside)
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            probe_fidelity(c, c, initial_map=outside)

    def test_qubit_limit(self):
        wide = ql.Circuit(17)
        for check in (lambda: ql.equivalent(wide, wide), lambda: probe_fidelity(wide, wide)):
            with pytest.raises(ValueError, match="17 qubits exceeds the 16-qubit simulator limit"):
                check()

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

    def test_circuit_wider_than_the_graph_is_a_value_error(self):
        with pytest.raises(ValueError, match="circuit uses 5 qubits but the layout has only 3"):
            brute_force_route_cost(ql.Circuit(5, 0, (ql.cx(3, 4),)), make_layout("linear", 3))

    #: 12 CNOTs illegal under the identity on linear-4, at the cap, but the
    #: branches that relabel the rest meet more, and the tree outgrows the bound
    DEEP = [(0, 3), (1, 0), (1, 0), (0, 2), (0, 3), (2, 3), (2, 1), (1, 3), (2, 3), (3, 2),
            (3, 2), (0, 3), (1, 2), (2, 3), (2, 1), (3, 2), (2, 0), (2, 1), (0, 2), (3, 2),
            (0, 3), (2, 0), (1, 2), (2, 1), (2, 1), (2, 3), (1, 3), (2, 3), (0, 3), (2, 1),
            (1, 0), (3, 2), (2, 1), (3, 2), (3, 1)]

    def test_oracle_bounds_the_nodes_it_visits(self, monkeypatch):
        g = make_layout("linear", 4)
        assert sum(g.distances[c][t] != 1 for c, t in self.DEEP) == MAX_ORACLE_ILLEGAL
        circuit = ql.Circuit(4, 0, tuple(ql.cx(c, t) for c, t in self.DEEP))
        scans = 0
        first_illegal = routing.first_illegal

        def counting(*args):
            nonlocal scans
            scans += 1
            return first_illegal(*args)

        monkeypatch.setattr(routing, "first_illegal", counting)
        with pytest.raises(ValueError, match=r"oracle cap of 12 \(MAX_ORACLE_ILLEGAL\)"):
            brute_force_route_cost(circuit, g)
        # every node of a tree 12 repairs deep, and not one more
        assert scans == 2 ** (MAX_ORACLE_ILLEGAL + 1) - 1
        # the first 19 CNOTs grow 6,269 nodes, under the bound
        scans = 0
        assert brute_force_route_cost(ql.Circuit(4, 0, circuit.gates[:19]), g) == 272
        assert scans == 6269

    def test_a_long_branch_is_walked_without_recursion(self):
        # one CNOT illegal under the identity, but at each level one repair
        # leaves the rest legal and the other meets a later pair: the tree
        # is narrow (3,297 nodes) and hundreds of repairs deep, deeper than
        # the interpreter's stack
        gates = (ql.cx(0, 2),) + (ql.cx(2, 1), ql.cx(0, 1)) * 412
        circuit = ql.Circuit(3, 0, gates)
        assert len(circuit) == 825
        assert brute_force_route_cost(circuit, make_layout("linear", 3)) == 68

    def test_oracle_never_beaten_by_router(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = 5
            g = make_layout(["linear", "circle", "central", "neighbour"][int(rng.integers(0, 4))], n)
            gates = tuple(ql.cx(*map(int, rng.choice(n, 2, replace=False)))
                          for _ in range(int(rng.integers(1, 7))))
            c = ql.Circuit(n, 0, gates)
            assert brute_force_route_cost(c, g) <= ql.route_circuit(c, g).search_cost
