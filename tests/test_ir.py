"""Gate/circuit construction rules, relabeling, and gate counting."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qlayout as ql
from qlayout.ir import Gate, GateKind, QubitMapping

from conftest import phase_aligned_error


class TestGate:
    def test_param_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate(GateKind.U1, (0,), (0.1, 0.2))
        with pytest.raises(ValueError):
            Gate(GateKind.U3, (0,), (0.1,))

    def test_cnot_needs_two_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (1, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (1,))

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            ql.u1(math.inf, 0)
        with pytest.raises(ValueError):
            ql.u3(0.1, math.nan, 0.2, 0)

    def test_clbit_pins_to_measure_only(self):
        with pytest.raises(ValueError):
            Gate(GateKind.U1, (0,), (0.5,), clbit=0)
        with pytest.raises(ValueError):
            Gate(GateKind.MEASURE, (0,))

    def test_h_matrix_equals_u2_of_0_pi(self):
        assert ql.h(0) != ql.u2(0.0, math.pi, 0)  # distinct kinds in the IR
        from qlayout.ir import single_qubit_matrix
        err = phase_aligned_error(single_qubit_matrix(ql.u2(0.0, math.pi, 0)),
                                  single_qubit_matrix(ql.h(0)))
        assert err == 0.0


class TestCircuit:
    def test_qubit_range_checked(self):
        with pytest.raises(ValueError):
            ql.Circuit(2, 0, (ql.u1(0.1, 2),))

    def test_clbit_range_checked(self):
        with pytest.raises(ValueError):
            ql.Circuit(2, 1, (ql.measure(0, 1),))

    def test_widened_keeps_gates(self):
        c = ql.Circuit(2, 2, (ql.cx(0, 1),))
        w = c.widened(5)
        assert w.num_qubits == 5 and w.gates == c.gates
        with pytest.raises(ValueError):
            c.widened(1)


class TestQubitMapping:
    def test_identity_is_empty(self):
        m = QubitMapping.identity()
        assert m.is_identity and m(3) == 3

    def test_unlisted_indices_fixed(self):
        m = QubitMapping.from_dict({1: 3, 3: 1})
        assert m(1) == 3 and m(3) == 1 and m(0) == 0

    def test_non_bijective_rejected(self):
        with pytest.raises(ValueError):
            QubitMapping.from_dict({1: 3})  # 1 and 3 both land on 3
        with pytest.raises(ValueError):
            QubitMapping(((0, 1), (0, 2)))

    def test_identity_pairs_dropped(self):
        assert QubitMapping.from_dict({2: 2}).is_identity

    def test_composition_and_inverse(self):
        a = QubitMapping.swap(0, 1)
        b = QubitMapping.from_dict({1: 2, 2: 0, 0: 1})
        ab = a.then(b)
        for q in range(4):
            assert ab(q) == b(a(q))
        assert a.then(a.inverse()).is_identity

    @given(perm=st.permutations(list(range(5))))
    def test_random_permutations_round_trip(self, perm):
        m = QubitMapping.from_dict({i: p for i, p in enumerate(perm)})
        assert m.then(m.inverse()).is_identity
        assert m.inverse().then(m).is_identity


class TestApplyMapping:
    def test_whole_program_swap(self):
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        out = ql.apply_mapping(c, {1: 3, 3: 1})
        assert out.gates == (ql.cx(3, 4),)

    def test_identity_mapping_is_identity_transform(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.h(2)))
        assert ql.apply_mapping(c, {}) == c

    def test_suffix_only_rewrite(self):
        c = ql.Circuit(2, 0, (ql.u1(0.3, 0), ql.cx(0, 1)))
        out = ql.apply_mapping(c, {0: 1, 1: 0}, from_gate=1)
        assert out.gates == (ql.u1(0.3, 0), ql.cx(1, 0))

    def test_measure_clbit_untouched(self):
        c = ql.Circuit(2, 2, (ql.measure(0, 1),))
        out = ql.apply_mapping(c, {0: 1, 1: 0})
        assert out.gates == (ql.measure(1, 1),)

    def test_barrier_qubits_follow(self):
        c = ql.Circuit(3, 0, (ql.barrier(0, 2),))
        out = ql.apply_mapping(c, {0: 2, 2: 0})
        assert out.gates[0].qubits == (2, 0)

    def test_mapping_outside_register_untouched_gates(self):
        # a mapping may name qubits the register does not have
        c = ql.Circuit(3, 0, (ql.h(0), ql.cx(0, 1)))
        assert ql.apply_mapping(c, {3: 4, 4: 3}).gates == c.gates

    def test_gate_sent_outside_register_rejected(self):
        c = ql.Circuit(3, 0, (ql.h(0), ql.cx(0, 1)))
        for mapping in ({0: 5, 5: 0}, {0: -1, -1: 0}):
            with pytest.raises(ValueError, match=r"^gate h touches qubit outside 0\.\.2$"):
                ql.apply_mapping(c, mapping)

    def test_only_rewritten_gates_must_stay_inside(self):
        c = ql.Circuit(3, 0, (ql.h(0), ql.cx(0, 1)))
        assert ql.apply_mapping(c, {0: 5, 5: 0}, from_gate=2) == c
        with pytest.raises(ValueError, match=r"^gate cx touches qubit outside 0\.\.2$"):
            ql.apply_mapping(c, {0: 5, 5: 0}, from_gate=1)

    @given(perm=st.permutations(list(range(4))),
           cut=st.integers(min_value=0, max_value=3))
    def test_mapping_then_inverse_restores(self, perm, cut):
        c = ql.Circuit(4, 0, (ql.cx(0, 1), ql.h(2), ql.u1(0.5, 3), ql.cx(3, 2)))
        m = QubitMapping.from_dict({i: p for i, p in enumerate(perm)})
        assert ql.apply_mapping(ql.apply_mapping(c, m, cut), m.inverse(), cut) == c


class TestGateCounts:
    def test_mixed_counts(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.h(2), ql.u3(0.1, 0.2, 0.3, 0), ql.cx(1, 2)))
        assert ql.gate_counts(c) == (2, 2)

    def test_empty(self):
        assert ql.gate_counts(ql.Circuit(1)) == (0, 0)

    def test_measure_and_barrier_excluded(self):
        c = ql.Circuit(2, 2, (ql.measure(0, 0), ql.barrier(0, 1), ql.h(1)))
        assert ql.gate_counts(c) == (0, 1)

    def test_swap_expansion_prices_at_34(self):
        # one SWAP realized as 3 CNOTs plus 4 direction-fix H gates
        c = ql.Circuit(2, 0, (ql.h(0), ql.h(1), ql.cx(0, 1), ql.cx(1, 0),
                              ql.cx(0, 1), ql.h(0), ql.h(1)))
        assert ql.gate_counts(c) == (3, 4)
        assert ql.cost(c) == 34
