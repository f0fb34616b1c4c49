"""Gate/circuit construction rules, relabeling, and gate counting."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qlayout as ql
from qlayout.ir import (
    MAX_REGISTER,
    Gate,
    GateKind,
    QubitMapping,
    single_qubit_matrix,
    u3_angles,
)

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

    @pytest.mark.parametrize("kind, qubits, message", [
        (GateKind.BARRIER, (), "barrier needs a nonempty set of distinct qubits"),
        (GateKind.BARRIER, (1, 1), "barrier needs a nonempty set of distinct qubits"),
        (GateKind.H, (0, 1), "h acts on exactly one qubit"),
    ])
    def test_operand_count_and_distinctness_enforced(self, kind, qubits, message):
        with pytest.raises(ValueError, match=message):
            Gate(kind, qubits)

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            ql.u1(math.inf, 0)
        with pytest.raises(ValueError):
            ql.u3(0.1, math.nan, 0.2, 0)

    @pytest.mark.parametrize("build, field", [
        (lambda: ql.cx(0.7, 1.2), "qubit"),
        (lambda: ql.h(1.0), "qubit"),
        (lambda: ql.barrier(0, True), "qubit"),
        (lambda: ql.measure(0, 0.9), "clbit"),
        (lambda: ql.measure(0, "0"), "clbit"),
    ], ids=["cx(0.7, 1.2)", "h(1.0)", "barrier(0, True)", "measure(0, 0.9)", "measure(0, '0')"])
    def test_non_integer_operand_rejected(self, build, field):
        # a float is not truncated: cx(0.7, 1.2) is not cx(0, 1)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build()

    def test_numpy_integer_operands_stored_as_int(self):
        g = ql.measure(np.int8(1), np.int64(0))
        assert (g.qubits, g.clbit) == ((1,), 0)
        assert type(g.qubits[0]) is int and type(g.clbit) is int
        assert ql.cx(np.int32(0), np.intp(1)) == ql.cx(0, 1)

    def test_clbit_pins_to_measure_only(self):
        with pytest.raises(ValueError):
            Gate(GateKind.U1, (0,), (0.5,), clbit=0)
        with pytest.raises(ValueError):
            Gate(GateKind.MEASURE, (0,))

    def test_h_matrix_equals_u2_of_0_pi(self):
        assert ql.h(0) != ql.u2(0.0, math.pi, 0)  # distinct kinds in the IR
        err = phase_aligned_error(single_qubit_matrix(ql.u2(0.0, math.pi, 0)),
                                  single_qubit_matrix(ql.h(0)))
        assert err == 0.0


def _e(angle: float) -> complex:
    return cmath.exp(1j * angle)


_R = 1 / math.sqrt(2)


class TestU3Angles:
    """``single_qubit_matrix`` reads every kind through ``u3_angles``; these
    are the textbook matrices, written out without it."""

    @pytest.mark.parametrize("gate, expected", [
        (ql.u1(0.7, 0), (1, 0, 0, _e(0.7))),
        (ql.u1(-2.9, 0), (1, 0, 0, _e(-2.9))),
        (ql.u2(0.4, -1.3, 0), (_R, -_R * _e(-1.3), _R * _e(0.4), _R * _e(0.4 - 1.3))),
        (ql.u2(0.0, math.pi, 0), (_R, _R, _R, -_R)),
        (ql.u3(1.1, 0.2, -0.5, 0),
         (math.cos(0.55), -_e(-0.5) * math.sin(0.55),
          _e(0.2) * math.sin(0.55), _e(0.2 - 0.5) * math.cos(0.55))),
        (ql.u3(math.pi, 0.0, 0.0, 0), (0, -1, 1, 0)),
        (ql.h(0), (_R, _R, _R, -_R)),
    ])
    def test_matrix_is_the_textbook_one(self, gate, expected):
        assert phase_aligned_error(expected, single_qubit_matrix(gate)) < 1e-15

    @pytest.mark.parametrize("gate", [ql.cx(0, 1), ql.measure(0, 0), ql.barrier(0, 1)])
    def test_non_single_qubit_kind_rejected(self, gate):
        with pytest.raises(ValueError, match="not a single-qubit gate"):
            u3_angles(gate)


class TestCircuit:
    def test_qubit_range_checked(self):
        with pytest.raises(ValueError):
            ql.Circuit(2, 0, (ql.u1(0.1, 2),))

    def test_clbit_range_checked(self):
        with pytest.raises(ValueError):
            ql.Circuit(2, 1, (ql.measure(0, 1),))

    @pytest.mark.parametrize("sizes,name", [
        ((2.5,), "num_qubits"), ((True,), "num_qubits"), (("3",), "num_qubits"),
        ((2, 1.0), "num_clbits"), ((2, False), "num_clbits"),
    ])
    def test_non_integer_register_size_rejected(self, sizes, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ql.Circuit(*sizes)

    @pytest.mark.parametrize("sizes,name", [
        ((-1,), "num_qubits"), ((MAX_REGISTER + 1,), "num_qubits"), ((10**6,), "num_qubits"),
        ((2, -1), "num_clbits"), ((2, MAX_REGISTER + 1), "num_clbits"),
    ])
    def test_register_size_outside_the_bound_rejected(self, sizes, name):
        with pytest.raises(ValueError, match=rf"{name} must be in 0\.\.{MAX_REGISTER}"):
            ql.Circuit(*sizes)

    def test_register_sizes_at_the_bounds_stored_as_int(self):
        for sizes in ((0, MAX_REGISTER), (np.int64(MAX_REGISTER), np.int64(0))):
            c = ql.Circuit(*sizes)
            assert (c.num_qubits, c.num_clbits) == tuple(map(int, sizes))
            assert type(c.num_qubits) is int and type(c.num_clbits) is int
            text = ql.emit_qasm(c)
            assert ql.emit_qasm(ql.parse_qasm(text)) == text

    def test_widened_keeps_gates(self):
        c = ql.Circuit(2, 2, (ql.cx(0, 1),))
        w = c.widened(5)
        assert w.num_qubits == 5 and w.gates == c.gates
        with pytest.raises(ValueError):
            c.widened(1)


def inverse(m: QubitMapping) -> QubitMapping:
    return QubitMapping(tuple((b, a) for a, b in m.pairs))


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

    @pytest.mark.parametrize("pairs", [((0, 1.7), (1, 0.2)), ((0.0, 1), (1, 0)), ((True, 0), (0, 1))])
    def test_non_integer_index_rejected(self, pairs):
        with pytest.raises(ValueError, match="^mapped qubit must be an integer"):
            QubitMapping(pairs)

    def test_numpy_integer_indices_stored_as_int(self):
        m = QubitMapping(((np.int64(0), np.int64(1)), (np.int32(1), 0)))
        assert m == QubitMapping.swap(0, 1)
        assert all(type(q) is int for pair in m.pairs for q in pair)

    def test_identity_pairs_dropped(self):
        assert QubitMapping.from_dict({2: 2}).is_identity

    def test_composition_and_inverse(self):
        a = QubitMapping.swap(0, 1)
        b = QubitMapping.from_dict({1: 2, 2: 0, 0: 1})
        ab = a.then(b)
        for q in range(4):
            assert ab(q) == b(a(q))
        assert a.then(inverse(a)).is_identity

    @given(perm=st.permutations(list(range(5))))
    def test_random_permutations_round_trip(self, perm):
        m = QubitMapping.from_dict({i: p for i, p in enumerate(perm)})
        assert m.then(inverse(m)).is_identity
        assert inverse(m).then(m).is_identity


class TestApplyMapping:
    def test_whole_program_swap(self):
        c = ql.Circuit(5, 0, (ql.cx(1, 4),))
        out = ql.apply_mapping(c, {1: 3, 3: 1})
        assert out.gates == (ql.cx(3, 4),)

    def test_identity_mapping_is_identity_transform(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.h(2)))
        assert ql.apply_mapping(c, {}) == c

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

    @given(perm=st.permutations(list(range(4))))
    def test_mapping_then_inverse_restores(self, perm):
        c = ql.Circuit(4, 0, (ql.cx(0, 1), ql.h(2), ql.u1(0.5, 3), ql.cx(3, 2)))
        m = QubitMapping.from_dict({i: p for i, p in enumerate(perm)})
        assert ql.apply_mapping(ql.apply_mapping(c, m), inverse(m)) == c


class TestMoved:
    GATES = (ql.h(0), ql.u3(0.1, 0.2, 0.3, 1), ql.measure(2, 1), ql.cx(0, 2),
             ql.cx(3, 1), ql.barrier(1, 2), ql.barrier(3, 0, 2))

    @given(perm=st.permutations(list(range(4))))
    def test_equals_the_checked_gate_and_is_itself_when_unmoved(self, perm):
        for g in self.GATES:
            moved = g._moved(perm)
            qubits = tuple(perm[q] for q in g.qubits)
            assert moved == Gate(g.kind, qubits, g.params, g.clbit)
            assert (moved is g) == (qubits == g.qubits)


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
