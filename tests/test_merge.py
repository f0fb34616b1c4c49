"""Single-qubit fusion: pairwise products, the Y-Z rewrite, run merging."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from qlayout.ir import mat2_mul, single_qubit_matrix, u3_matrix
from qlayout.merge import (
    ATOL,
    ZYTriple,
    _is_identity,
    _may_be_identity,
    merge_adjacent,
    merge_single_qubit_runs,
    yz_to_zy,
)

from conftest import finite_angles, phase_aligned_error, random_unitary_circuit


def ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c + 0j, -s + 0j, s + 0j, c + 0j)


def rz(phi):
    import cmath
    return (cmath.exp(-0.5j * phi), 0j, 0j, cmath.exp(0.5j * phi))


def zyz_matrix(triple: ZYTriple):
    return mat2_mul(rz(triple.phi), mat2_mul(ry(triple.theta), rz(triple.lam)))


class TestYZToZY:
    def test_zero_mid_adds_the_y_angles(self):
        t = yz_to_zy(0.3, 0.0, 0.2)
        assert t == ZYTriple(pytest.approx(0.5), 0.0, 0.0)

    def test_pure_z_case(self):
        t = yz_to_zy(0.0, 1.1, 0.0)
        assert t == ZYTriple(0.0, pytest.approx(1.1), 0.0)

    def test_quarter_turns(self):
        t = yz_to_zy(math.pi / 2, math.pi / 2, math.pi / 2)
        target = mat2_mul(ry(math.pi / 2), mat2_mul(rz(math.pi / 2), ry(math.pi / 2)))
        assert phase_aligned_error(target, zyz_matrix(t)) < 1e-9

    def test_theta_canonical_range(self):
        for theta1, mid, theta2 in [(3.0, 0.4, 2.8), (-1.0, 2.0, -2.5), (6.0, -3.0, 5.9)]:
            t = yz_to_zy(theta1, mid, theta2)
            assert 0.0 <= t.theta <= math.pi
            assert -math.pi < t.phi <= math.pi
            assert -math.pi < t.lam <= math.pi

    def test_gimbal_lock_at_pi(self):
        t = yz_to_zy(math.pi / 2, 0.0, math.pi / 2)
        assert t.theta == pytest.approx(math.pi) and t.lam == 0.0
        target = mat2_mul(ry(math.pi / 2), ry(math.pi / 2))
        assert phase_aligned_error(target, zyz_matrix(t)) < 1e-9

    @given(theta1=finite_angles, mid=finite_angles, theta2=finite_angles)
    @settings(max_examples=300)
    def test_reconstruction(self, theta1, mid, theta2):
        t = yz_to_zy(theta1, mid, theta2)
        target = mat2_mul(ry(theta1), mat2_mul(rz(mid), ry(theta2)))
        assert phase_aligned_error(target, zyz_matrix(t)) < 1e-9


def check_merge(later, earlier, tol=1e-9):
    merged = merge_adjacent(later, earlier)
    product = mat2_mul(single_qubit_matrix(later), single_qubit_matrix(earlier))
    err = phase_aligned_error(product, single_qubit_matrix(merged))
    assert err < tol, (later, earlier, merged, err)
    return merged


class TestMergeAdjacent:
    def test_u1_pair_adds_angles(self):
        merged = merge_adjacent(ql.u1(0.4, 0), ql.u1(0.3, 0))
        assert merged.kind is ql.GateKind.U1
        assert merged.params[0] == pytest.approx(0.7)

    def test_identity_u1_leaves_u3_alone(self):
        g = ql.u3(0.9, 0.6, -0.4, 1)
        assert merge_adjacent(ql.u1(0.0, 1), g) == g

    def test_u1_folds_into_phi_slot(self):
        merged = merge_adjacent(ql.u1(0.25, 0), ql.u2(0.5, 1.0, 0))
        assert merged.kind is ql.GateKind.U2
        assert merged.params == (pytest.approx(0.75), pytest.approx(1.0))

    def test_u1_folds_into_lambda_slot(self):
        merged = merge_adjacent(ql.u3(0.9, 0.6, -0.4, 0), ql.u1(0.5, 0))
        assert merged.kind is ql.GateKind.U3
        assert merged.params == (pytest.approx(0.9), pytest.approx(0.6), pytest.approx(0.1))

    def test_u3_pair_matches_matrix_product(self):
        merged = check_merge(ql.u3(0.3, 0.7, -0.2, 0), ql.u3(1.1, 0.4, 0.9, 0))
        assert merged.kind is ql.GateKind.U3

    def test_double_h_is_identity_phase(self):
        merged = check_merge(ql.h(0), ql.h(0))
        assert merged.kind is ql.GateKind.U1  # theta folded to zero

    def test_half_turn_theta_downgrades_to_u2(self):
        merged = check_merge(ql.u2(0.3, 0.4, 0), ql.u1(0.2, 0))
        assert merged.kind is ql.GateKind.U2

    def test_different_qubits_rejected(self):
        with pytest.raises(ValueError):
            merge_adjacent(ql.u1(0.1, 0), ql.u1(0.2, 1))

    def test_non_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            merge_adjacent(ql.u1(0.1, 0), ql.cx(0, 1))

    def test_overflowing_angles_rejected(self):
        # two finite angles can add up past the largest double
        big = 1e308
        for later, earlier in ((ql.u3(1.0, 0.0, big, 0), ql.u3(1.0, big, 0.0, 0)),
                               (ql.u2(big, big, 0), ql.u2(big, big, 0)),
                               (ql.u1(big, 0), ql.u1(big, 0))):
            with pytest.raises(ValueError):
                merge_adjacent(later, earlier)
            with pytest.raises(ValueError):
                merge_single_qubit_runs(ql.Circuit(1, 0, (earlier, later)))

    @pytest.mark.parametrize("seed", range(4))
    def test_all_kind_pairs_match_products(self, seed):
        rng = np.random.default_rng(seed)

        def rand_gate():
            kind = rng.integers(0, 4)
            a = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
            if kind == 0:
                return ql.u1(a[0], 0)
            if kind == 1:
                return ql.u2(a[0], a[1], 0)
            if kind == 2:
                return ql.u3(a[0], a[1], a[2], 0)
            return ql.h(0)

        for _ in range(500):
            check_merge(rand_gate(), rand_gate())


def _near(x: float, steps: int = 3) -> list[float]:
    """``x``, its ``steps`` nearest doubles on each side, and a few
    relative offsets."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out + [x * (1 + r) for r in (-1e-3, -1e-6, 1e-6, 1e-3)]


class TestIdentityPrefilter:
    """``_may_be_identity`` rules gates out before a matrix is built; it
    must never rule out a gate that ``_is_identity`` accepts."""

    THETAS = sorted({t for centre in (2 * ATOL, 4 * ATOL, 2 * math.pi, 4 * math.pi)
                     for c in (centre, -centre)
                     for d in (0.0, ATOL, 2 * ATOL, 3 * ATOL, 4 * ATOL, 5 * ATOL)
                     for t in _near(c + d) + _near(c - d)})
    PHASES = ((0.0, 0.0), (0.3, -0.3), (math.pi, -math.pi), (1e-10, 0.0),
              (2 * math.pi, 0.0), (0.5, 0.25))

    def test_u3_never_ruled_out_when_identity(self):
        identities = ruled_out = 0
        for theta in self.THETAS:
            for phi, lam in self.PHASES:
                g = ql.u3(theta, phi, lam, 0)
                is_identity = _is_identity(single_qubit_matrix(g))
                assert _may_be_identity(g) or not is_identity, g
                identities += is_identity
                ruled_out += not _may_be_identity(g)
        assert identities > 0 and ruled_out > 0  # both sides of the boundary seen

    @given(theta=finite_angles, phi=finite_angles, lam=finite_angles)
    def test_random_u3_agrees(self, theta, phi, lam):
        g = ql.u3(theta, phi, lam, 0)
        assert _may_be_identity(g) or not _is_identity(single_qubit_matrix(g))

    @given(phi=finite_angles, lam=finite_angles)
    def test_u2_and_h_ruled_out(self, phi, lam):
        for g in (ql.u2(phi, lam, 0), ql.h(0)):
            assert not _may_be_identity(g)
            assert not _is_identity(single_qubit_matrix(g))

    def test_u1_never_ruled_out(self):
        assert _may_be_identity(ql.u1(0.0, 0)) and _may_be_identity(ql.u1(0.5, 0))


class TestMergeRuns:
    def test_cnot_only_circuit_unchanged(self):
        c = ql.Circuit(3, 0, (ql.cx(0, 1), ql.cx(1, 2)))
        assert merge_single_qubit_runs(c) == c

    def test_inverse_pair_cancels(self):
        c = ql.Circuit(1, 0, (ql.u1(0.8, 0), ql.u1(-0.8, 0)))
        assert merge_single_qubit_runs(c).gates == ()

    def test_runs_bounded_by_blockers(self):
        c = ql.Circuit(2, 0, (
            ql.u1(0.1, 0), ql.u2(0.2, 0.3, 0), ql.h(1),
            ql.cx(0, 1),
            ql.u3(0.4, 0.5, 0.6, 0), ql.u1(0.7, 0),
        ))
        merged = merge_single_qubit_runs(c)
        # one fused gate per qubit before the CNOT, one for q0 after
        kinds = [(g.kind.value, g.qubits) for g in merged.gates]
        assert kinds[0][1] == (1,) or kinds[1][1] == (1,)
        assert sum(1 for g in merged.gates if g.kind is ql.GateKind.CNOT) == 1
        assert len(merged.gates) == 4
        assert ql.equivalent(c, merged, tol=1e-9)

    def test_barrier_blocks_merging(self):
        c = ql.Circuit(1, 0, (ql.u1(0.5, 0), ql.barrier(0), ql.u1(-0.5, 0)))
        merged = merge_single_qubit_runs(c)
        assert [g.kind for g in merged.gates] == [
            ql.GateKind.U1, ql.GateKind.BARRIER, ql.GateKind.U1]

    def test_measure_blocks_merging(self):
        c = ql.Circuit(1, 1, (ql.u1(0.5, 0), ql.measure(0, 0), ql.u1(0.25, 0)))
        merged = merge_single_qubit_runs(c)
        assert [g.kind for g in merged.gates] == [
            ql.GateKind.U1, ql.GateKind.MEASURE, ql.GateKind.U1]

    def test_lone_gates_pass_through_unchanged(self):
        c = ql.Circuit(2, 0, (ql.u3(0.4, 0.5, 0.6, 0), ql.cx(0, 1), ql.h(1)))
        assert merge_single_qubit_runs(c) == c

    def test_idempotent(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            c = random_unitary_circuit(rng, 4, 30)
            once = merge_single_qubit_runs(c)
            assert merge_single_qubit_runs(once) == once

    def test_per_subinterval_at_most_one_gate(self):
        rng = np.random.default_rng(99)
        c = random_unitary_circuit(rng, 5, 60)
        merged = merge_single_qubit_runs(c)
        open_run: dict[int, int] = {}
        for g in merged.gates:
            if g.is_single_qubit:
                q = g.qubits[0]
                open_run[q] = open_run.get(q, 0) + 1
                assert open_run[q] <= 1
            else:
                for q in g.qubits:
                    open_run[q] = 0

    def test_counts_never_grow(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c = random_unitary_circuit(rng, 4, 40)
            merged = merge_single_qubit_runs(c)
            n2_before, n1_before = ql.gate_counts(c)
            n2_after, n1_after = ql.gate_counts(merged)
            assert n2_after == n2_before
            assert n1_after <= n1_before

    def test_cnot_order_preserved(self):
        rng = np.random.default_rng(5)
        c = random_unitary_circuit(rng, 4, 40)
        merged = merge_single_qubit_runs(c)
        before = [g.qubits for g in c.gates if g.kind is ql.GateKind.CNOT]
        after = [g.qubits for g in merged.gates if g.kind is ql.GateKind.CNOT]
        assert before == after

    def test_semantics_preserved_on_random_circuits(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            c = random_unitary_circuit(rng, 6, 50)
            merged = merge_single_qubit_runs(c)
            assert ql.equivalent(c, merged, tol=1e-9)
