"""Single-qubit fusion: pairwise products, the Y-Z rewrite, run merging.

The outputs of ``merge_adjacent`` and ``yz_to_zy`` are pinned bit for bit:
``tests/data/fusion_golden.json`` holds a digest of their outputs, float by
float in hex, over seeded inputs that include the angles where a branch
changes.  Re-record after an intended change with::

    PYTHONPATH=src python tests/test_merge.py
"""
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from qlayout.ir import mat2_mul, single_qubit_matrix, u3_angles, u3_matrix
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


#: angles where a fused gate's kind or a branch of the Y-Z rewrite changes:
#: zero of either sign, quarter, half and whole turns, and angles within ATOL
#: of them, where the rewrite treats a half-angle sine or cosine as zero
EDGE_ANGLES = tuple(sorted({a + d for a in (0.0, math.pi / 2, math.pi, 2 * math.pi)
                            for d in (0.0, ATOL / 2, -ATOL / 2, 0.9 * ATOL, -0.9 * ATOL)}
                           | {-a for a in (math.pi / 2, math.pi, ATOL / 2)} | {-0.0}))

#: angles whose sums overflow to an infinity
HUGE_ANGLES = (1e308, -1e308, 1.7e308, -1.7e308)

fusion_angles = st.one_of(st.sampled_from(EDGE_ANGLES), finite_angles)

SINGLE_KINDS = ("u1", "u2", "u3", "h")


def make_single(kind: str, angles: list[float], q: int) -> ql.Gate:
    """A ``kind`` gate on ``q`` taking as many of ``angles`` as it needs."""
    return {"u1": lambda: ql.u1(angles[0], q), "u2": lambda: ql.u2(angles[0], angles[1], q),
            "u3": lambda: ql.u3(*angles[:3], q), "h": lambda: ql.h(q)}[kind]()


@st.composite
def fusion_circuits(draw, angles=fusion_angles):
    """Circuits on 1..3 qubits, mostly single-qubit gates so that runs are
    long, with CNOTs, measures and barriers ending them."""
    n = draw(st.integers(min_value=1, max_value=3))
    kinds = SINGLE_KINDS * 3 + ("measure", "barrier") + (("cx",) if n > 1 else ())
    qubit = st.integers(min_value=0, max_value=n - 1)
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        kind = draw(st.sampled_from(kinds))
        q = draw(qubit)
        if kind in SINGLE_KINDS:
            gates.append(make_single(kind, [draw(angles) for _ in range(3)], q))
        elif kind == "cx":
            gates.append(ql.cx(q, draw(qubit.filter(lambda t: t != q))))
        elif kind == "measure":
            gates.append(ql.measure(q, draw(qubit)))
        else:
            gates.append(ql.barrier(*sorted(draw(st.sets(qubit, min_size=1)))))
    return ql.Circuit(n, n, tuple(gates))


def reference_merge_runs(circuit: ql.Circuit) -> ql.Circuit:
    """The pass as a fold of ``merge_adjacent``: each open run is a gate,
    and each gate that joins it is fused into it pairwise."""
    pending: dict[int, ql.Gate] = {}
    out: list[ql.Gate] = []

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
    return ql.Circuit(circuit.num_qubits, circuit.num_clbits, tuple(out))


def outcome(fuse, circuit: ql.Circuit) -> str | tuple[str, str]:
    """The fused circuit's text (``repr`` angles, so a -0.0 shows), or the
    type and message of what fusing it raised."""
    try:
        return ql.emit_qasm(fuse(circuit))
    except Exception as exc:  # compared, not handled
        return type(exc).__name__, str(exc)


class TestRunsAgainstPairwiseFold:
    @given(fusion_circuits())
    @settings(max_examples=400, deadline=None)
    def test_same_text(self, circuit):
        assert outcome(merge_single_qubit_runs, circuit) == outcome(reference_merge_runs, circuit)

    @given(fusion_circuits(st.one_of(st.sampled_from(HUGE_ANGLES), fusion_angles)))
    @settings(max_examples=300, deadline=None)
    def test_same_text_or_error_with_overflowing_sums(self, circuit):
        assert outcome(merge_single_qubit_runs, circuit) == outcome(reference_merge_runs, circuit)

    def test_every_kind_pair_overflows_alike(self):
        errors = set()
        for later in SINGLE_KINDS:
            for earlier in SINGLE_KINDS:
                for a in HUGE_ANGLES:
                    for b in HUGE_ANGLES:
                        c = ql.Circuit(1, 0, (make_single(earlier, [b, a, b], 0),
                                              make_single(later, [a, b, a], 0)))
                        expected = outcome(reference_merge_runs, c)
                        assert outcome(merge_single_qubit_runs, c) == expected
                        if isinstance(expected, tuple):
                            errors.add(expected)
        # an infinite sum fails in a wrap, or as NaN out of the Y-Z rewrite
        assert errors == {("ValueError", "math domain error"),
                          ("ValueError", "non-finite angle in u3 gate")}

    def test_overflow_errors_are_named(self):
        big = 1e308
        c = ql.Circuit(1, 0, (ql.u1(big, 0), ql.u1(big, 0)))
        assert outcome(merge_single_qubit_runs, c) == ("ValueError", "math domain error")
        c = ql.Circuit(1, 0, (ql.u3(1.0, big, 0.0, 0), ql.u3(1.0, 0.0, big, 0)))
        assert outcome(merge_single_qubit_runs, c) == ("ValueError",
                                                       "non-finite angle in u3 gate")

    def test_lone_gates_are_the_input_objects(self):
        gates = (ql.u3(0.4, 0.5, 0.6, 0), ql.h(1), ql.cx(0, 1), ql.u2(0.1, 0.2, 1),
                 ql.measure(0, 0), ql.u1(0.3, 0))
        out = merge_single_qubit_runs(ql.Circuit(2, 1, gates)).gates
        assert len(out) == len(gates) and {id(g) for g in out} == {id(g) for g in gates}


GOLDEN = Path(__file__).with_name("data") / "fusion_golden.json"
GOLDEN_SEED = 20250808
GOLDEN_CASES = 400


def _golden_angle(rng: random.Random) -> float:
    pick = rng.random()
    if pick < 0.35:
        return rng.choice(EDGE_ANGLES)
    if pick < 0.4:
        return rng.choice(HUGE_ANGLES)
    return rng.uniform(-4 * math.pi, 4 * math.pi)


def _describe(call) -> str:
    """A result of ``call()`` -- a gate, a tuple of floats or an error -- as
    one line, each float in hex."""
    try:
        result = call()
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(result, ql.Gate):
        return f"{result.kind.value} {result.qubits} " + " ".join(p.hex() for p in result.params)
    return f"{type(result).__name__} " + " ".join(x.hex() for x in result)


def golden_digests() -> dict[str, str]:
    """sha256 of the described outputs per group: one group per kind pair
    of ``merge_adjacent``, and one for ``yz_to_zy``."""
    rng = random.Random(GOLDEN_SEED)
    groups: dict[str, list[str]] = {}
    for later in SINGLE_KINDS:
        for earlier in SINGLE_KINDS:
            lines = groups[f"merge_adjacent {later} {earlier}"] = []
            for _ in range(GOLDEN_CASES):
                a = make_single(later, [_golden_angle(rng) for _ in range(3)], 0)
                b = make_single(earlier, [_golden_angle(rng) for _ in range(3)], 0)
                lines.append(_describe(lambda: merge_adjacent(a, b)))
    lines = groups["yz_to_zy"] = []
    for _ in range(4 * GOLDEN_CASES):
        t1, mid, t2 = (_golden_angle(rng) for _ in range(3))
        lines.append(_describe(lambda: yz_to_zy(t1, mid, t2)))
    return {name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in groups.items()}


class TestPinnedBits:
    def test_merge_adjacent_and_yz_to_zy_reproduce_the_recorded_bits(self):
        recorded = json.loads(GOLDEN.read_text())
        assert recorded["seed"] == GOLDEN_SEED and recorded["cases"] == GOLDEN_CASES
        assert golden_digests() == recorded["digests"]

    def test_the_inputs_reach_every_branch(self):
        # the seeded inputs fuse to every kind and reach both errors
        rng = random.Random(GOLDEN_SEED)
        seen = set()
        for _ in range(16 * GOLDEN_CASES):
            a, b = (make_single(rng.choice(SINGLE_KINDS), [_golden_angle(rng) for _ in range(3)], 0)
                    for _ in range(2))
            seen.add(_describe(lambda: merge_adjacent(a, b)).split(" ")[0])
        assert {"u1", "u2", "u3", "ValueError:"} <= seen


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "cases": GOLDEN_CASES,
                                  "digests": golden_digests()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
