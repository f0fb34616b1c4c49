import math

import numpy as np
import pytest
from hypothesis import strategies as st

import qlayout as ql
from qlayout.coupling import CouplingGraph
from qlayout.ir import Gate, GateKind, QubitMapping
from qlayout.routing import DEFAULT_LOOKAHEAD, _choose_repair, _Leaves

finite_angles = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi,
                          allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 12,
             allow_measure: bool = True, allow_barrier: bool = True):
    """Random circuits over the full gate set."""
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    n_cl = n if allow_measure else 0
    kinds = ["u1", "u2", "u3", "h", "cx"]
    if allow_measure:
        kinds.append("measure")
    if allow_barrier:
        kinds.append("barrier")
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.sampled_from(kinds))
        q = draw(st.integers(min_value=0, max_value=n - 1))
        if kind == "u1":
            gates.append(ql.u1(draw(finite_angles), q))
        elif kind == "u2":
            gates.append(ql.u2(draw(finite_angles), draw(finite_angles), q))
        elif kind == "u3":
            gates.append(ql.u3(draw(finite_angles), draw(finite_angles),
                               draw(finite_angles), q))
        elif kind == "h":
            gates.append(ql.h(q))
        elif kind == "cx":
            t = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != q))
            gates.append(ql.cx(q, t))
        elif kind == "measure":
            gates.append(ql.measure(q, draw(st.integers(min_value=0, max_value=n_cl - 1))))
        else:
            qs = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                              min_size=1, max_size=n))
            gates.append(ql.barrier(*sorted(qs)))
    return ql.Circuit(n, n_cl, tuple(gates))


@st.composite
def connected_graphs(draw, min_qubits: int = 3, max_qubits: int = 7):
    """Random connected coupling graphs, directed or not: a random spanning
    tree plus random extra edges, each in a random orientation, on shuffled
    vertex labels."""
    n = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    label = draw(st.permutations(range(n)))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v) if draw(st.booleans()) else (v, u))
    vertex = st.integers(min_value=0, max_value=n - 1)
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=n)):
        if a != b:
            edges.add((a, b))
    return CouplingGraph(n, frozenset((label[a], label[b]) for a, b in edges),
                         directed=draw(st.booleans()))


def lookahead_choose(ill, rest, graph, lookahead=DEFAULT_LOOKAHEAD):
    """The router's decision for the illegal wire pair ``ill`` followed by
    the CNOTs ``rest``, from the identity relabeling: the chosen repair's
    relabeling as a mapping, and its search cost (exact over the horizon,
    estimated below it)."""
    (_, step, _), cost = _choose_repair(ill, _Leaves(rest, graph), 0,
                                        range(graph.num_qubits), lookahead)
    return QubitMapping(tuple(enumerate(step))), cost


def random_unitary_circuit(rng: np.random.Generator, n: int, n_gates: int) -> ql.Circuit:
    """Quick seeded circuit without measures/barriers, for simulator tests."""
    gates = []
    for _ in range(n_gates):
        choice = rng.integers(0, 5)
        q = int(rng.integers(0, n))
        a = rng.uniform(-math.pi, math.pi, size=3)
        if choice == 0:
            gates.append(ql.u1(a[0], q))
        elif choice == 1:
            gates.append(ql.u2(a[0], a[1], q))
        elif choice == 2:
            gates.append(ql.u3(a[0], a[1], a[2], q))
        elif choice == 3:
            gates.append(ql.h(q))
        else:
            t = int(rng.integers(0, n - 1))
            t = t + 1 if t >= q else t
            gates.append(ql.cx(q, t))
    return ql.Circuit(n, 0, tuple(gates))


def phase_aligned_error(expected, actual) -> float:
    """Max entry difference between 2x2 matrices after aligning global phase."""
    pairs = list(zip(expected, actual))
    # align on the largest expected entry to avoid dividing by ~0
    ref_e, ref_a = max(pairs, key=lambda p: abs(p[0]))
    if abs(ref_a) == 0:
        return float("inf")
    phase = ref_e / ref_a * abs(ref_a) / abs(ref_e) if abs(ref_e) else 1.0
    return max(abs(e - phase * a) for e, a in pairs)
