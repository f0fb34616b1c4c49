"""Width-free correctness check for a transpiled circuit.

It needs no statevector, so it works at every register width:

* every CNOT of the output is a graph edge under directed rules;
* the CNOT skeletons agree over GF(2).  Simulating the CNOTs only, as XOR
  of bitmask rows, the output -- started with qubit q on wire
  ``initial(q)`` -- must leave on wire ``final(q)`` the row that the input
  leaves on wire q;
* the single-qubit gate count does not grow.

The last two parts hold only on undirected graphs: on a directed graph the
direction fixer replaces a reversed CNOT by its mirror wrapped in h gates,
which changes both the skeleton and the count.  There only legality is
checked, and the statevector oracle gives the verdict.

Single-qubit gates are counted, not compared, so this is a necessary
condition for equivalence, not a certificate.
"""
from __future__ import annotations

from qlayout import (
    Circuit,
    CouplingGraph,
    GateKind,
    QubitMapping,
    cx,
    gate_counts,
    gen_random_circuit,
    make_layout,
    transpile,
)


def _cnot_rows(circuit: Circuit, rows: list[int]) -> list[int]:
    rows = list(rows)
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            control, target = g.qubits
            rows[target] ^= rows[control]
    return rows


def width_free_problems(original: Circuit, output: Circuit, graph: CouplingGraph,
                        initial: QubitMapping, final: QubitMapping) -> list[str]:
    """Reasons ``output`` is not a correct routing of ``original`` on
    ``graph``; empty when every check passes."""
    n = graph.num_qubits
    if output.num_qubits != n or original.num_qubits > n:
        return [f"register sizes {original.num_qubits} -> {output.num_qubits} "
                f"do not fit a {n}-qubit graph"]
    problems = []
    for i, g in enumerate(output.gates):
        if g.kind is GateKind.CNOT and not graph.is_legal_cnot(*g.qubits):
            problems.append(f"gate {i}: cx{g.qubits} is not an edge")
            break
    if graph.directed:
        return problems
    expected = _cnot_rows(original, [1 << q for q in range(n)])
    start = [0] * n
    for q in range(n):
        start[initial(q)] = 1 << q
    got = _cnot_rows(output, start)
    wrong = [q for q in range(n) if got[final(q)] != expected[q]]
    if wrong:
        problems.append(f"CNOT skeleton differs for qubits {wrong[:8]}")
    singles_in, singles_out = gate_counts(original)[1], gate_counts(output)[1]
    if singles_out > singles_in:
        problems.append(f"single-qubit gates grew from {singles_in} to {singles_out}")
    return problems


# --- mutations the check must reject -----------------------------------------
#
# Each takes (output, graph, final) and returns a broken (output, final).

def drop_cnot(output: Circuit, graph: CouplingGraph, final: QubitMapping):
    k = next(i for i, g in enumerate(output.gates) if g.kind is GateKind.CNOT)
    return output.with_gates(output.gates[:k] + output.gates[k + 1:]), final


def wrong_final_mapping(output: Circuit, graph: CouplingGraph, final: QubitMapping):
    return output, final.then(QubitMapping.swap(0, 1))


def illegal_cnot(output: Circuit, graph: CouplingGraph, final: QubitMapping):
    """Two copies of a CNOT on a non-edge: they cancel over GF(2), so only
    the legality part can see them."""
    n = graph.num_qubits
    a, b = next((a, b) for a in range(n) for b in range(n)
                if a != b and not graph.is_legal_cnot(a, b))
    return output.with_gates((cx(a, b), cx(a, b)) + output.gates), final


MUTATIONS = {f.__name__: f for f in (drop_cnot, wrong_final_mapping, illegal_cnot)}


def sample_case(n: int = 6, depth: int = 3, seed: int = 7):
    """A small undirected routing problem and its pipeline result."""
    graph = make_layout("linear", n)
    circuit = gen_random_circuit(n, depth, seed)
    return circuit, graph, transpile(circuit, graph)


def self_check() -> list[str]:
    """Failures of the check on a known case: the pipeline's own output must
    pass and each mutation of it must be rejected."""
    circuit, graph, result = sample_case()
    failures = []
    if width_free_problems(circuit, result.circuit, graph,
                           result.initial_mapping, result.final_mapping):
        failures.append("rejects the pipeline output of its sample case")
    for name, mutate in MUTATIONS.items():
        output, final = mutate(result.circuit, graph, result.final_mapping)
        if not width_free_problems(circuit, output, graph, result.initial_mapping, final):
            failures.append(f"accepts {name}")
    return failures
