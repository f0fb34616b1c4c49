"""Walk a small program through every pipeline stage.

The layout is a directed 5-qubit chain 0->1->2->3->4: qubit pairs must be
neighbours, and a CNOT may only point down the chain.  The program asks
for cx q[1],q[4], which is neither.
"""
import qlayout as ql

SOURCE = """\
OPENQASM 2.0;
qreg q[5];
creg c[5];
u2(0,pi) q[1];
cx q[1],q[4];
u1(pi/4) q[4];
cx q[4],q[1];
measure q[1] -> c[1];
measure q[4] -> c[4];
"""

circuit = ql.parse_qasm(SOURCE)
graph = ql.CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}), directed=True)

print("input circuit:")
print(ql.emit_qasm(circuit))

# Stage 1: global relabeling. Renaming qubit 1 to wire 3 makes both CNOTs
# nearest-neighbour without spending a single gate.
mapping, estimate = ql.global_adjust(circuit, graph)
print(f"global relabeling: {mapping.as_dict()}, estimated residual swap cost {estimate}")

# The full pipeline routes whatever is left from that placement (no gate is
# rewritten for it), repairs CNOT orientation, and fuses single-qubit runs.
result = ql.transpile(circuit, graph)
print(f"\nstage gate counts (cnots, singles): {result.stage_counts}")
print(f"swaps inserted: {result.swaps_emitted}")
print(f"weighted cost: {result.cost_before} -> {result.cost_after}")
print(f"initial mapping (where each original wire starts): {result.initial_mapping.as_dict()}")
print(f"final mapping (where each original qubit ends): {result.final_mapping.as_dict()}")

print("\noutput circuit:")
print(ql.emit_qasm(result.circuit))

# The statevector oracle certifies the rewrite.  Note cx q[4],q[1] pointed
# against the chain, so the output carries the four-H orientation repair.
ok = ql.equivalent(circuit, result.circuit, result.final_mapping, 1e-9,
                   initial_map=result.initial_mapping)
print(f"statevector equivalence at 1e-9: {ok}")
