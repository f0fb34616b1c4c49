"""The statevector oracle that certifies every rewrite.

Qubit 0 is the least significant bit of the amplitude index.  Equivalence
is judged on a probe set -- every basis state on small registers, seeded
random basis and product states on larger ones -- with the reference
state read through the reported relabeling.  Everything is modulo global
phase.

The script exits non-zero if any verdict below comes out wrong, so running
it checks that injected errors are still caught.
"""
import sys

import numpy as np

import qlayout as ql

# Build a Bell pair; peek at the state.
bell = ql.Circuit(2, 0, (ql.h(0), ql.cx(0, 1)))
state = ql.simulate(bell)
print("bell state amplitudes:", np.round(state, 6))

# A relabeled variant is only equivalent under its mapping.
swapped = ql.apply_mapping(bell, {0: 1, 1: 0})
mapping = ql.QubitMapping.swap(0, 1)
verdicts = {}  # what each check below must say
verdicts["without mapping"] = (ql.equivalent(bell, swapped, tol=1e-9), False)
verdicts["with mapping"] = (ql.equivalent(bell, swapped, mapping, 1e-9, initial_map=mapping),
                            True)
print("without mapping:", verdicts["without mapping"][0])
print("with mapping (both ends, it is a whole-program rename):", verdicts["with mapping"][0])

# The oracle compares states, not samples: a barrier and measures are the identity.
measured = ql.Circuit(2, 2, bell.gates + (ql.barrier(0, 1), ql.measure(0, 0), ql.measure(1, 1)))
verdicts["measured"] = (ql.equivalent(bell, measured, tol=1e-12), True)
print("measured copy equivalent:", verdicts["measured"][0])

# The oracle notices a single mangled angle (0.01 rad shifts the worst
# probe fidelity by ~1e-5, well past the 1e-6 tolerance)...
good = ql.gen_random_circuit(4, 2, seed=5)
gates = list(good.gates)
idx = next(i for i, g in enumerate(gates) if g.kind is ql.GateKind.U3)
broken_gate = ql.u3(gates[idx].params[0] + 0.01, *gates[idx].params[1:], gates[idx].qubits[0])
bad = good.with_gates(gates[:idx] + [broken_gate] + gates[idx + 1:])
verdicts["corrupted angle"] = (ql.equivalent(good, bad, tol=1e-6), False)
print("\ncorrupted angle detected:", not verdicts["corrupted angle"][0])

# ... and even a pure phase gate, which no basis-state probe alone can see.
phased = good.with_gates(good.gates + (ql.u1(0.1, 0),))
verdicts["stray u1"] = (ql.equivalent(good, phased, tol=1e-6), False)
print("stray u1(0.1) detected:", not verdicts["stray u1"][0])

# Worst-probe fidelity is the quantity behind the verdict.
worst = ql.probe_fidelity(good, phased)
print(f"worst probe fidelity against the phased copy: {worst:.6f}")

# Routing results verify with their reported mapping, end to end.
graph = ql.make_layout("linear", 4)
result = ql.transpile(good, graph)
verdicts["transpiled"] = (ql.equivalent(good, result.circuit, result.final_mapping, 1e-6,
                                        initial_map=result.initial_mapping), True)
print("\ntranspiled output certified:", verdicts["transpiled"][0])

wrong = [name for name, (got, want) in verdicts.items() if got != want]
if wrong:
    sys.exit(f"wrong verdicts: {wrong}")
