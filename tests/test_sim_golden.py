"""Golden verdicts of the statevector oracle, pinned on transpiled circuits.

For seeded random circuits of 2..10 qubits (3..10 on the circle) on the
four layouts and on a directed star, the transpiled output is checked
against its input with ``probe_fidelity`` -- once as it is, and once under
each of four mutations: a dropped gate, a perturbed angle, a reversed CNOT
and a wrong final mapping.  The recorded fidelities must be reproduced within 1e-12,
with the same verdict at tol 1e-6.  The probe states themselves are
pinned bit for bit by the sha256 of ``_probe_block``'s bytes.

Only the outcomes are stored; the circuits are regenerated from the seeds.
Re-record after an intended change with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""
import hashlib
import json
import random
from pathlib import Path

import qlayout as ql
from qlayout.coupling import CouplingGraph, make_layout
from qlayout.ir import Gate, GateKind, QubitMapping
from qlayout.sim import _probe_block

DATA = Path(__file__).with_name("data") / "sim_golden.json"
SEED = 20250808
QUBITS = range(2, 11)
LAYOUTS = ("linear", "circle", "central", "neighbour", "central-directed")
MUTATIONS = ("none", "drop gate", "perturb angle", "reverse cnot", "wrong final")
PROBE_QUBITS = range(1, 13)
PROBE_SEEDS = (0, 1, 20250808)
FIDELITY_TOL = 1e-12
VERDICT_TOL = 1e-6


def _graph(layout: str, n: int) -> CouplingGraph:
    if layout.endswith("-directed"):
        undirected = make_layout(layout.removesuffix("-directed"), n)
        return CouplingGraph(n, undirected.edges, directed=True)
    return make_layout(layout, n)


def _mutate(rng: random.Random, circuit: ql.Circuit, final: QubitMapping,
            mutation: str) -> tuple[ql.Circuit, QubitMapping]:
    gates = list(circuit.gates)
    n = circuit.num_qubits
    if mutation == "drop gate":
        del gates[rng.randrange(len(gates))]
    elif mutation == "perturb angle":
        i = rng.choice([i for i, g in enumerate(gates) if g.params])
        g = gates[i]
        params = list(g.params)
        params[rng.randrange(len(params))] += 0.05
        gates[i] = Gate(g.kind, g.qubits, tuple(params), g.clbit)
    elif mutation == "reverse cnot":
        i = rng.choice([i for i, g in enumerate(gates) if g.kind is GateKind.CNOT])
        gates[i] = ql.cx(*reversed(gates[i].qubits))
    elif mutation == "wrong final":
        a, b = rng.sample(range(n), 2)
        final = final.then(QubitMapping.swap(a, b))
    return circuit.with_gates(gates), final


def cases():
    """(label, original, transpiled, initial map, final map, seed) per case."""
    for li, layout in enumerate(LAYOUTS):
        for n in QUBITS:
            if layout == "circle" and n < 3:  # a 2-cycle is not a layout
                continue
            seed = SEED + 100 * li + n
            depth = 1 + n % 3
            original = ql.gen_random_circuit(n, depth, seed)
            result = ql.transpile(original, _graph(layout, n))
            rng = random.Random(seed)
            for mutation in MUTATIONS:
                out, final = _mutate(rng, result.circuit, result.final_mapping, mutation)
                yield (f"{layout}-n{n}-d{depth}: {mutation}", original, out,
                       result.initial_mapping, final, seed)


def fidelity(original, transpiled, initial, final, seed) -> float:
    return ql.probe_fidelity(original, transpiled, final, initial_map=initial, seed=seed)


def probe_digest(n: int, seed: int) -> str:
    return hashlib.sha256(_probe_block(n, seed).tobytes()).hexdigest()


def test_fidelities_match_golden():
    golden = json.loads(DATA.read_text())["fidelities"]
    got = {label: fidelity(*rest) for label, *rest in cases()}
    assert got.keys() == golden.keys()
    far = {k: (golden[k], v) for k, v in got.items() if abs(v - golden[k]) > FIDELITY_TOL}
    assert not far, f"{len(far)} fidelities moved; first: {next(iter(far.items()))}"
    flipped = [k for k, v in got.items()
               if (v >= 1 - VERDICT_TOL) != (golden[k] >= 1 - VERDICT_TOL)]
    assert not flipped, f"verdicts flipped: {flipped}"


def test_every_mutation_is_caught_and_no_output_is_rejected():
    golden = json.loads(DATA.read_text())["fidelities"]
    for label, value in golden.items():
        assert (value >= 1 - VERDICT_TOL) == label.endswith(": none"), label


def test_probe_blocks_bitwise():
    golden = json.loads(DATA.read_text())["probes"]
    got = {f"n{n}-s{s}": probe_digest(n, s) for n in PROBE_QUBITS for s in PROBE_SEEDS}
    assert got == golden


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    record = {
        "seed": SEED,
        "fidelities": {label: fidelity(*rest) for label, *rest in cases()},
        "probes": {f"n{n}-s{s}": probe_digest(n, s)
                   for n in PROBE_QUBITS for s in PROBE_SEEDS},
    }
    DATA.write_text(json.dumps(record, indent=0) + "\n")
    print(f"wrote {DATA}")
