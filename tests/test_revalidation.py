"""Every IR value the program hands out re-validates through the public
constructors.

The reader and the public constructors check each gate and circuit where
it enters the program; the parser and the rewrite stages may then build
values without checking them again.  That is sound only if what they build
is exactly what a checked construction would store, so this pins it: each
gate equals ``Gate(kind, qubits, params, clbit)`` rebuilt from its fields,
with qubits of type ``int`` and angles of type ``float``, and each circuit
equals ``Circuit(num_qubits, num_clbits, gates)``.
"""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from qlayout.ir import Circuit, Gate

from conftest import circuits, connected_graphs
from test_qasm_errors import DATA, cases


def assert_revalidates(circuit: Circuit) -> None:
    assert type(circuit.gates) is tuple
    for g in circuit.gates:
        assert type(g) is Gate
        assert type(g.qubits) is tuple and type(g.params) is tuple
        assert all(type(q) is int for q in g.qubits), g
        assert all(type(p) is float for p in g.params), g
        assert g.clbit is None or type(g.clbit) is int, g
        assert Gate(g.kind, g.qubits, g.params, g.clbit) == g
    assert Circuit(circuit.num_qubits, circuit.num_clbits, circuit.gates) == circuit


@st.composite
def graph_and_circuit(draw):
    graph = draw(connected_graphs())
    circuit = draw(circuits(max_qubits=graph.num_qubits, max_gates=16))
    return graph, circuit


@settings(max_examples=60, deadline=None)
@given(case=graph_and_circuit())
def test_stage_outputs_revalidate(case):
    graph, circuit = case
    assert_revalidates(ql.parse_qasm(ql.emit_qasm(circuit)))

    mapping, _ = ql.global_adjust(circuit, graph)
    relabeled = ql.apply_mapping(circuit.widened(graph.num_qubits), mapping)
    assert_revalidates(relabeled)
    routed = ql.route_circuit(relabeled, graph)
    assert_revalidates(routed.circuit)
    fixed = ql.fix_directions(routed.circuit, graph)
    assert_revalidates(fixed)
    assert_revalidates(ql.merge_single_qubit_runs(fixed))

    assert_revalidates(ql.transpile(circuit, graph).circuit)
    baseline = ql.transpile_baseline(circuit, graph).circuit
    assert_revalidates(baseline)
    assert_revalidates(ql.naive_route(circuit, graph))


def test_accepted_qasm_corpus_revalidates():
    outcomes = json.loads(DATA.read_text())["outcomes"]
    accepted = [text for text, want in zip(cases(), outcomes) if want[0] == "ok"]
    assert len(accepted) >= 100
    for text in accepted:
        assert_revalidates(ql.parse_qasm(text))
