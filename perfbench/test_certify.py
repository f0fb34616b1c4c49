"""Tests of the benchmark's width-free check and of its public-API rule.

    PYTHONPATH=src python -m pytest perfbench/test_certify.py
"""
import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qlayout  # noqa: E402
from qlayout import (  # noqa: E402
    CouplingGraph,
    cx,
    gate_counts,
    gen_random_circuit,
    h,
    make_layout,
    transpile,
    transpile_baseline,
)

import certify  # noqa: E402

EXPECTED_REASON = {
    "drop_cnot": "CNOT skeleton",
    "wrong_final_mapping": "CNOT skeleton",
    "illegal_cnot": "not an edge",
}


def problems_of(circuit, graph, result, output=None, final=None):
    return certify.width_free_problems(
        circuit, result.circuit if output is None else output, graph,
        result.initial_mapping, result.final_mapping if final is None else final)


@pytest.mark.parametrize("layout,n,depth", [("linear", 6, 3), ("circle", 7, 2),
                                            ("neighbour", 20, 1)])
def test_accepts_pipeline_and_baseline_outputs(layout, n, depth):
    graph = make_layout(layout, n)
    circuit = gen_random_circuit(n, depth, 11)
    assert problems_of(circuit, graph, transpile(circuit, graph)) == []
    assert problems_of(circuit, graph, transpile_baseline(circuit, graph)) == []


@pytest.mark.parametrize("name", sorted(certify.MUTATIONS))
def test_rejects_mutation(name):
    circuit, graph, result = certify.sample_case()
    output, final = certify.MUTATIONS[name](result.circuit, graph, result.final_mapping)
    problems = problems_of(circuit, graph, result, output, final)
    assert len(problems) == 1 and EXPECTED_REASON[name] in problems[0]


def test_rejects_grown_single_qubit_count():
    circuit, graph, result = certify.sample_case()
    room = gate_counts(circuit)[1] - gate_counts(result.circuit)[1]
    extra = result.circuit.with_gates(result.circuit.gates + (h(0),) * (room + 1))
    assert "grew" in problems_of(circuit, graph, result, extra)[0]


def test_directed_graph_gets_legality_only():
    base = make_layout("central", 5)
    graph = CouplingGraph(5, base.edges, directed=True)
    circuit = gen_random_circuit(5, 3, 3)
    result = transpile(circuit, graph)
    assert problems_of(circuit, graph, result) == []
    reversed_cnot = result.circuit.with_gates((cx(1, 0),) + result.circuit.gates)
    assert "not an edge" in problems_of(circuit, graph, result, reversed_cnot)[0]


def test_self_check_passes():
    assert certify.self_check() == []


def test_benchmark_imports_only_public_names():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qlayout"):
                assert node.module == "qlayout", f"{path.name} imports {node.module}"
                hidden = {a.name for a in node.names} - set(qlayout.__all__)
                assert not hidden, f"{path.name} imports non-public {sorted(hidden)}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("qlayout."), path.name
