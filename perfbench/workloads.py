"""The benchmark's workloads and their set-up.

Each workload is a list of cells (layout, n, depth, trial).  Set-up builds
the coupling graphs, generates one seeded random circuit per cell and
emits it as QASM text; the program under test sees only that text and the
graph.  Why each workload exists is recorded next to it, and in README.md
with the layer each one is meant to load.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qlayout import Circuit, CouplingGraph, emit_qasm, gen_random_circuit, make_layout

LAYOUTS = ("linear", "circle", "central", "neighbour")


def cell_seed(seed: int, layout_index: int, n: int, depth: int, trial: int) -> int:
    """Per-circuit seed, derived exactly as the acceptance suite derives it."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(layout_index, n, depth, trial))
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class Cell:
    layout: str
    n: int
    depth: int
    trial: int
    directed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]
    #: "statevector" (the program's ``equivalent``, n <= 16) or "width_free"
    oracle: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "grid",
        "720 small circuits (the paper's quality grid): per-call overhead, QASM and "
        "the statevector verdict dominate",
        tuple(Cell(layout, n, depth, trial) for layout in LAYOUTS
              for n in range(3, 9) for depth in range(1, 7) for trial in range(5)),
        "statevector",
    ),
    Workload(
        "wide",
        "32-qubit circuits on four layouts: the relabel search dominates; beyond the "
        "statevector, so checked width-free",
        tuple(Cell(layout, 32, 4, trial) for layout in LAYOUTS for trial in range(2)),
        "width_free",
    ),
    Workload(
        "star_directed",
        "directed 8-qubit star: lookahead routing is the whole compile and the "
        "direction fixer reverses CNOTs",
        tuple(Cell("central", 8, 15, trial, directed=True) for trial in range(12)),
        "statevector",
    ),
)}


@dataclass(frozen=True)
class Case:
    """One circuit of a workload: the generated circuit is the reference,
    ``qasm`` is what the program is handed."""

    label: str
    layout: str
    seed: int
    graph: CouplingGraph
    circuit: Circuit
    qasm: str


def build(workload: Workload, seed: int, span) -> list[Case]:
    """Graphs, circuits and their QASM text for ``workload`` under ``seed``;
    ``span(name)`` is entered around each call into the program."""
    graphs: dict[tuple[str, int, bool], CouplingGraph] = {}
    cases = []
    for cell in workload.cells:
        key = (cell.layout, cell.n, cell.directed)
        if key not in graphs:
            with span("coupling.build"):
                graph = make_layout(cell.layout, cell.n)
                if cell.directed:
                    graph = CouplingGraph(cell.n, graph.edges, directed=True)
            graphs[key] = graph
        s = cell_seed(seed, LAYOUTS.index(cell.layout), cell.n, cell.depth, cell.trial)
        with span("bench.gen"):
            circuit = gen_random_circuit(cell.n, cell.depth, s)
        label = f"{cell.layout}{'-directed' if cell.directed else ''}-n{cell.n}-d{cell.depth}-t{cell.trial}"
        cases.append(Case(label, cell.layout, s, graphs[key], circuit, emit_qasm(circuit)))
    return cases
