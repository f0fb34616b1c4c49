"""The transpilation pipeline: relabel, route, orient, fuse.

Stage order: global relabeling (zero gates), SWAP-chain routing with
lookahead, CNOT orientation repair, single-qubit fusion.  The result
carries two relabelings: ``initial_mapping`` (where each original qubit's
wire starts: the gate-free global stage's placement, which the router
starts from) and ``final_mapping`` (where its state ends: the router's
last wire permutation).  Hardware runs, which start from the all-zeros
state, only need ``final_mapping`` to read results back; statevector
verification against arbitrary probes needs both.  ``stage_counts`` and
``stage_seconds`` hold each stage's output gate counts and time, and the
output's legality is checked before it is returned.

:func:`transpile` and the swap-there-and-back :func:`transpile_baseline`
differ only in their routing stages; one driver runs either, with the
same checks, orientation repair, fusion and accounting around it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .coupling import CouplingGraph, DisconnectedGraphError
from .relabel import SearchLimits, global_adjust
from .ir import Circuit, GateKind, QubitMapping, gate_counts, price
from .merge import merge_single_qubit_runs
from .routing import (
    DEFAULT_LOOKAHEAD,
    LegalityError,
    RouteResult,
    _check_lookahead,
    fit_to_graph,
    fix_directions,
    naive_route,
    route_circuit,
)


@dataclass(frozen=True)
class PipelineConfig:
    lookahead: int = DEFAULT_LOOKAHEAD
    global_limits: SearchLimits = field(default_factory=SearchLimits)
    do_merge: bool = True

    def __post_init__(self):
        _check_lookahead(self.lookahead)


@dataclass(frozen=True)
class TranspileResult:
    circuit: Circuit
    initial_mapping: QubitMapping
    final_mapping: QubitMapping
    search_cost: int
    swaps_emitted: int
    stage_counts: dict[str, tuple[int, int]]  #: stage -> (cnots, singles)
    stage_seconds: dict[str, float]  #: stage -> seconds since the previous stage ended
    elapsed_s: float

    @property
    def cost_before(self) -> int:
        return price(*self.stage_counts["input"])

    @property
    def cost_after(self) -> int:
        return price(*self.stage_counts["merge"])

    def report(self) -> dict:
        """JSON-ready summary."""
        return {
            "final_mapping": {str(a): b for a, b in self.final_mapping.pairs},
            "initial_mapping": {str(a): b for a, b in self.initial_mapping.pairs},
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "search_cost": self.search_cost,
            "swaps_emitted": self.swaps_emitted,
            "stages": {name: {"cnots": n2, "singles": n1}
                       for name, (n2, n1) in self.stage_counts.items()},
            "stage_seconds": dict(self.stage_seconds),
            "elapsed_s": self.elapsed_s,
        }


class _Stages:
    """Gate counts and seconds per stage, read at each stage boundary: a
    stage's seconds run from the boundary before it, and the first
    boundary, "input", counts the input when the log is made.  A stage
    that hands back the circuit it was given (the relabel, the direction
    fixer on an undirected graph, fusion when off) reuses the last count,
    so :func:`transpile` walks the gates three times, four if directed."""

    def __init__(self, work: Circuit):
        self.start = self._last = time.perf_counter()
        self.counts: dict[str, tuple[int, int]] = {}
        self.seconds: dict[str, float] = {}
        self._counted, self._count = None, (0, 0)
        self.done("input", work)

    def done(self, name: str, work: Circuit) -> None:
        if work is not self._counted:
            self._counted, self._count = work, gate_counts(work)
        self.counts[name] = self._count
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now


def check_legal(circuit: Circuit, graph: CouplingGraph) -> None:
    """Raise :class:`LegalityError` at the first CNOT that is not a graph
    edge (orientation included on directed graphs), and ``IndexError`` at
    one on a qubit beyond the graph."""
    for g in circuit.gates:
        if g.kind is GateKind.CNOT and not graph.is_legal_cnot(*g.qubits):
            raise LegalityError(f"cx({g.qubits[0]},{g.qubits[1]}) is not an edge")


def _run(circuit: Circuit, graph: CouplingGraph,
         route: Callable[[Circuit, _Stages], tuple[QubitMapping, RouteResult]],
         do_merge: bool) -> TranspileResult:
    """Fit ``circuit`` to ``graph``, route it, repair CNOT orientation,
    optionally fuse, and check legality before returning.  ``route`` takes
    the fitted circuit and the stage log, logs its own stages, and returns
    the initial mapping and the routed result."""
    work = fit_to_graph(circuit, graph)
    if not graph.is_connected:
        raise DisconnectedGraphError("coupling graph is not connected")
    stages = _Stages(work)
    initial, routed = route(work, stages)
    work = fix_directions(routed.circuit, graph)
    stages.done("fix_directions", work)
    if do_merge:
        work = merge_single_qubit_runs(work)
    stages.done("merge", work)
    check_legal(work, graph)
    return TranspileResult(
        circuit=work,
        initial_mapping=initial,
        final_mapping=routed.final_mapping,
        search_cost=routed.search_cost,
        swaps_emitted=routed.swaps_emitted,
        stage_counts=stages.counts,
        stage_seconds=stages.seconds,
        elapsed_s=time.perf_counter() - stages.start,
    )


def transpile(circuit: Circuit, graph: CouplingGraph,
              config: PipelineConfig | None = None) -> TranspileResult:
    """Rewrite ``circuit`` to satisfy ``graph``; verify legality before
    returning.  The circuit is widened to the graph's qubit count."""
    config = config or PipelineConfig()

    def route(work: Circuit, stages: _Stages) -> tuple[QubitMapping, RouteResult]:
        initial, _ = global_adjust(work, graph, config.global_limits)
        stages.done("global_adjust", work)
        routed = route_circuit(work, graph, config.lookahead, initial_mapping=initial)
        stages.done("local_adjust", routed.circuit)
        return initial, routed

    return _run(circuit, graph, route, config.do_merge)


def transpile_baseline(circuit: Circuit, graph: CouplingGraph,
                       do_merge: bool = True) -> TranspileResult:
    """Swap-there-and-back baseline under the same contract as
    :func:`transpile`: legal output, identity mappings.  ``swaps_emitted``
    counts the SWAPs there and back, 3 CNOTs each."""

    def route(work: Circuit, stages: _Stages) -> tuple[QubitMapping, RouteResult]:
        work = naive_route(work, graph)
        stages.done("naive_route", work)
        swaps = (stages.counts["naive_route"][0] - stages.counts["input"][0]) // 3
        identity = QubitMapping.identity()
        return identity, RouteResult(work, identity, 0, swaps)

    return _run(circuit, graph, route, do_merge)
