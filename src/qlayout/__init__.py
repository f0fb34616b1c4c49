"""qlayout: layout-aware OpenQASM 2.0 transpilation.

Rewrites circuits over the {u1, u2, u3, cx, h} gate set to satisfy an
arbitrary qubit-coupling graph: gate-free global relabeling, SWAP-chain
routing with bounded lookahead, CNOT orientation repair, and single-qubit
gate fusion -- plus a statevector oracle that certifies every rewrite and
a benchmark harness comparing the pipeline against the classic
swap-there-and-back baseline.
"""
from .bench import BenchRecord, BenchResult, gen_random_circuit, run_benchmark
from .coupling import (
    CouplingGraph,
    DisconnectedGraphError,
    coupling_from_json,
    load_coupling,
    make_layout,
)
from .relabel import SearchLimits, global_adjust
from .ir import (
    Circuit,
    Gate,
    GateKind,
    QubitMapping,
    apply_mapping,
    barrier,
    cost,
    cx,
    gate_counts,
    h,
    measure,
    u1,
    u2,
    u3,
)
from .merge import ZYTriple, merge_adjacent, merge_single_qubit_runs, yz_to_zy
from .pipeline import PipelineConfig, TranspileResult, transpile, transpile_baseline
from .qasm import QasmError, emit_qasm, parse_qasm
from .routing import (
    LegalityError,
    RouteResult,
    brute_force_route_cost,
    fix_directions,
    naive_route,
    route_circuit,
)
from .search import estimate_cost
from .sim import equivalent, probe_fidelity, simulate

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "BenchResult", "Circuit", "CouplingGraph",
    "DisconnectedGraphError", "Gate", "GateKind", "LegalityError",
    "PipelineConfig", "QasmError", "QubitMapping", "RouteResult", "SearchLimits",
    "TranspileResult", "ZYTriple", "apply_mapping", "barrier",
    "brute_force_route_cost", "cost", "coupling_from_json", "cx", "emit_qasm",
    "equivalent", "estimate_cost", "fix_directions", "gate_counts",
    "gen_random_circuit", "global_adjust", "h", "load_coupling", "make_layout",
    "measure", "merge_adjacent", "merge_single_qubit_runs", "naive_route",
    "parse_qasm", "probe_fidelity", "route_circuit", "run_benchmark", "simulate",
    "transpile", "transpile_baseline", "u1", "u2", "u3", "yz_to_zy",
]
