"""Command-line front end.

Three subcommands: ``transpile`` rewrites a QASM file for a layout,
``verify`` checks two QASM files for statevector equivalence under a
relabeling, and ``bench`` sweeps the benchmark grid into a CSV plus an
aggregate JSON.

Exit codes -- transpile: 1 parse/usage error, 2 disconnected layout,
3 internal legality failure; verify: 1 not equivalent, 2 I/O or size
error, a mapping that is malformed or moves a qubit outside the
register, or a --tol outside 0 <= tol < 1; bench: 1 if any record failed
verification, 2 usage error (a bad --tol included).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import records_to_csv, result_to_json, run_benchmark
from .coupling import DisconnectedGraphError, load_coupling
from .relabel import SearchLimits
from .ir import QubitMapping
from .pipeline import PipelineConfig, transpile, transpile_baseline
from .qasm import QasmError, emit_qasm, parse_qasm
from .routing import DEFAULT_LOOKAHEAD, LegalityError
from .sim import _check_tol, probe_fidelity


def _load_circuit(path: str):
    return parse_qasm(Path(path).read_text())


def _mapping_from_json(obj: object) -> QubitMapping:
    """A mapping from a JSON object of qubit indices; anything else is a
    ValueError."""
    if not isinstance(obj, dict) or not all(type(v) is int for v in obj.values()):
        raise ValueError(f"a mapping must be a JSON object of integers, got {obj!r}")
    return QubitMapping.from_dict({int(k): v for k, v in obj.items()})


def cmd_transpile(args: argparse.Namespace) -> int:
    try:
        circuit = _load_circuit(args.qasm)
        graph = load_coupling(args.coupling)
    except (QasmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.baseline == "naive":
            result = transpile_baseline(circuit, graph, do_merge=not args.no_merge)
        else:
            config = PipelineConfig(
                lookahead=args.lookahead,
                global_limits=SearchLimits(max_nodes=args.global_limit),
                do_global=not args.no_global,
                do_merge=not args.no_merge,
            )
            result = transpile(circuit, graph, config)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LegalityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(emit_qasm(result.circuit))
    if args.report:
        Path(args.report).write_text(json.dumps(result.report(), indent=2) + "\n")
    print(f"transpiled {args.qasm}: cost {result.cost_before} -> {result.cost_after}, "
          f"{result.swaps_emitted} swap(s), final mapping "
          f"{result.final_mapping.as_dict() or '{}'}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        _check_tol(args.tol)
        original = _load_circuit(args.original)
        transpiled = _load_circuit(args.transpiled)
        final_map = QubitMapping.identity()
        initial_map = QubitMapping.identity()
        if args.mapping:
            data = json.loads(Path(args.mapping).read_text())
            if isinstance(data, dict) and "final_mapping" in data:  # a transpile report
                final_map = _mapping_from_json(data["final_mapping"])
                initial_map = _mapping_from_json(data.get("initial_mapping", {}))
            else:
                final_map = _mapping_from_json(data)
        worst = probe_fidelity(original, transpiled, final_map,
                               initial_map=initial_map, seed=args.seed)
    except (QasmError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worst probe fidelity: {worst:.12f}")
    if worst >= 1 - args.tol:
        print("equivalent")
        return 0
    print("NOT equivalent", file=sys.stderr)
    return 1


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(a, b + 1)


def cmd_bench(args: argparse.Namespace) -> int:
    layouts = [s.strip() for s in args.layouts.split(",") if s.strip()]
    try:
        result = run_benchmark(layouts, list(args.qubits), list(args.depths),
                               args.trials, args.seed, lookahead=args.lookahead,
                               tol=args.tol, record_times=not args.fixed_times)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    Path(args.csv).write_text(records_to_csv(result.records))
    json_path = args.json or str(Path(args.csv).with_suffix(".json"))
    Path(json_path).write_text(result_to_json(result, seed=args.seed))
    print(f"{len(result.records)} records -> {args.csv}, aggregates -> {json_path}")
    if result.failures:
        print(f"{len(result.failures)} record(s) FAILED verification:", file=sys.stderr)
        for r in result.failures:
            print(f"  layout={r.layout} n={r.n} su4_depth={r.su4_depth} "
                  f"trial={r.trial} seed={r.seed}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlayout",
        description="Layout-aware OpenQASM 2.0 transpiler.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transpile", help="rewrite a QASM file for a layout")
    t.add_argument("--qasm", required=True, help="input OpenQASM 2.0 file")
    t.add_argument("--coupling", required=True,
                   help="coupling graph JSON file or layout:NAME:N shorthand")
    t.add_argument("--out", required=True, help="output QASM path")
    t.add_argument("--report", help="write a JSON report here")
    t.add_argument("--lookahead", type=int, default=DEFAULT_LOOKAHEAD)
    t.add_argument("--global-limit", type=int, default=SearchLimits().max_nodes,
                   help="node cap for the relabeling search")
    t.add_argument("--no-global", action="store_true", help="skip global relabeling")
    t.add_argument("--no-merge", action="store_true", help="skip single-qubit fusion")
    t.add_argument("--baseline", choices=["naive"],
                   help="route with the swap-there-and-back baseline instead")
    t.set_defaults(func=cmd_transpile)

    v = sub.add_parser("verify", help="check statevector equivalence")
    v.add_argument("--original", required=True)
    v.add_argument("--transpiled", required=True)
    v.add_argument("--mapping", help="transpile report JSON or a bare mapping object")
    v.add_argument("--tol", type=float, default=1e-6)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="run the benchmark grid")
    b.add_argument("--layouts", required=True,
                   help="comma-separated: linear,circle,central,neighbour")
    b.add_argument("--qubits", required=True, type=_parse_range, help="range a..b")
    b.add_argument("--depths", required=True, type=_parse_range, help="range a..b")
    b.add_argument("--trials", type=int, default=10)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", required=True, help="records CSV path")
    b.add_argument("--json", help="aggregate JSON path (default: CSV path with .json)")
    b.add_argument("--lookahead", type=int, default=DEFAULT_LOOKAHEAD)
    b.add_argument("--tol", type=float, default=1e-6)
    b.add_argument("--fixed-times", action="store_true",
                   help="write zeros for the time columns (byte-reproducible CSV)")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
