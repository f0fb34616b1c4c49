"""Identity fingerprint of the pipeline's outputs on the benchmark workloads.

    PYTHONPATH=src python3 tools/fingerprint.py --seed 20250808

Builds every workload of ``perfbench/workloads.py`` (read as it is, not
changed) and prints one line per workload: its name and a sha256 over,
for every circuit in order,

- ``global_adjust``'s mapping and the float hex of its estimate;
- for ``transpile`` and ``transpile_baseline`` alike: the emitted QASM,
  both mappings, ``search_cost``, ``swaps_emitted`` and ``stage_counts``.

Two runs of the same code must print the same lines, whatever
``PYTHONHASHSEED`` is; a change that claims to keep every decision must
print the lines of its parent.  ``tools/fingerprint.expected`` holds the
lines at seeds 20250808 and 4242, which CI compares against; they were
recorded under numpy 2.4.6, whose generator draws the workloads' circuits.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qlayout import (  # noqa: E402
    PipelineConfig,
    emit_qasm,
    global_adjust,
    parse_qasm,
    transpile,
    transpile_baseline,
)

import workloads  # noqa: E402

DEFAULT_SEED = 20250808


def _result_lines(result) -> list[str]:
    return [emit_qasm(result.circuit), repr(result.initial_mapping.pairs),
            repr(result.final_mapping.pairs), repr(result.search_cost),
            repr(result.swaps_emitted), repr(sorted(result.stage_counts.items()))]


def fingerprint(workload: workloads.Workload, seed: int) -> str:
    """sha256 over every output of ``workload`` under ``seed``."""
    digest = hashlib.sha256()
    config = PipelineConfig()
    for case in workloads.build(workload, seed, lambda name: nullcontext()):
        circuit = parse_qasm(case.qasm)
        mapping, estimate = global_adjust(circuit, case.graph, config.global_limits)
        lines = [case.label, repr(mapping.pairs), estimate.hex()]
        lines += _result_lines(transpile(circuit, case.graph, config))
        lines += _result_lines(transpile_baseline(circuit, case.graph))
        for line in lines:
            digest.update(line.encode())
            digest.update(b"\0")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    for name, workload in workloads.WORKLOADS.items():
        print(f"{name} {fingerprint(workload, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
