"""Benchmark of the Typilus reproduction: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload annotate_project --seed 1 --seconds 20 --trace 0

Workloads: ``annotate_project``, ``serve_fleet``, ``train_corpus`` (see
``perfbench/README.md``).  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
run exits non-zero when an output check fails, and without a result when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("annotate_project", "serve_fleet", "train_corpus")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase; 20 is the calibrated shape")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: rerun with wrappers around each layer's public calls and print per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    host_before = workloads.host_sample()
    work = workloads.Workspace(bool(args.trace))
    try:
        outcome = workloads.WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
    finally:
        work.close()
    outcome.notes.append(workloads.host_note(host_before, workloads.host_sample()))
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in outcome.notes:
        print(f"perfbench: {note}")
    for problem in outcome.problems:
        print(f"perfbench: CHECK FAILED: {problem}")
    result = outcome.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
