#!/usr/bin/env python3
"""Run one benchmark workload against the library in this checkout.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload once untraced and once with every
layer's public methods wrapped, and reports per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer and every
invariant checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_library() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no library source at {SRC}/repro")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("point_hot", "scan_cold", "ingest_mixed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from perfbench.runner import run_benchmark

    try:
        outcome = run_benchmark(args)
    except Exception:  # report, never print a result line
        traceback.print_exc()
        return 1
    for line in outcome.report_lines:
        print(line)
    print(json.dumps(outcome.result))
    return 0 if outcome.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
