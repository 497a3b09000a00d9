"""Self-checks of the benchmark: determinism, clean runs, no timing asserts.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The fixture is
shrunk and each run measures only its ledger window, so the suite takes
seconds.  Only ledger-derived figures are compared; wall-clock figures
are never asserted.
"""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

from perfbench.runner import run_benchmark
from perfbench.fixture import FixtureSize
from perfbench.workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMALL = FixtureSize(rows=1_000)
# Units of figures that come from the program's ledgers or from span
# counts, never from a clock.
DETERMINISTIC_UNITS = {"count", "ratio", "bytes", "sim_us"}
WALL_DERIVED = {"maintenance.share_of_wall", "trace.overhead_ratio"}


def run(workload: str, seed: int, trace: int):
    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=0.0, trace=trace
    )
    return run_benchmark(args, size=SMALL, setups=1).result


def deterministic(result) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in DETERMINISTIC_UNITS and name not in WALL_DERIVED
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_ledger_metrics_repeat_for_one_seed(workload):
    for trace in (0, 1):
        first = run(workload, seed=7, trace=trace)
        second = run(workload, seed=7, trace=trace)
        assert first["correct"] and second["correct"]
        assert first["attempted"] == second["attempted"]
        assert deterministic(first) == deterministic(second)
        assert deterministic(first)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_runs_clean(workload):
    result = run(workload, seed=8, trace=0)
    assert result["correct"]
    assert result["failed"] == 0


def test_flake_guard_accepts_the_benchmark_files():
    spec = importlib.util.spec_from_file_location(
        "check_flaky", ROOT / "tools" / "check_flaky.py"
    )
    check_flaky = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_flaky)
    errors = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        errors += check_flaky.check_repeat_annotations(path)
        errors += check_flaky.check_wallclock_asserts(path)
    assert errors == []
