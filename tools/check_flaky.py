#!/usr/bin/env python
"""Benchmark flake guard: no un-audited wall-clock assertions (ISSUE 5).

Ablation A1 once asserted a wall-clock ratio measured with ``repeat=1``
and flaked on busy hosts; A2 had the same disease earlier.  Both are now
ported to deterministic simulated counters.  This guard keeps the
pattern from landing again, with two rules:

1. **repeat=1 annotation rule** (textual).  Every ``repeat=1`` call
   argument under ``benchmarks/``, ``src/repro/bench/`` and ``perfbench/``
   must carry an inline annotation stating why a single un-averaged
   measurement is acceptable:

   * ``# counter-asserted`` -- the consuming test asserts only
     deterministic (simulated/probe) counters; wall time is plotted,
     never asserted;
   * ``# plot-only`` -- the measurement feeds a figure or report with no
     assertion at all (the CLI figure runner).

   The former third option, ``# wallclock-shape-ok: <reason>``, is gone:
   the last two waivers (Figures 9 and 10) were ported to deterministic
   counters, and no new wall-clock shape assertion may land.

2. **direct wall-clock assert rule** (AST).  Inside ``benchmarks/`` (and
   ``perfbench/``), an
   ``assert`` statement may not reference a variable bound from a
   ``measure_wall_s(...)`` call in the same function -- the A1
   anti-pattern in its most direct form (tight ratios over single
   timings), regardless of ``repeat``.

Run from the repo root:  python tools/check_flaky.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

BENCH_DIRS = [
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "src" / "repro" / "bench",
    # The repo benchmark (perfbench/run.py) records wall time as its
    # end-to-end metric but asserts only on ledger counters.
    REPO_ROOT / "perfbench",
]
ASSERT_RULE_DIRS = [
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "src" / "repro" / "bench",
    REPO_ROOT / "perfbench",
    # The planner's cost model feeds counter-asserted benchmarks (A15);
    # keep wall-clock measurements out of it too.
    REPO_ROOT / "src" / "repro" / "planner",
    # The rebalance policy's signals feed A16's byte-stable artifact; its
    # thresholds must stay on simulated/ledger counters, never wall time.
    REPO_ROOT / "src" / "repro" / "wildfire" / "rebalance.py",
]

REPEAT_ONE_RE = re.compile(r"\brepeat\s*=\s*1\b")
ANNOTATION_RE = re.compile(r"#\s*(counter-asserted|plot-only)\b")


def _rel(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:  # outside the repo (unit-test fixtures)
        return str(path)


def bench_files(dirs) -> list[Path]:
    """Expand a mix of directories (globbed ``*.py``) and single files."""
    files: list[Path] = []
    for entry in dirs:
        if entry.suffix == ".py":
            if entry.exists():
                files.append(entry)
        else:
            files.extend(sorted(entry.glob("*.py")))
    return files


def check_repeat_annotations(path: Path) -> list[str]:
    """Rule 1: every ``repeat=1`` line carries an audit annotation."""
    errors: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        match_code = REPEAT_ONE_RE.search(stripped)
        if match_code is None:
            continue
        # Prose mentions in docstrings are written ``repeat=1``; only a
        # bare occurrence is a call argument.
        if stripped[: match_code.start()].rstrip().endswith("`"):
            continue
        if ANNOTATION_RE.search(line) is None:
            errors.append(
                f"{_rel(path)}:{lineno}: repeat=1 without "
                "an audit annotation (# counter-asserted or # plot-only) "
                "-- single un-averaged wall-clock measurements must not "
                "back assertions (the A1 flake, see tools/check_flaky.py)"
            )
    return errors


class _WallClockAssertVisitor(ast.NodeVisitor):
    """Rule 2: no assert may use a name bound from measure_wall_s()."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.errors: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        wall_names: set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and self._is_wall_call(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        wall_names.add(target.id)
        if wall_names:
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assert):
                    continue
                used = {
                    n.id
                    for n in ast.walk(stmt.test)
                    if isinstance(n, ast.Name)
                }
                guilty = sorted(used & wall_names)
                if guilty:
                    self.errors.append(
                        f"{_rel(self.path)}:{stmt.lineno}: "
                        f"assert uses wall-clock measurement(s) {guilty} "
                        "from measure_wall_s(); assert on deterministic "
                        "counters instead (DecodeStats / EpochStats / "
                        "IntentStats / simulated ns)"
                    )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    @staticmethod
    def _is_wall_call(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name == "measure_wall_s"


def check_wallclock_asserts(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _WallClockAssertVisitor(path)
    visitor.visit(tree)
    return visitor.errors


def main() -> int:
    errors: list[str] = []
    for path in bench_files(BENCH_DIRS):
        errors += check_repeat_annotations(path)
    for path in bench_files(ASSERT_RULE_DIRS):
        errors += check_wallclock_asserts(path)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\n{len(errors)} flake-guard violation(s)", file=sys.stderr)
        return 1
    print(f"flaky-benchmark guard OK ({len(bench_files(BENCH_DIRS))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
