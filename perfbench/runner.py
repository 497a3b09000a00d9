"""Set-up, timed phase, metrics and report for one benchmark run."""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.wildfire.engine as engine_module

from perfbench import ledgers
from perfbench.fixture import (
    NUM_SHARDS,
    Fixture,
    FixtureSize,
    build_fixture,
)
from perfbench.spans import Tracer
from perfbench.workloads import (
    WORKLOADS,
    WRITE_BATCH,
    Workload,
    point_hot_ops,
    scan_cold_ops,
)

READ_KINDS = ("point", "range", "query")
MAX_REPORTED_FAILURES = 5
PROBE_POINTS = 60
PROBE_QUERIES = 9
SETUPS = 3  # fixture builds per untraced run; setup_s is their median
TRACE_DIR = os.path.join("perfbench", "traces")  # under the checkout root

# (metric, span, unit, statistic): "call" is self time per call, "item"
# self time per row/key/record the call handled.
SPAN_METRICS = (
    ("cluster.point.self_us", "cluster.point", "us", "call"),
    ("cluster.query.self_us", "cluster.query", "us", "call"),
    ("planner.plan_hinted.self_us", "planner.plan_hinted", "us", "call"),
    ("planner.plan_query.self_us", "planner.plan_query", "us", "call"),
    ("planner.synopsis.self_us", "planner.synopsis", "us", "call"),
    ("shard.point.self_us", "shard.point", "us", "call"),
    ("shard.ingest.us_per_row", "shard.ingest", "us", "item"),
    ("index.lookup.self_us", "index.lookup", "us", "call"),
    ("index.scan.us_per_row", "index.scan", "us", "item"),
    ("index.batch_lookup.us_per_key", "index.batch_lookup", "us", "item"),
    ("index.post_groomed_lookup.self_us", "index.post_groomed_lookup", "us", "call"),
    ("index.add_groomed_run.us_per_entry", "index.add_groomed_run", "us", "item"),
    ("blockstore.fetch_record.self_us", "blockstore.fetch_record", "us", "call"),
    ("blockstore.fetch_records.us_per_record", "blockstore.fetch_records", "us", "item"),
    ("blockstore.store_groomed.self_ms", "blockstore.store_groomed", "ms", "call"),
    ("blockstore.store_post_groomed.self_ms", "blockstore.store_post_groomed", "ms", "call"),
    ("cache.release_after_query.self_us", "cache.release_after_query", "us", "call"),
    ("groomer.groom.us_per_row", "groomer.groom", "us", "item"),
    ("postgroomer.post_groom.self_ms", "postgroomer.post_groom", "ms", "call"),
    ("indexer.evolve.ms_per_psn", "indexer.evolve", "ms", "item"),
    ("maintenance.step.self_ms", "maintenance.step", "ms", "call"),
)
# Ledger-derived per-layer metrics and their units (see ledgers.py).
LEDGER_UNITS = {
    # Simulated storage time: deterministic, and 0 when every block a
    # workload touches is already decoded in memory.
    "sim_io_us_per_op": "sim_us",
    "cluster.shards_contacted_per_query": "count",
    "cluster.map_ref_ops_per_op": "count",
    "index.runs_per_index": "count",
    "decode.raw_key_probes_per_op": "count",
    "decode.entry_decodes_per_op": "count",
    "epochs.version_refs_per_op": "count",
    "storage.query.local_hit_rate": "ratio",
    "storage.memory.reads_per_op": "count",
    "storage.ssd.reads_per_op": "count",
    "storage.shared.reads_per_op": "count",
    "storage.shared.bytes_read_per_op": "bytes",
    "storage.query.promotions_per_op": "count",
    "storage.maintenance.promotions": "count",
    "storage.retries": "count",
    "storage.giveups": "count",
    "cache.cached_fraction": "ratio",
    "storage.bytes_written_per_user_byte": "ratio",
}
TRACE_COUNT_UNITS = {
    "cache.load_run.calls": "count",
    "postgroomer.lookups_per_row": "count",
    "maintenance.share_of_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    result: Dict[str, object]
    report_lines: List[str]


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: Dict[str, List[int]] = field(default_factory=dict)
    ops: int = 0
    wrong: int = 0
    errors: int = 0
    busy_ns: int = 0  # time spent inside the library's calls
    wall_ns: int = 0
    # Per-second slices of the phase: ops finished and their busy time.
    slice_ops: List[int] = field(default_factory=list)
    slice_busy_ns: List[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # process peak RSS at the window's end
    write_rows: int = 0
    window_ops: int = 0
    window_typed_queries: int = 0
    start: Dict[str, float] = field(default_factory=dict)
    window_end: Dict[str, float] = field(default_factory=dict)
    end: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors


def run_ops(ops, count: Optional[int], deadline: Optional[float], phase: Phase,
            tracer: Optional[Tracer], first_op_id: int, on_op=None) -> None:
    """Issue ops one at a time; check each answer outside the timing."""
    clock = time.perf_counter_ns
    started = clock()
    op_id = first_op_id
    while True:
        done = op_id - first_op_id
        if count is not None and done >= count and (
            deadline is None or time.perf_counter() >= deadline
        ):
            return
        op = next(ops)
        if tracer is not None:
            tracer.op_id = op_id
        begin = clock()
        try:
            result = op.call()
        except Exception:  # a failed op is counted, the run goes on
            phase.errors += 1
            if phase.failed <= MAX_REPORTED_FAILURES:
                traceback.print_exc()
            result = None
            failed = True
        else:
            failed = False
        finish = clock()
        latency = finish - begin
        phase.latencies.setdefault(op.kind, []).append(latency)
        phase.busy_ns += latency
        phase.ops += 1
        second = (finish - started) // 1_000_000_000
        while len(phase.slice_ops) <= second:
            phase.slice_ops.append(0)
            phase.slice_busy_ns.append(0)
        phase.slice_ops[second] += 1
        phase.slice_busy_ns[second] += latency
        if not failed and not op.check(result):
            phase.wrong += 1
            if phase.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: wrong answer from a {op.kind} op "
                      f"(op {op_id})", file=sys.stderr)
        if on_op is not None:
            on_op(op, done + 1)
        op_id += 1


def probe(fixture: Fixture, seed: int, tracer: Optional[Tracer]) -> Phase:
    """Set-up self-check: a few checked reads of every kind.

    Runs as the last step of every set-up, so a broken fixture fails
    before timing starts, and every read layer has been called once on
    every workload.
    """
    phase = Phase()
    rng = random.Random(seed ^ 0x5EED)
    run_ops(point_hot_ops(fixture, rng), PROBE_POINTS, None, phase, tracer, -1)
    run_ops(scan_cold_ops(fixture, rng), PROBE_QUERIES, None, phase, tracer, -1)
    return phase


def set_up(workload: Workload, seed: int, size: FixtureSize,
           tracer: Optional[Tracer]):
    """Build, prepare and probe one fixture; returns it with its time."""
    begin = time.perf_counter()
    fixture = build_fixture(
        seed, size,
        on_table=(lambda table: instrument(tracer, table)) if tracer else None,
    )
    if workload.prepare is not None:
        workload.prepare(fixture)
    checked = probe(fixture, seed, tracer)
    return fixture, time.perf_counter() - begin, checked


def timed_phase(workload: Workload, fixture: Fixture, seed: int,
                seconds: float, tracer: Optional[Tracer]) -> Phase:
    gc.collect()
    phase = Phase()
    ops = workload.ops(fixture, random.Random(seed))
    phase.start = ledgers.snapshot(fixture)

    def on_op(op, done: int) -> None:
        if op.kind == "write":
            phase.write_rows += WRITE_BATCH
        if done <= workload.window and op.kind == "query":
            phase.window_typed_queries += 1
        if done == workload.window:
            phase.window_ops = done
            phase.window_end = ledgers.snapshot(fixture)
            phase.peak_rss_mb = peak_rss_mb()

    begin = time.perf_counter_ns()
    run_ops(ops, workload.window, time.perf_counter() + seconds, phase,
            tracer, 0, on_op)
    phase.wall_ns = time.perf_counter_ns() - begin
    phase.end = ledgers.snapshot(fixture)
    return phase


# -- instrumentation -------------------------------------------------------------


def _count(args, _result) -> int:
    return len(args[0])


def _result_len(_args, result) -> int:
    return len(result)


def instrument(tracer: Tracer, table) -> None:
    """Wrap every layer's public entry points on the live objects."""
    tracer.wrap(table, "point_query", "cluster.point")
    tracer.wrap(table, "range_query", "cluster.range")
    tracer.wrap(table, "query", "cluster.query")
    tracer.wrap(table, "ingest", "cluster.ingest", _count)
    tracer.wrap(table, "tick", "cluster.tick")
    tracer.wrap(engine_module, "plan_hinted", "planner.plan_hinted")
    for shard in table.shards:
        tracer.wrap(shard, "point_query", "shard.point")
        tracer.wrap(shard, "range_query", "shard.range")
        # The cluster enters a shard's typed query through _query_tagged;
        # its span keeps the shard's work out of cluster.query's self time.
        tracer.wrap(shard, "_query_tagged", "shard.query")
        tracer.wrap(shard, "plan_query", "planner.plan_query")
        tracer.wrap(shard.synopses, "synopsis", "planner.synopsis")
        tracer.wrap(shard, "ingest", "shard.ingest", _count)
        tracer.wrap(
            shard.groomer, "groom", "groomer.groom",
            lambda _a, r: r.record_count if r is not None else 0,
        )
        tracer.wrap(
            shard.post_groomer, "post_groom", "postgroomer.post_groom",
            lambda _a, r: r.record_count if r is not None else 0,
        )
        tracer.wrap(
            shard.indexer, "step", "indexer.evolve",
            lambda _a, r: 1 if r is not None else 0,
        )
        # tick() steps the primary's merge service and each secondary's.
        for service in [shard.maintenance, *shard._secondary_maintenance]:
            tracer.wrap(service, "step", "maintenance.step")
        catalog = shard.catalog
        tracer.wrap(catalog, "fetch_record", "blockstore.fetch_record")
        tracer.wrap(catalog, "fetch_records", "blockstore.fetch_records", _count)
        tracer.wrap(catalog, "store_groomed", "blockstore.store_groomed")
        tracer.wrap(catalog, "store_post_groomed", "blockstore.store_post_groomed")
        for shard_index in shard.indexes.all():
            index = shard_index.index
            tracer.wrap(index, "lookup", "index.lookup")
            tracer.wrap(index, "scan", "index.scan", _result_len)
            tracer.wrap(index, "batch_lookup", "index.batch_lookup", _count)
            tracer.wrap(index, "post_groomed_lookup", "index.post_groomed_lookup")
            tracer.wrap(
                index, "add_groomed_run", "index.add_groomed_run",
                lambda _a, run: run.entry_count,
            )
            tracer.wrap(index.cache, "load_run", "cache.load_run")
            tracer.wrap(
                index.cache, "release_after_query", "cache.release_after_query"
            )
            # The executor captured the bound release hook at
            # construction; point it at the wrapper.
            index.executor._on_query_done = index.cache.release_after_query


# -- metrics ---------------------------------------------------------------------


def percentile(sorted_values: List[int], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail_percentile(count: int) -> Optional[float]:
    """Highest reported percentile that keeps >= 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (1 - pct / 100.0) >= 10:
            return pct
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def throughput(phase: Phase) -> float:
    """Median over the phase's whole seconds of ops per busy second.

    Busy time is time spent inside the library, so answer checking does
    not count; the median keeps one slow second of the host from moving
    the figure.  The last, partial second is dropped.
    """
    rates = [
        ops / (busy / 1e9)
        for ops, busy in zip(phase.slice_ops[:-1], phase.slice_busy_ns[:-1])
        if busy
    ]
    if len(rates) < 3:
        return phase.ops / (phase.busy_ns / 1e9)
    return statistics.median(rates)


def reads_of(phase: Phase) -> List[int]:
    return sorted(v for kind in READ_KINDS for v in phase.latencies.get(kind, ()))


def end_to_end(phase: Phase, setup_times: List[float]) -> Dict[str, float]:
    reads = reads_of(phase)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": throughput(phase),
        "read_p50_us": percentile(reads, 50) / 1e3,
        "read_p99_us": percentile(reads, 99) / 1e3,
        **ledgers.end_to_end_ledger_metrics(phase.window_end),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    return metrics


def span_metric(stats: Dict[str, Dict[str, float]], span: str, unit: str,
                statistic: str) -> float:
    row = stats.get(span)
    if row is None or row["calls"] == 0:
        return 0.0
    scale = 1e3 if unit == "us" else 1e6
    denominator = row["calls"] if statistic == "call" else row["items"]
    return row["self_ns"] / denominator / scale if denominator else 0.0


def per_layer(tracer: Tracer, phase: Phase, setup_s: float,
              untraced_ops_per_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced run.

    Span figures come from the timed phase; a layer the timed phase never
    called reports its figure from the set-up phase (load and probe), so
    every layer is measured on every workload.
    """
    timed = tracer.layer_times(0, sys.maxsize)
    setup = tracer.layer_times(-1, 0)

    def source(span: str) -> Dict[str, Dict[str, float]]:
        return timed if timed.get(span, {}).get("calls") else setup

    metrics: Dict[str, float] = {}
    for name, span, unit, statistic in SPAN_METRICS:
        metrics[name] = span_metric(source(span), span, unit, statistic)
    lookups = source("postgroomer.post_groom")
    metrics["postgroomer.lookups_per_row"] = ledgers.ratio(
        lookups.get("index.post_groomed_lookup", {}).get("calls", 0),
        lookups.get("postgroomer.post_groom", {}).get("items", 0),
    )
    ticks = timed.get("cluster.tick")
    metrics["maintenance.share_of_wall"] = (
        ticks["total_ns"] / phase.busy_ns if ticks
        else setup.get("cluster.tick", {}).get("total_ns", 0) / (setup_s * 1e9)
    )
    metrics["cache.load_run.calls"] = (
        timed.get("cache.load_run", {}).get("calls", 0)
        + setup.get("cache.load_run", {}).get("calls", 0)
    )
    window = ledgers.delta(phase.window_end, phase.start)
    metrics.update(ledgers.window_metrics(
        window, phase.window_end, phase.window_ops, phase.window_typed_queries
    ))
    metrics["trace.overhead_ratio"] = untraced_ops_per_s / throughput(phase)
    return metrics


# -- run metadata ----------------------------------------------------------------


def git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` directly ("unknown" outside git)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran.

    Shared hosts change speed from minute to minute; this figure, taken
    when the run starts and after its timed phase, tells such drift apart
    from a change in the library.  It is reported, never used in a metric.
    """
    times = []
    for _ in range(5):
        begin = time.perf_counter()
        table: Dict[int, tuple] = {}
        for i in range(20_000):
            table[i % 512] = (i, i * 3)
        times.append((time.perf_counter() - begin) * 1e3)
    return statistics.median(times)


def metadata(args, fixture: Fixture, root: str,
             host_ms: List[float]) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "fixture_rows": fixture.size.rows,
        "fixture_devices": fixture.size.devices,
        "fixture_regions": fixture.size.regions,
        "shards": NUM_SHARDS,
        "index_bytes_per_shard": fixture.index_bytes,
        "ssd_cap_per_shard": fixture.ssd_cap,
        "host_ref_ms_before_after": host_ms,
    }


# -- the run ---------------------------------------------------------------------


def run_benchmark(
    args, size: FixtureSize = FixtureSize(), setups: int = SETUPS
) -> Outcome:
    """One run as the command line asks; tests shrink ``size``/``setups``."""
    workload = WORKLOADS[args.workload]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines: List[str] = []
    probes: List[Phase] = []
    host_ms = [host_reference_ms()]

    if args.trace:
        # Untraced and traced halves, each on its own fixture.
        fixture, _, checked = set_up(workload, args.seed, size, None)
        probes.append(checked)
        untraced = timed_phase(workload, fixture, args.seed, args.seconds / 2, None)
        del fixture
        gc.collect()
        tracer = Tracer()
        fixture, setup_s, checked = set_up(workload, args.seed, size, tracer)
        probes.append(checked)
        phase = timed_phase(workload, fixture, args.seed, args.seconds / 2, tracer)
        tracer.unwrap_all()
        metrics = per_layer(tracer, phase, setup_s, throughput(untraced))
        units = {**{m: u for m, _, u, _ in SPAN_METRICS}, **LEDGER_UNITS,
                 **TRACE_COUNT_UNITS}
        phases = [untraced, phase]
        os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
        trace_file = os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.csv.gz"
        )
        tracer.write(os.path.join(root, trace_file))
        lines.append(f"trace: {len(tracer.span_name)} spans over "
                     f"{len(tracer.names)} span names in {trace_file}")
        lines.append(f"ops_per_s untraced={throughput(untraced)!r} "
                     f"traced={throughput(phase)!r}")
    else:
        setup_times: List[float] = []
        fixture = None
        for _ in range(setups):
            fixture = None  # free the previous build before the next
            gc.collect()
            fixture, elapsed, checked = set_up(workload, args.seed, size, None)
            setup_times.append(elapsed)
            probes.append(checked)
        phase = timed_phase(workload, fixture, args.seed, args.seconds, None)
        metrics = end_to_end(phase, setup_times)
        units = END_TO_END_UNITS
        phases = [phase]
        lines.append("setup_s runs: " + " ".join(f"{t:.3f}" for t in setup_times))

    # Every timed op pins the routing map once (a write op's ingest does,
    # its tick does not).
    invariants: Dict[str, int] = {}
    for timed in phases:
        found = ledgers.invariant_violations(
            ledgers.delta(timed.end, timed.start), timed.end, timed.ops
        )
        for name, count in found.items():
            invariants[name] = invariants.get(name, 0) + count
    attempted = sum(p.ops for p in phases + probes)
    failed = sum(p.failed for p in phases + probes)
    correct = failed == 0 and not any(invariants.values())

    host_ms.append(host_reference_ms())
    lines.append("meta: " + repr(metadata(args, fixture, root, host_ms)))
    lines.extend(describe(phase, workload))
    lines.append("invariant violations: " + " ".join(
        f"{name}={count}" for name, count in invariants.items()
    ))
    lines.append(f"fail_ratio={ledgers.ratio(failed, attempted):.6f} "
                 f"(attempted={attempted} failed={failed})")
    for name, value in metrics.items():
        lines.append(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return Outcome(result, lines)


def describe(phase: Phase, workload: Workload) -> List[str]:
    """Per-kind latency figures for the report (not gated).

    Each kind's median and the highest percentile that keeps at least
    ten samples beyond it, with the sample count; write ops in ms.
    """
    lines = [f"workload {workload.name}: {workload.why}",
             f"ops={phase.ops} busy_s={phase.busy_ns / 1e9:.3f} "
             f"wall_s={phase.wall_ns / 1e9:.3f}"]
    for kind, values in sorted(phase.latencies.items()):
        scale, unit = (1e6, "ms") if kind == "write" else (1e3, "us")
        ordered = sorted(values)
        percentiles = [50.0]
        tail = tail_percentile(len(ordered))
        if tail is not None and tail > 50.0:
            percentiles.append(tail)
        for pct in percentiles:
            lines.append(
                f"{kind}_p{pct:g}_{unit} = "
                f"{percentile(ordered, pct) / scale!r} {unit} (n={len(ordered)})"
            )
        if kind == "write":
            rows_per_s = phase.write_rows / (sum(values) / 1e9)
            lines.append(f"ingest_rows_per_s = {rows_per_s!r} rows/s")
    sim_io = ledgers.sim_io_us_per_op(
        ledgers.delta(phase.window_end, phase.start), phase.window_ops
    )
    lines.append(f"sim_io_us_per_op = {sim_io!r} sim_us")
    return lines
