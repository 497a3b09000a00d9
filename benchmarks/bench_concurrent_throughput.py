"""Ablation A11: multi-threaded query throughput under live daemons.

The honest concurrency benchmark of the reproduction: N query threads
hammer point lookups, range scans and batch lookups while the groomer,
post-groomer, indexer and per-zone merge daemons run for real
(``WildfireShard.start_daemons``) -- the deployment shape of paper
section 3, not a deterministic tick loop.

Queries pin the current immutable run-list version with a single Ref and
release it with a single Unref (the version-set run lifecycle).
Acceptance, counter-asserted: **zero** reclaim-while-pinned events,
**zero** query errors, and **exactly 2 version-refcount operations per
query independent of run count** (the deterministic scaling probe below
pins 4-vs-16-run indexes to prove it).  The per-run-ledger and
unprotected lifecycles this ablation once compared against are retired
with the modes that selected them; their numbers stay in the committed
``BENCH_concurrent_throughput.json``.

All acceptance assertions are on deterministic counters -- never on
wall-clock ratios (see ``tools/check_flaky.py``).

Set ``UMZI_BENCH_SMOKE=1`` for the CI-sized fixture.
"""

import os
import random
import threading
import time

from repro.bench.fixtures import entries_for_keys
from repro.bench.harness import ExperimentResult, Series
from repro.core.definition import ColumnSpec, i1_definition
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema

_SMOKE = os.environ.get("UMZI_BENCH_SMOKE") == "1"
THREAD_COUNTS = (2,) if _SMOKE else (1, 2, 4)
DURATION_S = 0.25 if _SMOKE else 0.8
BASELINE_DEVICES = 4
BASELINE_MSGS = 16
GROOM_INTERVAL_S = 0.002
SCALING_RUN_COUNTS = (4, 16)
SCALING_QUERIES = 50


def _make_shard() -> WildfireShard:
    schema = TableSchema(
        name="ct",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    shard = WildfireShard(
        schema,
        spec,
        config=ShardConfig(
            post_groom_every=2,
            umzi=UmziConfig(data_block_bytes=2048),
        ),
    )
    # Small heap budget so the cache manager purges and loads while the
    # queries run (the eviction paths the pins must gate); sized to leave
    # headroom for the committed log's transient blocks.
    shard.hierarchy.ssd.capacity_bytes = 1024 * 1024
    rows = [
        (d, m, d * 1000 + m)
        for d in range(BASELINE_DEVICES)
        for m in range(BASELINE_MSGS)
    ]
    shard.ingest(rows)
    shard.tick()  # baseline fully groomed + indexed before concurrency
    return shard


def _query_worker(shard, seed, stop, counters, lock):
    rng = random.Random(seed)
    ops = errors = 0
    while not stop.is_set():
        d = rng.randrange(BASELINE_DEVICES)
        m = rng.randrange(BASELINE_MSGS)
        try:
            if shard.index_lookup((d,), (m,)) is None:
                errors += 1
            elif len(shard.range_query((d,), (0,), (BASELINE_MSGS - 1,))) \
                    < BASELINE_MSGS:
                errors += 1
            elif any(
                hit is None
                for hit in shard.index_batch_lookup(
                    [((d,), (m2,)) for m2 in range(0, BASELINE_MSGS, 4)]
                )
            ):
                errors += 1
            ops += 3
        except Exception:
            # A reclaimed run read mid-query.  Count it; the benchmark
            # quantifies rather than crashes.
            errors += 1
    with lock:
        counters["ops"] += ops
        counters["errors"] += errors


def _count_post_groomed_lookups(shard) -> list:
    """Record every post-groomer lookup (each takes one version pin)."""
    calls: list = []
    lookup = shard.index.post_groomed_lookup

    def counted(*args, **kwargs):
        calls.append(1)
        return lookup(*args, **kwargs)

    shard.index.post_groomed_lookup = counted
    return calls


def _run_window(num_threads: int):
    shard = _make_shard()
    post_groom_lookups = _count_post_groomed_lookups(shard)
    epochs = shard.hierarchy.stats.epochs
    before = epochs.snapshot()
    stop = threading.Event()
    counters = {"ops": 0, "errors": 0}
    lock = threading.Lock()
    workers = [
        threading.Thread(
            target=_query_worker,
            args=(shard, 40 + i, stop, counters, lock),
        )
        for i in range(num_threads)
    ]
    shard.start_daemons(groom_interval_s=GROOM_INTERVAL_S)
    for w in workers:
        w.start()
    start = time.perf_counter()
    rng = random.Random(7)
    try:
        while time.perf_counter() - start < DURATION_S:
            # Keep the daemons fed: fresh rows -> grooms -> post-grooms ->
            # evolves -> merges, i.e. continuous retirement under queries.
            shard.ingest(
                [
                    (rng.randrange(BASELINE_DEVICES),
                     BASELINE_MSGS + rng.randrange(64),
                     rng.randrange(1000))
                    for _ in range(20)
                ]
            )
            time.sleep(0.005)
    finally:
        elapsed = time.perf_counter() - start
        stop.set()
        for w in workers:
            w.join(timeout=10.0)
        shard.stop_daemons()
    # Drain any release a GC finalizer may have parked, so the refcount
    # deltas below are settled.
    shard.index.lifecycle.pinned_run_ids()
    delta = epochs.diff(before)
    return {
        "ops_per_s": counters["ops"] / elapsed,
        "ops": counters["ops"],
        "post_groom_lookups": len(post_groom_lookups),
        "errors": counters["errors"],
        "runs_retired": delta.runs_retired,
        "runs_reclaimed": delta.runs_reclaimed,
        "reclaims_deferred": delta.reclaims_deferred,
        "reclaimed_while_pinned": delta.reclaimed_while_pinned,
        "version_refs": delta.version_refs,
        "version_unrefs": delta.version_unrefs,
        "versions_reclaimed": delta.versions_reclaimed,
    }


def _refcount_scaling(num_runs: int) -> float:
    """Deterministic probe: refcount operations per query at ``num_runs``.

    Single-threaded, fixed fixture, no daemons -- the counter is exact:
    2 version ops per query at any run count.
    """
    definition = i1_definition()
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=num_runs * 2, size_ratio=4)
    index = UmziIndex(
        definition,
        config=UmziConfig(name=f"a11-versionset-{num_runs}", levels=levels,
                          data_block_bytes=2048),
    )
    for gid in range(num_runs):
        index.add_groomed_run(
            entries_for_keys(definition, list(range(gid * 10, (gid + 1) * 10)),
                             ts_start=gid * 10 + 1, block_id=gid),
            gid, gid,
        )
    epochs = index.hierarchy.stats.epochs
    before = epochs.snapshot()
    for k in range(SCALING_QUERIES):
        index.lookup((k,), (k,))
    delta = epochs.diff(before)
    return (delta.version_refs + delta.version_unrefs) / SCALING_QUERIES


def test_concurrent_throughput(benchmark, reporter):
    mode = "versionset"
    metrics = {}
    outcomes = {}
    line = Series(f"{mode} mode (queries/s)")
    for n in THREAD_COUNTS:
        outcome = _run_window(n)
        outcomes[n] = outcome
        line.add(n, outcome["ops_per_s"])
    series = [line]
    top = outcomes[THREAD_COUNTS[-1]]
    metrics[f"ops_per_s_{mode}"] = top["ops_per_s"]
    metrics[f"query_errors_{mode}"] = float(top["errors"])
    metrics[f"runs_retired_{mode}"] = float(top["runs_retired"])
    metrics[f"reclaims_deferred_{mode}"] = float(top["reclaims_deferred"])
    metrics[f"reclaimed_while_pinned_{mode}"] = float(
        top["reclaimed_while_pinned"]
    )
    metrics["versions_reclaimed_versionset"] = float(top["versions_reclaimed"])

    # Deterministic pin-cost scaling: refcount operations per query as the
    # run count grows (flat at 2).
    scaling = Series(f"{mode} refcount ops/query")
    for num_runs in SCALING_RUN_COUNTS:
        per_query = _refcount_scaling(num_runs)
        scaling.add(num_runs, per_query)
        metrics[f"refcount_ops_per_query_{mode}_runs{num_runs}"] = per_query
    series.append(scaling)

    result = ExperimentResult(
        figure="Ablation A11",
        title="Concurrent query throughput under live daemons",
        x_label="query threads (throughput) / runs (refcount scaling)",
        y_label="queries/s (sustained) / refcount ops per query",
        series=series,
        notes=f"{DURATION_S}s windows, groom every {GROOM_INTERVAL_S}s, "
              "post-groom every 2 grooms; versionset run lifecycle; "
              "refcount scaling probed deterministically "
              f"at {SCALING_RUN_COUNTS} runs",
        metrics=metrics,
    )
    reporter(result, slug="concurrent_throughput")

    # Acceptance, counter-asserted on every window: concurrent queries
    # run with ZERO reclaim-while-pinned events and zero query errors
    # while maintenance keeps retiring runs underneath.
    for n in THREAD_COUNTS:
        outcome = outcomes[n]
        assert outcome["reclaimed_while_pinned"] == 0, outcome
        assert outcome["errors"] == 0, outcome
        assert outcome["ops_per_s"] > 0, outcome
        assert outcome["runs_retired"] > 0, (
            "fixture must actually retire runs under the queries"
        )
        assert outcome["runs_reclaimed"] <= outcome["runs_retired"]

    # Pin cost under the real concurrent workload: exactly one Ref and
    # one Unref per worker query and per post-groomer lookup -- 2
    # refcount ops each -- no matter how many runs the daemons piled up.
    for n in THREAD_COUNTS:
        outcome = outcomes[n]
        pins = outcome["ops"] + outcome["post_groom_lookups"]
        assert outcome["version_refs"] == pins, outcome
        assert outcome["version_unrefs"] == pins, outcome

    # The deterministic scaling probe: exactly 2 ops/query at every run
    # count.
    for num_runs in SCALING_RUN_COUNTS:
        assert metrics[f"refcount_ops_per_query_versionset_runs{num_runs}"] \
            == 2.0

    # Benchmark hook: one window at the top thread count.
    benchmark(lambda: _run_window(THREAD_COUNTS[-1]))
