"""Read the program's own ledgers: counters, derived ratios, invariants.

Everything here is deterministic for a given seed and op count: the
ledgers count simulated I/O, decodes and refcount operations, never
wall time.
"""

from __future__ import annotations

from typing import Dict, List

from repro.storage.metrics import IOStats, ReadIntent

TIERS = ("memory", "ssd", "shared")


def snapshot(fixture) -> Dict[str, float]:
    """Flat copy of every counter the metrics are derived from."""
    table = fixture.table
    merged = IOStats()
    for shard in table.shards:
        merged.merge(shard.hierarchy.stats)
    tiers = merged.snapshot()
    out: Dict[str, float] = {}
    for tier in TIERS:
        stats = tiers.get(tier)
        out[f"{tier}.reads"] = stats.reads if stats else 0
        out[f"{tier}.bytes_read"] = stats.bytes_read if stats else 0
        out[f"{tier}.bytes_written"] = stats.bytes_written if stats else 0
    cluster_epochs = table.epoch_stats()
    out["sim_ns"] = merged.total_sim_ns
    out["entry_decodes"] = merged.decode.entry_decodes
    out["raw_key_probes"] = merged.decode.raw_key_probes
    out["shard.version_refs"] = merged.epochs.version_refs
    out["shard.reclaimed_while_pinned"] = merged.epochs.reclaimed_while_pinned
    out["map.ref_ops"] = cluster_epochs.version_refs + cluster_epochs.version_unrefs
    out["map.reclaimed_while_pinned"] = cluster_epochs.reclaimed_while_pinned
    for intent in ReadIntent:
        stats = merged.for_intent(intent)
        prefix = f"intent.{intent.value}"
        out[f"{prefix}.reads"] = stats.reads
        out[f"{prefix}.local_hits"] = stats.memory_hits + stats.ssd_hits
        out[f"{prefix}.promotions"] = stats.promotions
        out[f"{prefix}.retries"] = stats.retries
        out[f"{prefix}.giveups"] = stats.giveups
    out["faults.transient"] = merged.faults.transient_errors
    out["faults.retries"] = merged.faults.retries
    out["faults.giveups"] = merged.faults.giveups
    scatter = table.scatter_stats()
    out["scatter.queries"] = scatter["scatter_queries"]
    out["scatter.contacted"] = scatter["shards_contacted"]
    out["shared.used_bytes"] = sum(
        shard.hierarchy.shared.used_bytes for shard in table.shards
    )
    indexes = [si.index for shard in live_shards(table) for si in shard.indexes.all()]
    out["index.runs"] = sum(index.stats().total_runs for index in indexes)
    out["index.count"] = len(indexes)
    out["cache.cached_fraction_sum"] = sum(
        index.cache.cached_fraction() for index in indexes
    )
    out["user_bytes"] = fixture.oracle.user_bytes
    out["live_bytes"] = fixture.oracle.live_bytes()
    return out


def live_shards(table) -> List:
    return [table.shards[shard_id] for shard_id in table.live_shard_ids()]


def delta(later: Dict[str, float], earlier: Dict[str, float]) -> Dict[str, float]:
    return {name: later[name] - earlier.get(name, 0) for name in later}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_io_us_per_op(window: Dict[str, float], ops: int) -> float:
    """Simulated storage time per op, in simulated microseconds."""
    return ratio(window["sim_ns"], ops) / 1000.0


def window_metrics(
    window: Dict[str, float], end: Dict[str, float], ops: int, typed_queries: int
) -> Dict[str, float]:
    """Per-layer counts and ratios over the deterministic ledger window.

    ``window`` is the counter delta across the window, ``end`` the
    absolute counters at its end.
    """
    query_reads = window["intent.query.reads"]
    routed_typed = typed_queries - window["scatter.queries"]
    return {
        "sim_io_us_per_op": sim_io_us_per_op(window, ops),
        "cluster.shards_contacted_per_query": ratio(
            routed_typed + window["scatter.contacted"], typed_queries
        ),
        "cluster.map_ref_ops_per_op": ratio(window["map.ref_ops"], ops),
        "index.runs_per_index": ratio(end["index.runs"], end["index.count"]),
        "decode.raw_key_probes_per_op": ratio(window["raw_key_probes"], ops),
        "decode.entry_decodes_per_op": ratio(window["entry_decodes"], ops),
        "epochs.version_refs_per_op": ratio(window["shard.version_refs"], ops),
        "storage.query.local_hit_rate": (
            ratio(window["intent.query.local_hits"], query_reads)
            if query_reads else 1.0
        ),
        "storage.memory.reads_per_op": ratio(window["memory.reads"], ops),
        "storage.ssd.reads_per_op": ratio(window["ssd.reads"], ops),
        "storage.shared.reads_per_op": ratio(window["shared.reads"], ops),
        "storage.shared.bytes_read_per_op": ratio(window["shared.bytes_read"], ops),
        "storage.query.promotions_per_op": ratio(
            window["intent.query.promotions"], ops
        ),
        "storage.maintenance.promotions": end["intent.maintenance.promotions"],
        "storage.retries": window["intent.query.retries"]
        + window["intent.maintenance.retries"],
        "storage.giveups": window["intent.query.giveups"]
        + window["intent.maintenance.giveups"],
        "cache.cached_fraction": ratio(
            end["cache.cached_fraction_sum"], end["index.count"]
        ),
        "storage.bytes_written_per_user_byte": ratio(
            window["ssd.bytes_written"] + window["shared.bytes_written"],
            window["user_bytes"],
        ),
    }


def end_to_end_ledger_metrics(end: Dict[str, float]) -> Dict[str, float]:
    """The deterministic end-to-end metrics.

    ``write_amp`` and ``space_amp`` span the fixture's whole life up to
    the window's end (set-up load included), so both are defined on
    read-only workloads too.  ``write_amp`` counts the durable (shared)
    tier only: SSD writes include cache fills that reads cause, which
    ``storage.bytes_written_per_user_byte`` and the promotion counts
    report instead.
    """
    return {
        "write_amp": ratio(end["shared.bytes_written"], end["user_bytes"]),
        "space_amp": ratio(end["shared.used_bytes"], end["live_bytes"]),
    }


def invariant_violations(
    run: Dict[str, float], end: Dict[str, float], cluster_ops: int
) -> Dict[str, int]:
    """House invariants, as violation counts (all must be 0).

    ``run`` is the counter delta over the whole timed phase; ``end`` the
    absolute counters after it.
    """
    return {
        "map_ref_ops_not_2_per_op": int(run["map.ref_ops"] != 2 * cluster_ops),
        "reclaimed_while_pinned": int(
            end["shard.reclaimed_while_pinned"] + end["map.reclaimed_while_pinned"]
        ),
        "maintenance_promotions": int(end["intent.maintenance.promotions"]),
        "transient_not_retries_plus_giveups": int(
            end["faults.transient"] != end["faults.retries"] + end["faults.giveups"]
        ),
    }


__all__ = [
    "delta",
    "sim_io_us_per_op",
    "end_to_end_ledger_metrics",
    "invariant_violations",
    "snapshot",
    "window_metrics",
]
