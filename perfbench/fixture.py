"""The benchmark fixture: a 4-shard telemetry table loaded to steady state.

Every workload starts from the same fixture.  Rows come from one
``random.Random(seed)``; the table only ever sees the generated rows.
The :class:`Oracle` keeps the newest version of every row by primary
key, which is what every answer is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.definition import ColumnSpec, ColumnType
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

SCHEMA = TableSchema(
    name="telemetry",
    columns=(
        ColumnSpec("device"),
        ColumnSpec("msg"),
        ColumnSpec("region", ColumnType.STRING),
        ColumnSpec("reading"),
        ColumnSpec("status"),
    ),
    primary_key=("device", "msg"),
    sharding_key=("device",),
)
PRIMARY_SPEC = IndexSpec(("device",), ("msg",), ("reading",))
# Covers ``reading`` but deliberately not ``status``: typed queries that
# project ``status`` need a fetch-back, the others run index-only.
SECONDARY_SPECS = {"by_region": IndexSpec(("region",), (), ("reading",))}
NUM_SHARDS = 4
POST_GROOM_EVERY = 3

Row = Tuple[int, int, str, int, int]
Key = Tuple[int, int]


@dataclass(frozen=True)
class FixtureSize:
    """How big the fixture is; recorded with every result."""

    rows: int = 20_000
    devices: int = 500
    regions: int = 64
    load_batch: int = 500
    settle_ticks: int = 6


def region_of(device: int, regions: int) -> str:
    """A device never moves, so updates never ghost a secondary entry."""
    return f"r{device % regions:03d}"


@dataclass
class Oracle:
    """Newest version per primary key, plus the lookups the checks need."""

    regions: int
    rows: Dict[Key, Row] = field(default_factory=dict)
    msg_count: Dict[int, int] = field(default_factory=dict)
    by_region: Dict[str, Set[Key]] = field(default_factory=dict)
    user_bytes: int = 0  # encoded size of every row version ingested

    def apply(self, batch: List[Row]) -> None:
        for row in batch:
            key = (row[0], row[1])
            if key not in self.rows:
                self.msg_count[row[0]] = max(
                    self.msg_count.get(row[0], 0), row[1] + 1
                )
                self.by_region.setdefault(row[2], set()).add(key)
            self.rows[key] = row
            self.user_bytes += row_bytes(row)

    def live_bytes(self) -> int:
        return sum(row_bytes(row) for row in self.rows.values())


def row_bytes(row: Row) -> int:
    """User bytes of one row: 8 per integer, the string's UTF-8 length."""
    return 8 * 4 + len(row[2].encode())


def new_row(rng: random.Random, oracle: Oracle, device: int) -> Row:
    """A new message for ``device`` (appended after its last one)."""
    msg = oracle.msg_count.get(device, 0)
    oracle.msg_count[device] = msg + 1
    return (
        device,
        msg,
        region_of(device, oracle.regions),
        rng.randrange(100_000),
        rng.randrange(4),
    )


def updated_row(rng: random.Random, row: Row) -> Row:
    """A newer version of ``row``: same key and region, new payload."""
    return (row[0], row[1], row[2], rng.randrange(100_000), rng.randrange(4))


@dataclass
class Fixture:
    table: ShardedTable
    oracle: Oracle
    size: FixtureSize
    # Per shard: index bytes (every index) and the SSD cap, when capped.
    index_bytes: List[int] = field(default_factory=list)
    ssd_cap: List[Optional[int]] = field(default_factory=list)


def make_table() -> ShardedTable:
    return ShardedTable(
        SCHEMA,
        PRIMARY_SPEC,
        num_shards=NUM_SHARDS,
        config=ShardConfig(
            post_groom_every=POST_GROOM_EVERY,
            secondary_indexes=dict(SECONDARY_SPECS),
        ),
    )


def build_fixture(
    seed: int,
    size: FixtureSize,
    on_table: Optional[Callable[[ShardedTable], None]] = None,
) -> Fixture:
    """Load ``size.rows`` generated rows and settle maintenance.

    Rows arrive in ``load_batch`` batches, each followed by one tick, then
    ``settle_ticks`` more ticks run post-groom, evolve and merge cycles so
    the fixture starts in steady state.  ``on_table`` sees the empty
    table first (the tracer wraps its methods there).
    """
    rng = random.Random(seed)
    table = make_table()
    if on_table is not None:
        on_table(table)
    oracle = Oracle(regions=size.regions)
    batch: List[Row] = []
    for _ in range(size.rows):
        batch.append(new_row(rng, oracle, rng.randrange(size.devices)))
        if len(batch) == size.load_batch:
            table.ingest(batch)
            oracle.apply(batch)
            table.tick()
            batch = []
    if batch:
        table.ingest(batch)
        oracle.apply(batch)
    table.run_cycles(size.settle_ticks)
    fixture = Fixture(table, oracle, size)
    fixture.index_bytes = [shard_index_bytes(shard) for shard in table.shards]
    fixture.ssd_cap = [None] * len(table.shards)
    return fixture


def shard_index_bytes(shard) -> int:
    return sum(
        level.size_bytes
        for shard_index in shard.indexes.all()
        for level in shard_index.index.stats().levels
    )


def cap_ssd(fixture: Fixture) -> None:
    """Shrink every shard's SSD cache below its index (``scan_cold``).

    The cap is set once the load is done, because only then are the
    index bytes known.  It leaves the shard's non-index blocks (records,
    log, journal) where they are and grants the index a third of its
    bytes.  The cache
    then starts cold: every index level is purged, and the cache
    manager's own load pass warms the newest levels back in up to its
    low watermark.  Secondaries are maintained first, so the by-region
    scans meet a partly cached secondary and a cold primary.
    """
    for shard_id, shard in enumerate(fixture.table.shards):
        hierarchy = shard.hierarchy
        index_bytes = fixture.index_bytes[shard_id]
        other_bytes = hierarchy.ssd.used_bytes - index_bytes
        cap = other_bytes + index_bytes // 3
        hierarchy.ssd.capacity_bytes = cap
        fixture.ssd_cap[shard_id] = cap
        caches = [si.index.cache for si in shard.indexes.all()]
        caches = caches[1:] + caches[:1]  # secondaries, then primary
        for cache in caches:
            cache.set_cache_level(-1)
        for cache in caches:
            cache.resume_dynamic_policy()
            cache.maintain()


__all__ = [
    "Fixture",
    "FixtureSize",
    "Oracle",
    "build_fixture",
    "cap_ssd",
    "new_row",
    "row_bytes",
    "updated_row",
]
