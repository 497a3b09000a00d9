"""The three workloads: what each operation calls and how it is checked.

A workload turns the seed's ``random.Random`` and the fixture's oracle
into a stream of :class:`Op` s.  Each op calls one public
``ShardedTable`` method (the write op calls ``ingest`` then ``tick``)
and knows how to check its own answer against the oracle.  Operations
are issued one at a time by one client (a closed loop); the stream is a
pure function of the seed, so a run's first ``window`` ops are the same
on every run with that seed.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.planner import Query

from perfbench.fixture import Fixture, Row, cap_ssd, new_row, updated_row

ROW_COLUMNS = ("device", "msg", "region", "reading", "status")


@dataclass
class Op:
    kind: str  # "point" | "range" | "query" | "write"
    call: Callable[[], object]
    check: Callable[[object], bool]


class Zipf:
    """Zipfian ranks over ``n`` items (theta < 1), sampled by inverse CDF."""

    def __init__(self, n: int, theta: float) -> None:
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        self._cdf = list(itertools.accumulate(weights))
        self._total = self._cdf[-1]

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


# -- answer checks -------------------------------------------------------------


def check_point(fixture: Fixture, key: Tuple[int, int]):
    expected = fixture.oracle.rows.get(key)

    def check(record) -> bool:
        if expected is None:
            return record is None
        return record is not None and tuple(record.values) == expected

    return check


def check_range(fixture: Fixture, device: int, low: int, high: int):
    rows = fixture.oracle.rows
    count = fixture.oracle.msg_count.get(device, 0)
    expected = [
        (msg, rows[(device, msg)][3]) for msg in range(low, min(high, count - 1) + 1)
    ]

    def check(entries) -> bool:
        return [
            (entry.sort_values[0], entry.include_values[0]) for entry in entries
        ] == expected and all(entry.equality_values == (device,) for entry in entries)

    return check


def check_rows(expected: List[tuple]):
    return lambda rows: list(rows) == expected


def project(row: Row, columns: Tuple[str, ...]) -> tuple:
    return tuple(row[ROW_COLUMNS.index(column)] for column in columns)


# -- point_hot -----------------------------------------------------------------

POINT_THETA = 0.99
RANGE_SHARE = 0.10
ABSENT_SHARE = 0.03
RANGE_WIDTH = 10


def point_hot_ops(fixture: Fixture, rng: random.Random) -> Iterator[Op]:
    """Zipfian devices, uniform msgs; ~3% absent keys, ~10% short ranges."""
    table = fixture.table
    oracle = fixture.oracle
    devices = list(range(fixture.size.devices))
    rng.shuffle(devices)  # which devices are hot depends on the seed
    zipf = Zipf(len(devices), POINT_THETA)
    while True:
        device = devices[zipf.sample(rng)]
        count = oracle.msg_count.get(device, 0)
        draw = rng.random()
        if draw < RANGE_SHARE:
            low = rng.randrange(max(count, 1))
            high = low + RANGE_WIDTH - 1
            yield Op(
                "range",
                lambda d=device, lo=low, hi=high: table.range_query(
                    (d,), (lo,), (hi,)
                ),
                check_range(fixture, device, low, high),
            )
            continue
        if draw < RANGE_SHARE + ABSENT_SHARE or count == 0:
            msg = count + rng.randrange(1_000)  # never written
        else:
            msg = rng.randrange(count)
        yield Op(
            "point",
            lambda d=device, m=msg: table.point_query((d,), (m,)),
            check_point(fixture, (device, msg)),
        )


# -- scan_cold -----------------------------------------------------------------

COVERING = ("device", "msg", "reading")
NON_COVERING = ("device", "msg", "status")
MSG_WINDOW = 10


class ScanOracle:
    """Expected typed-query answers, memoized (the data does not change)."""

    def __init__(self, fixture: Fixture) -> None:
        self.oracle = fixture.oracle
        self._memo: Dict[tuple, List[tuple]] = {}

    def region_rows(self, region: str) -> List[Row]:
        key = ("region", region)
        if key not in self._memo:
            keys = self.oracle.by_region.get(region, ())
            self._memo[key] = [self.oracle.rows[k] for k in sorted(keys)]
        return self._memo[key]

    def covering(self, region: str) -> List[tuple]:
        return sorted(project(row, COVERING) for row in self.region_rows(region))

    def non_covering(self, region: str, low: int, high: int, status: int):
        return sorted(
            project(row, NON_COVERING)
            for row in self.region_rows(region)
            if low <= row[1] <= high and row[4] == status
        )

    def primary_range(self, device: int, low: int, high: int) -> List[tuple]:
        rows = self.oracle.rows
        return sorted(
            rows[(device, msg)]
            for msg in range(low, high + 1)
            if (device, msg) in rows
        )


# 60% covering, 20% fetch-back, 20% primary range, in a fixed rotation so
# every run issues the same mix.  The shapes' latencies overlap; with the
# covering shape in the majority, the median read falls inside one shape
# instead of between two, where it would jump from run to run.
SCAN_ROTATION = ("covering", "non_covering", "covering", "range", "covering")


def scan_cold_ops(fixture: Fixture, rng: random.Random) -> Iterator[Op]:
    """Typed queries over a capped SSD: index-only, fetch-back, routed range."""
    table = fixture.table
    expect = ScanOracle(fixture)
    regions = sorted(fixture.oracle.by_region)
    devices = fixture.size.devices
    for shape in itertools.cycle(SCAN_ROTATION):
        region = regions[rng.randrange(len(regions))]
        if shape == "covering":
            query = Query(equalities=(("region", region),), projection=COVERING)
            expected = expect.covering(region)
        elif shape == "non_covering":
            low = rng.randrange(40)
            high = low + MSG_WINDOW - 1
            status = rng.randrange(4)
            query = Query(
                equalities=(("region", region), ("status", status)),
                ranges=(("msg", low, high),),
                projection=NON_COVERING,
            )
            expected = expect.non_covering(region, low, high, status)
        else:
            device = rng.randrange(devices)
            low = rng.randrange(40)
            high = low + 4 * MSG_WINDOW - 1
            query = Query(
                equalities=(("device", device),), ranges=(("msg", low, high),)
            )
            expected = expect.primary_range(device, low, high)
        yield Op("query", lambda q=query: table.query(q), check_rows(expected))


# -- ingest_mixed --------------------------------------------------------------

WRITE_BATCH = 200
NEW_SHARE = 0.5
READS_PER_WRITE = 30


def ingest_mixed_ops(fixture: Fixture, rng: random.Random) -> Iterator[Op]:
    """Write ops (ingest + tick) of new rows and updates, then point reads.

    Half of the reads after each write ask for rows of that batch, which
    checks that every batch is visible once its tick returns.
    """
    table = fixture.table
    oracle = fixture.oracle
    keys = sorted(oracle.rows)
    while True:
        batch: List[Row] = []
        fresh = int(WRITE_BATCH * NEW_SHARE)
        for _ in range(fresh):
            batch.append(new_row(rng, oracle, rng.randrange(fixture.size.devices)))
        for _ in range(WRITE_BATCH - fresh):
            batch.append(updated_row(rng, oracle.rows[keys[rng.randrange(len(keys))]]))

        def write(rows=batch) -> None:
            table.ingest(rows)
            table.tick()

        def applied(_result, rows=batch) -> bool:
            for row in rows:
                if (row[0], row[1]) not in oracle.rows:
                    keys.append((row[0], row[1]))
            oracle.apply(rows)
            return True

        yield Op("write", write, applied)
        for read in range(READS_PER_WRITE):
            if read % 2 == 0:
                row = batch[rng.randrange(len(batch))]
                key = (row[0], row[1])
            else:
                key = keys[rng.randrange(len(keys))]
            yield Op(
                "point",
                lambda k=key: table.point_query((k[0],), (k[1],)),
                check_point(fixture, key),
            )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[Fixture, random.Random], Iterator[Op]]
    prepare: Optional[Callable[[Fixture], None]] = None
    window: int = 1_000  # ops in the deterministic ledger window


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "point_hot",
            "Zipfian routed point reads and short ranges on a fully cached "
            "index: per-op overhead above the index dominates",
            point_hot_ops,
            window=2_000,
        ),
        Workload(
            "scan_cold",
            "typed secondary and range queries with each shard's SSD capped "
            "below its index: shared-storage reads, cache churn, planner and "
            "fetch-back dominate",
            scan_cold_ops,
            prepare=cap_ssd,
            window=60,
        ),
        Workload(
            "ingest_mixed",
            "ingest + tick of new rows and updates beside point reads: "
            "groom, post-groom, evolve and merge dominate",
            ingest_mixed_ops,
            window=310,
        ),
    )
}

__all__ = ["Op", "WORKLOADS", "Workload", "Zipf"]
