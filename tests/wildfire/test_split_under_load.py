"""Online shard split under live daemons and concurrent queries (ISSUE 8).

Mirror of ``tests/core/test_concurrency_stress.py`` at the cluster
layer: every shard's groom/post-groom/index daemons run on real threads,
query threads hammer warm keys and an ingest thread appends fresh rows
-- and *in the middle of that* the hottest shard is split online.  The
invariants:

* no query thread ever sees an error or a wrong/missing answer for a
  warm key -- the double-read window and both epoch publishes are
  invisible to clients;
* no shard's run lifecycle ever reclaims a version while pinned, and
  neither does the routing-map registry;
* the routing-map registry costs **exactly two refcount operations per
  query** (one Ref pinning the epoch, one Unref releasing it), measured
  on the cluster ledger where the registry is the only writer.
"""

import threading

import pytest

from repro.core.definition import ColumnSpec
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.schema import IndexSpec, TableSchema

pytestmark = pytest.mark.timeout(180)

DEVICES = 24
MSGS = 3
QUERY_THREADS = 4
INGEST_ROUNDS = 12


def make_table(num_shards=2):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    return ShardedTable(
        schema,
        IndexSpec(("device",), ("msg",), ("reading",)),
        num_shards=num_shards,
        config=ShardConfig(post_groom_every=2),
    )


def expected(device, msg):
    return device * 100 + msg


class TestSplitUnderLoad:
    def test_split_with_live_daemons_and_queries(self):
        table = make_table(num_shards=2)
        table.ingest(
            [(d, m, expected(d, m)) for d in range(DEVICES) for m in range(MSGS)]
        )
        table.run_cycles(4)
        victim = table.shard_of_key((0,))

        table.start_daemons(groom_interval_s=0.002)
        stop = threading.Event()
        errors = []

        def query_loop(tid):
            i = 0
            while not stop.is_set():
                device = (tid + i) % DEVICES
                msg = i % MSGS
                try:
                    record = table.point_query((device,), (msg,))
                    if record is None or record.values != (
                        device, msg, expected(device, msg),
                    ):
                        errors.append((tid, device, msg, record))
                        return
                    entries = table.range_query((device,))
                    if len(entries) < MSGS:
                        errors.append((tid, device, "range", len(entries)))
                        return
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append((tid, device, msg, repr(exc)))
                    return
                i += 1

        def ingest_loop():
            for round_no in range(INGEST_ROUNDS):
                if stop.is_set():
                    return
                table.ingest(
                    [(d, 100 + round_no, d) for d in range(DEVICES)]
                )

        threads = [
            threading.Thread(target=query_loop, args=(tid,), daemon=True)
            for tid in range(QUERY_THREADS)
        ]
        threads.append(threading.Thread(target=ingest_loop, daemon=True))
        for thread in threads:
            thread.start()
        try:
            summary = table.split_shard(victim)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            table.stop_daemons()

        assert errors == []
        assert summary["phase"] == "done"
        assert table.routing_epoch() == 2
        assert table.stats()["retired_shards"] == [victim]
        assert len(table.live_shard_ids()) == 3

        # No shard's run lifecycle -- nor the map registry -- ever
        # reclaimed a pinned version during the storm.
        for shard in table.shards:
            assert shard.hierarchy.stats.epochs.reclaimed_while_pinned == 0
        assert table.epoch_stats().reclaimed_while_pinned == 0

        # Everything written during the window drains and answers.
        table.run_cycles(6)
        for d in range(DEVICES):
            for m in range(MSGS):
                assert table.point_query((d,), (m,)).values == (
                    d, m, expected(d, m),
                )
            for round_no in range(INGEST_ROUNDS):
                record = table.point_query((d,), (100 + round_no,))
                assert record is not None and record.values == (
                    d, 100 + round_no, d,
                )

    def test_exactly_two_refcount_ops_per_query(self):
        """The ledger-observable cost of routing epochs, pre and post split."""
        table = make_table(num_shards=2)
        table.ingest(
            [(d, m, expected(d, m)) for d in range(DEVICES) for m in range(MSGS)]
        )
        table.run_cycles(4)

        def probe(queries):
            before = table.epoch_stats().snapshot()
            for i in range(queries // 2):
                device = i % DEVICES
                assert table.point_query((device,), (0,)) is not None
                assert len(table.range_query((device,))) >= MSGS
            delta = table.epoch_stats().diff(before)
            assert delta.version_refs == queries
            assert delta.version_unrefs == queries
            assert delta.pins_entered == queries
            assert delta.pins_exited == queries
            assert delta.versions_published == 0
            assert delta.reclaimed_while_pinned == 0

        probe(40)
        table.split_shard(table.shard_of_key((0,)))
        probe(40)

        # Across the whole test the registry stayed balanced: every pin
        # exited, and the two split publishes reclaimed both old epochs.
        stats = table.epoch_stats()
        assert stats.pins_entered == stats.pins_exited
        assert stats.versions_published == 3  # initial + cutover + final
        assert stats.versions_reclaimed == 2
