"""Qos integration of online shard split (ISSUE 8).

Two halves:

* the split controller respects the overload stack -- maintenance
  backpressure or an open source breaker aborts a split *before* its
  write cutover with a typed :class:`SplitAborted`, leaving routing,
  data and clocks untouched;
* inside the migration window a successor is not allowed to answer
  degraded (a snapshot-pinned answer could silently miss freshly
  cut-over writes), so an open successor breaker surfaces as a
  :class:`PartialResultError` carrying the partial answer *and the
  serving routing epoch* -- after roll-forward recovery the successor
  owns the slot alone and may serve degraded like any other shard.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.faults.crash import SimulatedCrash, install_crash_schedule
from repro.faults.plan import FaultPlan
from repro.planner import Query
from repro.faults.storage import FaultyTier
from repro.qos.admission import QosConfig
from repro.qos.breaker import BreakerConfig, BreakerState
from repro.qos.errors import PartialResultError
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats
from repro.wildfire.cluster import ShardedTable
from repro.wildfire.engine import ShardConfig
from repro.wildfire.shardmap import successor_side
from repro.wildfire.split import SplitAborted
from repro.wildfire.schema import IndexSpec, TableSchema

DEVICES = 16


def generous_qos(**overrides):
    """Admission that never sheds; a breaker that stays open for ages."""
    defaults = dict(
        rate_per_sim_s=1e12,
        burst=1e6,
        breaker=BreakerConfig(failure_threshold=3, open_ns=10**15),
        release_after=1,
    )
    defaults.update(overrides)
    return QosConfig(**defaults)


def make_qos_table(num_shards=1, qos=None, seed=0):
    def factory(shard_id):
        stats = IOStats()
        tier = FaultyTier(
            FaultPlan(seed=seed + shard_id), run_prefix="iot", stats=stats
        )
        return StorageHierarchy(shared=tier, stats=stats)

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
        qos=qos if qos is not None else generous_qos(),
        hierarchy_factory=factory,
    )


def warm(table):
    table.ingest([(d, 1, d * 10) for d in range(DEVICES)])
    table.run_cycles(4)


def trip(breaker):
    for _ in range(breaker.config.failure_threshold):
        breaker.record_failure()
    assert breaker.state() is BreakerState.OPEN


class TestSplitGate:
    def test_open_source_breaker_aborts_before_cutover(self):
        table = make_qos_table()
        warm(table)
        trip(table.breaker(0))
        with pytest.raises(SplitAborted):
            table.split_shard(0)
        # Nothing happened: fully-old routing, no successors, retryable.
        assert table.routing_epoch() == 0
        assert table.live_shard_ids() == [0]
        # The abort cleared the in-flight state: recovery is a no-op ...
        assert table.recover_split()["resumed"] is False
        # ... and once the breaker is happy again the same split goes
        # through (the gate is advisory backpressure, not a veto forever).
        table.breaker(0)._state = BreakerState.CLOSED
        assert table.split_shard(0)["phase"] == "done"

    def test_maintenance_backpressure_aborts_before_cutover(self):
        table = make_qos_table()
        warm(table)
        # Any open breaker throttles the scheduler cluster-wide.
        trip(table.breaker(0))
        assert table.scheduler.allow_maintenance() is False
        with pytest.raises(SplitAborted):
            table.split_shard(0)
        assert table.routing_epoch() == 0


class TestPartialResultsInWindow:
    def crash_into_migration_window(self, table):
        """Park the table mid-split: copied, but final map unpublished."""
        plan = FaultPlan(
            seed=0, crash_triggers={"split.pre_publish": frozenset({1})}
        )
        with install_crash_schedule(plan.crash_schedule()):
            with pytest.raises(SimulatedCrash):
                table.split_shard(0)
        assert table.routing_epoch() == 1  # stuck on the migrating epoch

    def successor_for(self, table, device):
        route = table.maps.current.route_of(table.key_hash((device,)))
        assert route.state == "migrating"
        side = successor_side(table.key_hash((device,)))
        return route.right if side else route.left

    def test_successor_brownout_surfaces_epoch_tagged_partial(self):
        table = make_qos_table()
        warm(table)
        self.crash_into_migration_window(table)

        device = 0
        successor = self.successor_for(table, device)
        trip(table.breaker(successor))

        with pytest.raises(PartialResultError) as exc_info:
            table.point_query((device,), (1,))
        error = exc_info.value
        assert error.failed_shards == (successor,)
        assert error.epoch == 1  # tagged with the serving routing epoch
        # The old primary's authoritative answer rode along.
        assert len(error.partial) == 1
        assert error.partial[0].values == (device, 1, device * 10)
        # Range queries through the same window are tagged identically.
        with pytest.raises(PartialResultError) as exc_info:
            table.range_query((device,))
        assert exc_info.value.epoch == 1
        assert exc_info.value.failed_shards == (successor,)
        # No degraded read was attempted for the successor: its snapshot
        # could miss post-cutover writes, so partials are the contract.
        assert table.qos_stats().degraded_reads == 0

    def test_after_rollforward_successor_serves_degraded(self):
        table = make_qos_table()
        warm(table)
        self.crash_into_migration_window(table)
        device = 0
        successor = self.successor_for(table, device)
        trip(table.breaker(successor))

        outcome = table.recover_split()
        assert outcome["outcome"] == "rolled_forward"
        assert table.routing_epoch() == 2

        # The successor now owns the slot alone; with its breaker still
        # open it degrades to the pinned snapshot (which holds the copied
        # data) instead of erroring -- the normal ISSUE 7 contract.
        record = table.point_query((device,), (1,))
        assert record is not None and record.values == (device, 1, device * 10)
        assert table.qos_stats().degraded_reads > 0


class TestMergeWindowPartials:
    """The merge's fused target owns fresh writes: it never degrades."""

    def crash_into_merge_window(self, table):
        """Split shard 0, then park its merge back: copied, unpublished."""
        left, right = table.split_shard(0)["successors"]
        plan = FaultPlan(
            seed=0, crash_triggers={"merge.pre_publish": frozenset({1})}
        )
        with install_crash_schedule(plan.crash_schedule()):
            with pytest.raises(SimulatedCrash):
                table.merge_shards(left, right)
        route = table.maps.current.route_of(table.key_hash((0,)))
        assert route.state == "merging"
        return route.primary

    def test_fused_target_brownout_surfaces_epoch_tagged_partial(self):
        table = make_qos_table()
        warm(table)
        target = self.crash_into_merge_window(table)
        merging_epoch = table.routing_epoch()
        assert merging_epoch == 3  # split cutover, split final, merge cutover
        trip(table.breaker(target))

        with pytest.raises(PartialResultError) as exc_info:
            table.point_query((0,), (1,))
        assert exc_info.value.failed_shards == (target,)
        assert exc_info.value.epoch == merging_epoch
        # The old successor's authoritative answer rode along.
        assert [r.values for r in exc_info.value.partial] == [(0, 1, 0)]

        with pytest.raises(PartialResultError) as exc_info:
            table.range_query((0,))
        assert exc_info.value.failed_shards == (target,)
        assert exc_info.value.epoch == merging_epoch
        assert table.qos_stats().degraded_reads == 0


class TestTypedReadsSkipBreakerPrecheck:
    def test_typed_query_answers_from_local_tiers_point_degrades(self):
        table = make_qos_table()
        warm(table)
        query = Query(equalities=(("device", 3),))
        expected = table.query(query)  # also warms the local tiers
        assert expected == [(3, 1, 30)]
        trip(table.breaker(0))

        # Typed reads never degrade and skip the cluster's breaker
        # pre-check: the warm shard answers from its local tiers.
        assert table.query(query) == expected
        assert table.qos_stats().degraded_reads == 0

        # A point read on the same shard sees the open breaker and
        # degrades to the pinned snapshot.
        record = table.point_query((3,), (1,))
        assert record is not None and record.values == (3, 1, 30)
        assert table.qos_stats().degraded_reads == 1
