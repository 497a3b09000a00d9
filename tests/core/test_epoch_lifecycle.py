"""Unit tests for the run lifecycle (repro.core.epoch).

Every pin is one Ref on the lifecycle's current version node, built from
the collector its owner attached (:class:`FakeVersionedList` here, the
index's composed-version collector in production).
"""

import gc

import pytest

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.epoch import RunLifecycle, RunListVersion
from repro.core.index import UmziConfig, UmziIndex
from repro.core.levels import LevelConfig
from repro.core.query import RangeScanQuery
from repro.core.runlist import RunList
from repro.storage.hierarchy import BlockNotFoundError
from repro.storage.metrics import EpochStats, ReadIntent

from tests.conftest import make_entries, key_of

DEF = i1_definition()


def build_index(runs=4, per_run=10, name="ep"):
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=8, size_ratio=4)
    index = UmziIndex(
        DEF,
        config=UmziConfig(name=name, levels=levels, data_block_bytes=2048),
    )
    for gid in range(runs):
        index.add_groomed_run(
            make_entries(DEF, range(gid * per_run, (gid + 1) * per_run),
                         gid * per_run + 1),
            gid, gid,
        )
    return index


class FakeRun:
    """Minimal stand-in: the lifecycle only reads ``run_id``."""

    def __init__(self, run_id):
        self.run_id = run_id


class FakeVersionedList:
    """A mutable published run set with an attached version collector.

    Mirrors what :class:`UmziIndex` wires up: every mutation calls
    ``note_publish`` (which marks the lifecycle's current version node
    dirty; the next pin or retire rebuilds it through :meth:`collect`).
    """

    def __init__(self, lifecycle):
        self.runs = []
        self.lifecycle = lifecycle
        lifecycle.attach_collector(self.collect)

    def collect(self):
        return RunListVersion(
            version_id=self.lifecycle.version_seq,
            groomed=tuple(self.runs),
            post_groomed=(),
            watermark=0,
        )

    def add(self, run):
        self.runs = self.runs + [run]
        self.lifecycle.note_publish()

    def remove(self, run_id):
        self.runs = [r for r in self.runs if r.run_id != run_id]
        self.lifecycle.note_publish()


def versioned(*run_ids):
    """A fresh lifecycle whose attached collector publishes ``run_ids``."""
    stats = EpochStats()
    lifecycle = RunLifecycle(stats)
    lists = FakeVersionedList(lifecycle)
    for run_id in run_ids:
        lists.add(FakeRun(run_id))
    return stats, lifecycle, lists


class TestRunLifecycleUnit:
    def test_retire_unpinned_reclaims_immediately(self):
        stats, lifecycle, lists = versioned("r1")
        freed = []
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == ["r1"]
        assert stats.runs_retired == stats.runs_reclaimed == 1
        assert stats.reclaims_deferred == 0
        assert lifecycle.retired_backlog() == 0

    def test_retire_pinned_defers_until_release(self):
        stats, lifecycle, lists = versioned("r1")
        freed = []
        pin = lifecycle.pin()
        assert lifecycle.is_pinned("r1")
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == []  # parked behind the pinned version
        assert stats.reclaims_deferred == 1
        assert lifecycle.retired_backlog() == 1
        pin.release()
        assert freed == ["r1"]
        assert stats.runs_reclaimed == 1
        assert stats.reclaimed_while_pinned == 0
        assert lifecycle.retired_backlog() == 0

    def test_overlapping_pins_block_until_last_exit(self):
        _stats, lifecycle, lists = versioned("r1")
        freed = []
        pin_a = lifecycle.pin()
        pin_b = lifecycle.pin()
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        pin_a.release()
        assert freed == []  # pin_b still holds the version
        pin_b.release()
        assert freed == ["r1"]

    def test_release_is_idempotent(self):
        stats, lifecycle, _lists = versioned("r1")
        pin = lifecycle.pin()
        pin.release()
        pin.release()
        assert stats.pins_entered == stats.pins_exited == 1
        assert stats.version_refs == stats.version_unrefs == 1

    def test_pin_after_retire_cannot_resurrect(self):
        """A pin taken after retirement does not defer the (already
        executed) reclaim -- retired runs are gone from the published
        lists, so the new version simply does not contain them."""
        _stats, lifecycle, lists = versioned("r1")
        freed = []
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        pin = lifecycle.pin()
        assert freed == ["r1"]
        assert pin.runs == ()
        assert not lifecycle.is_pinned("r1")
        pin.release()

    def test_release_during_gc_parks_and_defers_hook(self):
        """A release fired while the cyclic collector runs must neither
        take locks nor run reclaims/hooks inline (the interrupted thread
        may hold any storage lock); it parks and drains on the next op."""
        import repro.core.epoch as epoch_mod

        stats, lifecycle, lists = versioned("r1")
        freed, hooked = [], []
        pin = lifecycle.pin()
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        epoch_mod._gc_active.flag = True  # simulate: collector running
        try:
            lifecycle.release(pin, after=lambda: hooked.append(1))
            assert freed == [] and hooked == []  # parked, nothing inline
            assert lifecycle._pending_releases
        finally:
            epoch_mod._gc_active.flag = False
        # Next lifecycle operation drains: hook runs, the version dies,
        # the reclaim unblocks.
        other = lifecycle.pin()
        assert hooked == [1] and freed == ["r1"]
        assert lifecycle.live_version_count() == 1
        other.release()
        assert stats.pins_entered == stats.pins_exited == 2

    def test_counters_are_monotonic(self):
        stats, lifecycle, lists = versioned()
        observed = []
        for i in range(5):
            lists.add(FakeRun(f"r{i}"))
            pin = lifecycle.pin()
            lists.remove(f"r{i}")
            lifecycle.retire(f"r{i}", lambda: None)
            pin.release()
            observed.append((stats.runs_retired, stats.runs_reclaimed))
        assert observed == sorted(observed)
        assert observed[-1] == (5, 5)

    def test_run_published_after_pin_is_not_covered(self):
        """A live pin defers only the runs its version contains: a run
        published and unlinked after the pin was taken frees inline."""
        stats, lifecycle, lists = versioned("r1")
        freed = []
        pin = lifecycle.pin()             # version {r1}
        lists.add(FakeRun("r2"))
        lists.remove("r2")
        lifecycle.retire("r2", lambda: freed.append("r2"))
        assert freed == ["r2"]
        assert stats.reclaims_deferred == 0
        assert not lifecycle.is_pinned("r2")
        assert lifecycle.is_pinned("r1")
        pin.release()

    def test_pin_of_empty_version_costs_one_ref(self):
        stats, lifecycle, _lists = versioned()
        pin = lifecycle.pin()
        assert pin.runs == ()
        assert pin.version.candidates() == []
        pin.release()
        assert stats.version_refs == stats.version_unrefs == 1
        assert lifecycle.live_version_count() == 1

    def test_parked_release_drains_on_next_retire(self):
        """A finalizer-parked release is applied by the next retire, so
        that retire sees the released version as dead and frees inline."""
        import repro.core.epoch as epoch_mod

        stats, lifecycle, lists = versioned("r1")
        freed, hooked = [], []
        pin = lifecycle.pin()
        epoch_mod._gc_active.flag = True
        try:
            lifecycle.release(pin, after=lambda: hooked.append(1))
        finally:
            epoch_mod._gc_active.flag = False
        assert hooked == []
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert hooked == [1] and freed == ["r1"]
        assert stats.reclaims_deferred == 0
        assert stats.version_refs == stats.version_unrefs == 1


class TestRunListPublication:
    def test_every_mutation_publishes_a_version(self):
        index = build_index(runs=0)
        run_list = index.run_lists[Zone.GROOMED]
        assert run_list.version == 0
        index.add_groomed_run(make_entries(DEF, range(5), 1), 0, 0)
        assert run_list.version == 1
        version, runs = run_list.published()
        assert version == 1 and len(runs) == 1
        assert index.hierarchy.stats.epochs.versions_published >= 1

    def test_snapshot_is_the_published_tuple(self):
        run_list = RunList("t")
        assert run_list.snapshot() == []
        run = FakeRun("a")
        # RunList only needs run_id on this path.
        run_list.push_front(run)
        snap = run_list.snapshot()
        run_list.remove("a")
        assert snap == [run]           # old snapshot unaffected
        assert run_list.snapshot() == []


class TestIndexEpochIntegration:
    def test_evolve_defers_deletion_while_snapshot_pinned(self):
        index = build_index(runs=4)
        groomed_before = index.run_lists[Zone.GROOMED].snapshot()
        assert len(groomed_before) == 4
        with index.snapshot_view() as view:
            query = RangeScanQuery(equality_values=(12,))
            before = view.range_scan(query)
            assert len(before) == 1
            # Evolve covers every groomed run: step 3 unlinks them all.
            entries = make_entries(DEF, range(40), 1, Zone.POST_GROOMED, 100)
            result = index.evolve(1, entries, 0, 3)
            assert len(result.collected_run_ids) == 4
            assert index.run_lists[Zone.GROOMED].snapshot() == []
            # ... but their blocks must survive while the view pins them.
            assert index.lifecycle.retired_backlog() == 4
            for run in groomed_before:
                for block_id in run.all_block_ids():
                    index.hierarchy.read(block_id)  # must not raise
            after = view.range_scan(query)
            assert [e.rid for e in after] == [e.rid for e in before]
        # Pin released: the deferred deletions drain.
        assert index.lifecycle.retired_backlog() == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(groomed_before[0].data_block_id(0))

    def test_unpinned_evolve_deletes_immediately(self):
        index = build_index(runs=2)
        groomed = index.run_lists[Zone.GROOMED].snapshot()
        entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
        index.evolve(1, entries, 0, 1)
        assert index.lifecycle.retired_backlog() == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(groomed[0].data_block_id(0))

    def test_merge_defers_input_deletion_while_pinned(self):
        levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                             max_runs_per_level=2, size_ratio=2)
        index = UmziIndex(
            DEF, config=UmziConfig(name="ep-mg", levels=levels,
                                   data_block_bytes=2048),
        )
        for gid in range(2):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, (gid + 1) * 10),
                             gid * 10 + 1),
                gid, gid,
            )
        inputs = index.run_lists[Zone.GROOMED].snapshot()
        with index.snapshot_view() as view:
            results = index.run_maintenance()
            assert results, "fixture must trigger a merge"
            assert index.lifecycle.retired_backlog() > 0
            hits = view.range_scan(RangeScanQuery(equality_values=(3,)))
            assert len(hits) == 1
        assert index.lifecycle.retired_backlog() == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(inputs[0].data_block_id(0))

    def test_snapshot_view_ignores_later_writes(self):
        index = build_index(runs=2)
        with index.snapshot_view() as view:
            missing = RangeScanQuery(equality_values=(25,))
            assert view.range_scan(missing) == []
            index.add_groomed_run(make_entries(DEF, range(20, 30), 100), 2, 2)
            assert view.range_scan(missing) == []          # pinned version
        assert len(index.scan((25,), (25,), (25,))) == 1    # live index sees it

    def test_query_version_ids_advance_with_publications(self):
        index = build_index(runs=1)
        v1 = index._collect_version()
        index.add_groomed_run(make_entries(DEF, range(10, 20), 20), 1, 1)
        v2 = index._collect_version()
        assert isinstance(v1, RunListVersion)
        assert v2.version_id > v1.version_id
        assert len(v2.candidates()) == len(v1.candidates()) + 1

class TestCachePinAwareness:
    def test_purge_skips_pinned_runs(self):
        index = build_index(runs=2)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        with index.snapshot_view():
            assert index.cache.purge_run(run) == 0
            assert index.hierarchy.stats.epochs.eviction_pin_skips >= 1
            assert index.cache.is_run_cached(run)
        # No pins: the purge proceeds.
        assert index.cache.purge_run(run) > 0

    def test_release_after_query_skips_runs_pinned_by_others(self):
        index = build_index(runs=2)
        # Force every groomed level purged so release_after_query would
        # normally drop the touched blocks.
        index.cache.set_cache_level(-1)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        index.cache.load_run(run)
        with index.snapshot_view():
            skips_before = index.hierarchy.stats.epochs.eviction_pin_skips
            index.cache.release_after_query([run])
            assert (
                index.hierarchy.stats.epochs.eviction_pin_skips
                == skips_before + 1
            )
            assert index.cache.is_run_cached(run)
        index.cache.release_after_query([run])
        assert not index.cache.is_run_cached(run)


class TestPurgePassUnderPins:
    def test_purge_pass_returns_instead_of_spinning_on_pinned_level(self):
        """Regression: a purge pass whose candidate runs are all pinned
        must give up and retry later, not busy-loop (purge_run's pin skip
        used to count as progress) nor falsely decrement the level."""
        index = build_index(runs=3, per_run=20)
        runs = index.run_lists[Zone.GROOMED].snapshot()
        # Bound the SSD so utilization sits above the high watermark.
        used = index.hierarchy.ssd.used_bytes
        index.hierarchy.ssd.capacity_bytes = int(used / 0.95)
        with index.snapshot_view():
            index.cache.maintain()  # must return promptly, not busy-loop
            # The pinned runs' blocks all survived the pass.
            assert all(index.cache.is_run_cached(run) for run in runs)
            assert index.hierarchy.stats.epochs.eviction_pin_skips > 0
        # Pins gone: the same pass now makes real progress.
        index.cache.maintain()
        assert index.hierarchy.ssd.utilization() < index.cache.high_watermark
        assert any(not index.cache.is_run_cached(run) for run in runs)

    @pytest.mark.timeout(60)
    def test_empty_run_does_not_wedge_purge_pass(self):
        """A zero-data-block persisted run is 'cached' vacuously and purges
        nothing; the purge pass must not loop on it forever when the SSD
        stays above the high watermark (header blocks are never purged)."""
        index = build_index(runs=2, per_run=10)
        index.add_groomed_run([], 2, 2)  # empty persisted run at level 0
        # Purge everything once so only header blocks remain, then bound
        # the capacity so those alone keep utilization above the watermark.
        for run in index.run_lists[Zone.GROOMED].snapshot():
            index.cache.purge_run(run)
        headers_only = index.hierarchy.ssd.used_bytes
        index.cache.load_run(index.run_lists[Zone.GROOMED].snapshot()[1])
        index.hierarchy.ssd.capacity_bytes = int(headers_only / 0.9) + 1
        index.cache.maintain()  # must terminate
        assert index.hierarchy.ssd.utilization() >= index.cache.high_watermark


class TestAbandonedIterators:
    def test_abandoned_iterator_releases_its_pin(self):
        """Regression (ISSUE 4 satellite): epoch exit and purged-block
        release must fire for iterators dropped mid-stream."""
        index = build_index(runs=3, per_run=10)
        iterator = index.range_scan_iter(RangeScanQuery(equality_values=(12,)))
        next(iterator)
        assert index.lifecycle.pinned_run_ids()  # mid-scan: pinned
        del iterator
        gc.collect()
        assert index.lifecycle.pinned_run_ids() == []
        stats = index.hierarchy.stats.epochs
        assert stats.pins_entered == stats.pins_exited

    def test_never_started_iterator_releases_on_gc(self):
        index = build_index(runs=2)
        iterator = index.range_scan_iter(RangeScanQuery(equality_values=(3,)))
        assert index.lifecycle.pinned_run_ids()
        del iterator
        gc.collect()
        assert index.lifecycle.pinned_run_ids() == []

    def test_abandoned_iterator_unblocks_reclamation(self):
        index = build_index(runs=2)
        iterator = index.range_scan_iter(RangeScanQuery(equality_values=(3,)))
        next(iterator)
        entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
        index.evolve(1, entries, 0, 1)
        assert index.lifecycle.retired_backlog() > 0
        iterator.close()
        assert index.lifecycle.retired_backlog() == 0

    def test_exhausted_iterator_releases_inline(self):
        index = build_index(runs=2)
        list(index.range_scan_iter(RangeScanQuery(equality_values=(3,))))
        assert index.lifecycle.pinned_run_ids() == []

    def test_abandoned_iterator_releases_purged_blocks(self):
        """The documented leak: purged blocks pulled in by a scan must be
        released even when the iterator never runs to completion."""
        index = build_index(runs=2, per_run=30)
        index.cache.set_cache_level(-1)  # everything purged
        runs = index.run_lists[Zone.GROOMED].snapshot()
        run = next(r for r in runs if r.min_groomed_id == 0)
        iterator = index.range_scan_iter(RangeScanQuery(equality_values=(5,)))
        next(iterator)
        # The scan warmed purged blocks through the QUERY read path.
        del iterator
        gc.collect()
        # finally ran: on_query_done released the transient blocks.
        assert not index.cache.is_run_cached(run)
        assert index.lifecycle.pinned_run_ids() == []


class TestVersionSetLifecycle:
    """O(1) pins and version-chain reclamation."""

    def test_exactly_two_refcount_ops_per_query_any_run_count(self):
        """The countable invariant: one Ref at pin, one Unref at release,
        independent of how many runs the pinned version contains."""
        for num_runs in (1, 4, 8):
            index = build_index(runs=num_runs)
            stats = index.hierarchy.stats.epochs
            before = stats.snapshot()
            for k in range(10):
                index.lookup((k,), (k,))
            delta = stats.diff(before)
            assert delta.version_refs == 10
            assert delta.version_unrefs == 10

    def test_out_of_order_unref_chain_reclamation(self):
        """A long-lived scan pins an old version; newer versions come and
        go (their Unrefs arrive before the old pin's).  Each superseded
        version dies on its last Unref, but runs reachable from the
        still-pinned old version stay parked until IT releases."""
        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        lists.add(FakeRun("r1"))
        old_pin = lifecycle.pin()          # pins version {r1}
        lists.add(FakeRun("r2"))
        mid_pin = lifecycle.pin()          # pins {r1, r2}
        lists.add(FakeRun("r3"))
        new_pin = lifecycle.pin()          # pins {r1, r2, r3}
        assert lifecycle.live_version_count() == 3

        # Remove r1 from the published set and retire it: every live
        # version still contains it, so it parks.
        freed = []
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == [] and lifecycle.retired_backlog() == 1

        # Out-of-order exits: the newest readers leave first.  Their
        # versions die (reclaimed), but r1 stays parked behind old_pin.
        new_pin.release()
        mid_pin.release()
        assert stats.versions_reclaimed >= 2
        assert freed == []
        assert lifecycle.is_pinned("r1")
        # The last (oldest) reader exits; now no live version covers r1.
        old_pin.release()
        assert freed == ["r1"]
        assert lifecycle.retired_backlog() == 0
        assert stats.version_refs == stats.version_unrefs == 3

    def test_retired_run_freed_iff_no_live_version_contains_it(self):
        """The versionset reclamation rule, stated directly: a retired
        run's free fires exactly when the last live version containing it
        dies -- not sooner, not later."""
        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        lists.add(FakeRun("a"))
        lists.add(FakeRun("b"))
        pin_ab = lifecycle.pin()           # version {a, b}
        lists.remove("a")
        pin_b = lifecycle.pin()            # version {b}
        freed = []
        lifecycle.retire("a", lambda: freed.append("a"))
        # {a, b} is still live (pin_ab): a must not be freed ...
        assert freed == []
        # ... and releasing the pin whose version does NOT contain a
        # changes nothing.
        pin_b.release()
        assert freed == []
        pin_ab.release()
        assert freed == ["a"]

    def test_current_version_implicit_ref_does_not_block_eviction(self):
        """Every live run is in the current version; only versions a
        query actually refs may report runs as pinned, or the cache could
        never evict anything."""
        index = build_index(runs=2)
        run = index.run_lists[Zone.GROOMED].snapshot()[0]
        assert not index.lifecycle.is_pinned(run.run_id)
        assert index.lifecycle.pinned_run_ids() == []
        assert index.cache.purge_run(run) > 0  # eviction proceeds

    def test_purge_skips_runs_reachable_from_old_live_version(self):
        """A run evolved out of the *current* version must still refuse to
        purge while an older pinned version reaches it."""
        index = build_index(runs=2)
        groomed = index.run_lists[Zone.GROOMED].snapshot()
        with index.snapshot_view():
            entries = make_entries(DEF, range(20), 1, Zone.POST_GROOMED, 100)
            index.evolve(1, entries, 0, 1)
            # Gone from the current version, reachable from the pinned one.
            assert index.run_lists[Zone.GROOMED].snapshot() == []
            for run in groomed:
                assert index.cache.purge_run(run) == 0
            assert index.hierarchy.stats.epochs.eviction_pin_skips >= 2

    def test_post_groomed_lookup_takes_one_version_pin(self, monkeypatch):
        """The post-groomer's lookup pins the current version like any
        query -- one Ref, one Unref -- and a post-groomed-zone merge that
        retires a run under that open pin defers the reclaim until the
        pin is released."""
        levels = LevelConfig(groomed_levels=2, post_groomed_levels=2,
                             max_runs_per_level=2, size_ratio=2)
        index = UmziIndex(
            DEF, config=UmziConfig(name="ep-pg", levels=levels,
                                   data_block_bytes=2048),
        )
        for gid in range(2):
            keys = range(gid * 10, (gid + 1) * 10)
            index.add_groomed_run(make_entries(DEF, keys, gid * 10 + 1),
                                  gid, gid)
            index.evolve(
                gid + 1,
                make_entries(DEF, keys, gid * 10 + 1, Zone.POST_GROOMED,
                             100 + gid),
                gid, gid,
            )
        stats = index.hierarchy.stats.epochs
        eq, sort = key_of(DEF, 3)

        before = stats.snapshot()
        assert index.post_groomed_lookup(eq, sort) is not None
        delta = stats.diff(before)
        assert delta.version_refs == 1 and delta.version_unrefs == 1

        post_groomed = index.run_lists[Zone.POST_GROOMED].snapshot()
        assert len(post_groomed) == 2
        assert index.needs_merge(), "fixture must trigger a merge"
        observed = {}
        make_executor = index._pinned_executor

        def merge_under_pin(runs):
            # Runs inside the open post-groom pin, before its search.
            index.run_maintenance()
            observed["merged"] = index.run_lists[Zone.POST_GROOMED].snapshot()
            observed["backlog"] = index.lifecycle.retired_backlog()
            for run in post_groomed:
                index.hierarchy.read(run.data_block_id(0))  # must not raise
            return make_executor(runs)

        monkeypatch.setattr(index, "_pinned_executor", merge_under_pin)
        hit = index.post_groomed_lookup(eq, sort)
        assert hit is not None and hit.rid.zone is Zone.POST_GROOMED
        assert {r.run_id for r in observed["merged"]}.isdisjoint(
            r.run_id for r in post_groomed
        )
        assert observed["backlog"] == len(post_groomed)
        assert index.lifecycle.retired_backlog() == 0
        assert stats.reclaimed_while_pinned == 0
        with pytest.raises(BlockNotFoundError):
            index.hierarchy.read(post_groomed[0].data_block_id(0))

    def test_live_version_chain_stays_bounded(self):
        """Chain length tracks reader concurrency, not publication count:
        unpinned superseded versions die at the next publication."""
        index = build_index(runs=1)
        for gid in range(1, 6):
            index.add_groomed_run(
                make_entries(DEF, range(gid * 10, gid * 10 + 10),
                             gid * 10 + 1),
                gid, gid,
            )
            index.lookup((gid * 10,), (gid * 10,))
            assert index.lifecycle.live_version_count() == 1

    def test_publication_never_runs_reclaims_or_hooks_inline(self):
        """Regression (review finding): ``note_publish`` fires inside
        ``RunList._publish_locked`` -- while the mutator still holds the
        run list's mutation lock -- so a publication that kills a
        superseded version must NOT execute the reclaims or parked
        release hooks it unblocks; they drain on the next lifecycle
        operation that runs unlocked."""
        import repro.core.epoch as epoch_mod

        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        lists.add(FakeRun("r1"))
        pin = lifecycle.pin()      # refs version {r1}
        freed, hooked = [], []
        lists.remove("r1")
        lifecycle.retire("r1", lambda: freed.append("r1"))
        assert freed == []                      # covered by the pinned V1
        # The pin's release arrives from a GC finalizer: it parks.
        epoch_mod._gc_active.flag = True
        try:
            lifecycle.release(pin, after=lambda: hooked.append(1))
        finally:
            epoch_mod._gc_active.flag = False
        # A publication (mutator holds its run-list mutation lock here)
        # must leave both the parked release and the reclaim untouched.
        lists.add(FakeRun("r2"))
        assert freed == [] and hooked == []
        # The next unlocked lifecycle operation drains everything.
        assert lifecycle.retired_backlog() == 0
        assert freed == ["r1"] and hooked == [1]


class TestVersionCoalescing:
    """Deferred current-node rebuilds (ISSUE 9 satellite).

    ``note_publish`` only marks the current version node dirty; the
    rebuild happens at the first pin/retire that needs it, so a burst of
    N publications costs one rebuild and N-1 land in
    ``EpochStats.versions_coalesced``.
    """

    def test_publication_burst_rebuilds_once(self):
        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        for i in range(5):
            lists.add(FakeRun(f"r{i}"))
        assert stats.versions_published == 5
        assert stats.versions_coalesced == 0  # nothing rebuilt yet
        pin = lifecycle.pin()  # first consumer: one rebuild
        assert stats.versions_coalesced == 4
        assert {run.run_id for run in pin.runs} == {f"r{i}" for i in range(5)}
        pin.release()

    def test_single_publication_coalesces_nothing(self):
        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        lists.add(FakeRun("r0"))
        pin = lifecycle.pin()
        assert stats.versions_coalesced == 0
        pin.release()
        lists.add(FakeRun("r1"))
        pin = lifecycle.pin()
        assert stats.versions_coalesced == 0  # 1 publish -> 1 rebuild
        pin.release()

    def test_retire_also_folds_dirty_publications(self):
        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        for i in range(3):
            lists.add(FakeRun(f"r{i}"))
        lists.remove("r0")  # 4 publications total, none built
        freed = []
        lifecycle.retire("r0", lambda: freed.append("r0"))
        # The maintenance-side refresh folded all 4 into one rebuild --
        # and the fresh node no longer covers r0, so it freed inline.
        assert stats.versions_coalesced == 3
        assert freed == ["r0"]

    def test_queries_never_observe_stale_versions(self):
        stats = EpochStats()
        lifecycle = RunLifecycle(stats)
        lists = FakeVersionedList(lifecycle)
        lists.add(FakeRun("a"))
        pin = lifecycle.pin()
        pin.release()
        lists.add(FakeRun("b"))  # dirty: current node still lacks b
        pin = lifecycle.pin()
        assert {run.run_id for run in pin.runs} == {"a", "b"}
        pin.release()


def post_groomed_index(num_runs, name="pg", keys_per_run=10):
    """An index whose groomed runs ``0..num_runs-1`` have each been evolved
    into their own post-groomed run (keys restart at 0 in every run, so
    later runs hold newer versions of the same keys)."""
    levels = LevelConfig(groomed_levels=2, post_groomed_levels=2,
                         max_runs_per_level=8, size_ratio=2)
    index = UmziIndex(
        DEF, config=UmziConfig(name=name, levels=levels,
                               data_block_bytes=2048),
    )
    for gid in range(num_runs):
        ts = gid * keys_per_run + 1
        index.add_groomed_run(
            make_entries(DEF, range(keys_per_run), ts), gid, gid
        )
        index.evolve(
            gid + 1,
            make_entries(DEF, range(keys_per_run), ts, Zone.POST_GROOMED,
                         100 + gid),
            gid, gid,
        )
    return index


class TestPostGroomedLookup:
    """The post-groomer's zone-restricted lookup on the version pin."""

    @pytest.mark.parametrize("num_runs", [1, 2, 4])
    def test_one_ref_and_one_unref_per_lookup(self, num_runs):
        index = post_groomed_index(num_runs)
        assert len(index.run_lists[Zone.POST_GROOMED].snapshot()) == num_runs
        stats = index.hierarchy.stats.epochs
        before = stats.snapshot()
        for k in (0, 5, 9, 50):  # three hits and one miss
            eq, sort = key_of(DEF, k)
            hit = index.post_groomed_lookup(eq, sort)
            assert (hit is not None) == (k < 10)
        delta = stats.diff(before)
        assert delta.version_refs == delta.version_unrefs == 4
        assert delta.pins_entered == delta.pins_exited == 4
        assert index.lifecycle.pinned_run_ids() == []
        assert index.lifecycle.live_version_count() == 1

    def test_newest_post_groomed_version_wins(self):
        index = post_groomed_index(2)
        eq, sort = key_of(DEF, 3)
        newest = index.post_groomed_lookup(eq, sort)
        assert newest.begin_ts == 14 and newest.rid.block_id == 101
        older = index.post_groomed_lookup(eq, sort, query_ts=13)
        assert older.begin_ts == 4 and older.rid.block_id == 100
        assert index.post_groomed_lookup(eq, sort, query_ts=3) is None

    def test_groomed_only_keys_are_invisible(self):
        index = post_groomed_index(1)
        index.add_groomed_run(make_entries(DEF, range(20, 30), 50), 1, 1)
        eq, sort = key_of(DEF, 25)
        assert index.lookup(eq, sort) is not None
        assert index.post_groomed_lookup(eq, sort) is None

    def test_empty_post_groomed_zone(self):
        index = build_index(runs=2)
        stats = index.hierarchy.stats.epochs
        before = stats.snapshot()
        eq, sort = key_of(DEF, 3)
        assert index.post_groomed_lookup(eq, sort) is None
        delta = stats.diff(before)
        assert delta.version_refs == delta.version_unrefs == 1

    def test_pin_released_when_search_raises(self, monkeypatch):
        index = post_groomed_index(2)
        post_groomed = index.run_lists[Zone.POST_GROOMED].snapshot()

        class Failing:
            def point_lookup(self, _query):
                raise RuntimeError("search failed")

        monkeypatch.setattr(index, "_pinned_executor", lambda runs: Failing())
        stats = index.hierarchy.stats.epochs
        before = stats.snapshot()
        eq, sort = key_of(DEF, 3)
        with pytest.raises(RuntimeError):
            index.post_groomed_lookup(eq, sort)
        delta = stats.diff(before)
        assert delta.version_refs == delta.version_unrefs == 1
        assert index.lifecycle.pinned_run_ids() == []
        for run in post_groomed:
            assert not index.lifecycle.is_pinned(run.run_id)

    def test_lookup_reads_as_maintenance_without_promotion(self):
        index = post_groomed_index(2)
        index.cache.set_cache_level(-1)  # every block only in shared storage
        intents = index.hierarchy.stats.intents
        query_before = intents[ReadIntent.QUERY].snapshot()
        maint_before = intents[ReadIntent.MAINTENANCE].snapshot()
        ssd_before = set(index.hierarchy.ssd.block_ids())
        eq, sort = key_of(DEF, 7)
        assert index.post_groomed_lookup(eq, sort) is not None
        maint = intents[ReadIntent.MAINTENANCE].diff(maint_before)
        assert maint.reads > 0 and maint.promotions == 0
        assert intents[ReadIntent.QUERY].diff(query_before).reads == 0
        assert set(index.hierarchy.ssd.block_ids()) == ssd_before
        assert index.hierarchy.current_read_intent() is ReadIntent.QUERY

    def test_interleaved_publications_keep_the_chain_bounded(self):
        index = post_groomed_index(1)
        for gid in range(1, 5):
            ts = gid * 10 + 1
            index.add_groomed_run(make_entries(DEF, range(10), ts), gid, gid)
            eq, sort = key_of(DEF, gid)
            assert index.post_groomed_lookup(eq, sort) is not None
            index.evolve(
                gid + 1,
                make_entries(DEF, range(10), ts, Zone.POST_GROOMED, 100 + gid),
                gid, gid,
            )
            assert index.lifecycle.live_version_count() == 1
        stats = index.hierarchy.stats.epochs
        assert stats.reclaimed_while_pinned == 0
        assert index.lifecycle.retired_backlog() == 0
