"""The :class:`UmziIndex` facade -- one index instance per table shard.

Ties together the run lists, merge and evolve controllers, cache manager,
metadata journal and query executor, and implements the candidate-run
collection whose ordering makes lock-free queries correct against
concurrent evolve operations.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.builder import DEFAULT_DATA_BLOCK_BYTES, RunBuilder
from repro.core.cache import CacheManager
from repro.core.definition import IndexDefinition
from repro.core.entry import IndexEntry, RID, Zone
from repro.core.epoch import RunLifecycle, RunListVersion
from repro.core.evolve import EvolveController, EvolveResult, Watermark
from repro.core.ids import RunIdAllocator, parse_run_seq
from repro.core.journal import MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.merge import MergeController, MergeResult
from repro.core.query import (
    MAX_QUERY_TS,
    PointLookup,
    QueryExecutor,
    RangeScanQuery,
    ReconcileStrategy,
)
from repro.core.recovery import RecoveredState, recover_index_state
from repro.core.run import IndexRun
from repro.core.runlist import RunList
from repro.core.stats import IndexStats, LevelStats
from repro.core.encoding import KeyValue
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent


class SnapshotPin:
    """A pinned run-list version plus an executor that queries it.

    Handle form of :meth:`UmziIndex.snapshot_view` for holders whose
    lifetime is not lexical: the pin keeps every run of the version alive
    (cache eviction skips pinned runs, physical frees defer) until
    :meth:`release` -- call it exactly once; extra releases are no-ops.
    """

    def __init__(self, pin, executor: QueryExecutor) -> None:
        self._pin = pin
        self.executor = executor
        self._released = False

    @property
    def runs(self):
        return self._pin.runs

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._pin.release()

    def __enter__(self) -> "SnapshotPin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class UmziConfig:
    """Tunables of one index instance."""

    name: str = "umzi"
    levels: LevelConfig = field(default_factory=LevelConfig)
    data_block_bytes: int = DEFAULT_DATA_BLOCK_BYTES
    reconcile: ReconcileStrategy = ReconcileStrategy.PRIORITY_QUEUE
    use_synopsis: bool = True
    use_offset_array: bool = True
    # Extension beyond the paper: per-key (instead of batch-granularity)
    # synopsis pruning for batched lookups.  See QueryExecutor.
    per_key_batch_pruning: bool = False
    # Extension beyond the paper: per-run Bloom filters for point-lookup
    # run pruning (None = off; otherwise the false-positive rate).
    bloom_fpr: Optional[float] = None
    cache_high_watermark: float = 0.85
    cache_low_watermark: float = 0.60
    release_purged_blocks_after_query: bool = True


class UmziIndex:
    """A multi-version, multi-zone LSM index over one table shard."""

    def __init__(
        self,
        definition: IndexDefinition,
        hierarchy: Optional[StorageHierarchy] = None,
        config: Optional[UmziConfig] = None,
    ) -> None:
        self.definition = definition
        self.config = config if config is not None else UmziConfig()
        self.hierarchy = hierarchy if hierarchy is not None else StorageHierarchy()

        self._run_prefix = f"{self.config.name}-run"
        self.allocator = RunIdAllocator(prefix=self._run_prefix)
        # Version-set run lifecycle: queries pin immutable run-list
        # versions; maintenance retires unlinked runs through it so frees
        # defer until no live version holds them (see repro.core.epoch).
        self.lifecycle = RunLifecycle(self.hierarchy.stats.epochs)
        self.run_lists: Dict[Zone, RunList] = {
            Zone.GROOMED: RunList(
                f"{self.config.name}-groomed",
                on_publish=self.lifecycle.note_publish,
            ),
            Zone.POST_GROOMED: RunList(
                f"{self.config.name}-post-groomed",
                on_publish=self.lifecycle.note_publish,
            ),
        }
        self.watermark = Watermark()
        # Registered AFTER the run lists exist: the lifecycle rebuilds its
        # current version node through this collector, and every pin
        # (executor queries, snapshot_view, post_groomed_lookup) is one
        # Ref on that node.
        self.lifecycle.attach_collector(self._collect_version)
        self.journal = MetadataJournal(
            self.hierarchy, namespace=f"{self.config.name}-meta"
        )
        self.builder = RunBuilder(
            definition, self.hierarchy, self.config.data_block_bytes,
            bloom_fpr=self.config.bloom_fpr,
        )
        self.cache = CacheManager(
            self.config.levels,
            self.hierarchy,
            self.run_lists,
            high_watermark=self.config.cache_high_watermark,
            low_watermark=self.config.cache_low_watermark,
            pin_checker=self.lifecycle.is_pinned,
        )
        self._retention_ts: Optional[int] = None
        # One structure mutex serializes evolve vs merge on this index's
        # run lists (maintenance-only; queries stay lock-free).
        self._maintenance_mutex = threading.Lock()
        self.merger = MergeController(
            self.config.levels,
            self.builder,
            self.hierarchy,
            self.allocator,
            self.run_lists,
            write_through=self.cache.write_through,
            ancestor_protector=self._is_live_ancestor,
            retention_provider=lambda: self._retention_ts,
            reclaimer=self.lifecycle.retire,
            structure_lock=self._maintenance_mutex,
        )
        self.evolver = EvolveController(
            self.config.levels,
            self.builder,
            self.hierarchy,
            self.allocator,
            self.run_lists,
            self.watermark,
            journal=self.journal,
            write_through=self.cache.write_through,
            ancestor_protector=self._is_live_ancestor,
            reclaimer=self.lifecycle.retire,
            structure_lock=self._maintenance_mutex,
        )
        self.executor = QueryExecutor(
            definition,
            use_synopsis=self.config.use_synopsis,
            use_offset_array=self.config.use_offset_array,
            per_key_batch_pruning=self.config.per_key_batch_pruning,
            on_query_done=(
                self.cache.release_after_query
                if self.config.release_purged_blocks_after_query
                else None
            ),
            lifecycle=self.lifecycle,
        )
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------------------
    # entry construction
    # ------------------------------------------------------------------------------

    def make_entry(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
        include_values: Sequence[KeyValue],
        begin_ts: int,
        rid: RID,
    ) -> IndexEntry:
        """Validate values against the definition and build one entry."""
        return IndexEntry.create(
            self.definition,
            tuple(equality_values),
            tuple(sort_values),
            tuple(include_values),
            begin_ts,
            rid,
        )

    # ------------------------------------------------------------------------------
    # maintenance operations (paper section 5)
    # ------------------------------------------------------------------------------

    def add_groomed_run(
        self,
        entries: Iterable[IndexEntry],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> IndexRun:
        """Index build after a groom operation (section 5.2).

        Builds a level-0 run (always persisted) over the newly groomed data
        and publishes it at the head of the groomed run list.
        """
        with self._build_lock:
            run = self.builder.build(
                run_id=self.allocator.allocate(Zone.GROOMED),
                entries=entries,
                zone=Zone.GROOMED,
                level=0,
                min_groomed_id=min_groomed_id,
                max_groomed_id=max_groomed_id,
                persisted=True,
                write_through_ssd=self.cache.write_through(0),
            )
            self.run_lists[Zone.GROOMED].push_front(run)
            return run

    def evolve(
        self,
        psn: int,
        entries: Iterable[IndexEntry],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> EvolveResult:
        """Index evolve after a post-groom operation (section 5.4)."""
        return self.evolver.evolve(psn, entries, min_groomed_id, max_groomed_id)

    def evolve_streaming(
        self,
        psn: int,
        new_rid_of,
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> EvolveResult:
        """Zero-decode evolve: stream covered groomed-run blobs, splicing
        each entry's new post-groomed RID via ``new_rid_of(begin_ts)``
        (see :meth:`EvolveController.evolve_streaming`)."""
        return self.evolver.evolve_streaming(
            psn, new_rid_of, min_groomed_id, max_groomed_id
        )

    @property
    def indexed_psn(self) -> int:
        return self.evolver.indexed_psn

    def set_retention_ts(self, retention_ts: Optional[int]) -> None:
        """Set the MVCC retention horizon for future merges.

        Merges drop versions unreachable by any snapshot >= ``retention_ts``
        (each key keeps its newest version at or below the horizon plus all
        newer ones).  ``None`` keeps every version forever.  Time travel
        below the horizon becomes undefined -- callers own that contract.
        """
        if retention_ts is not None and self._retention_ts is not None:
            if retention_ts < self._retention_ts:
                raise ValueError(
                    "retention horizon may only move forward "
                    f"({self._retention_ts} -> {retention_ts})"
                )
        self._retention_ts = retention_ts

    @property
    def retention_ts(self) -> Optional[int]:
        return self._retention_ts

    def needs_merge(self) -> bool:
        return any(
            self.merger.needs_merge(zone)
            for zone in (Zone.GROOMED, Zone.POST_GROOMED)
        )

    def merge_step(self) -> Optional[MergeResult]:
        """Perform at most one pending merge (deterministic mode)."""
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            result = self.merger.merge_step(zone)
            if result is not None:
                return result
        return None

    def run_maintenance(self, max_steps: int = 64) -> List[MergeResult]:
        """Merge until stable in both zones, then a cache pass."""
        results: List[MergeResult] = []
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            results.extend(self.merger.merge_until_stable(zone, max_steps))
        self.cache.maintain()
        return results

    # ------------------------------------------------------------------------------
    # queries (paper section 7)
    # ------------------------------------------------------------------------------

    def range_scan(
        self,
        query: RangeScanQuery,
        strategy: Optional[ReconcileStrategy] = None,
    ) -> List[IndexEntry]:
        return self.executor.range_scan(
            query, strategy if strategy is not None else self.config.reconcile
        )

    def range_scan_iter(self, query: RangeScanQuery):
        """Streaming range scan (priority-queue path); see QueryExecutor."""
        return self.executor.range_scan_iter(query)

    def point_lookup(self, lookup: PointLookup) -> Optional[IndexEntry]:
        return self.executor.point_lookup(lookup)

    def batch_lookup(
        self, lookups: Sequence[PointLookup]
    ) -> List[Optional[IndexEntry]]:
        return self.executor.batch_lookup(lookups)

    # -- convenience wrappers ---------------------------------------------------------

    def lookup(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: int = MAX_QUERY_TS,
    ) -> Optional[IndexEntry]:
        return self.point_lookup(
            PointLookup(tuple(equality_values), tuple(sort_values), query_ts)
        )

    def scan(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: int = MAX_QUERY_TS,
    ) -> List[IndexEntry]:
        return self.range_scan(
            RangeScanQuery(
                tuple(equality_values),
                tuple(sort_lower) if sort_lower is not None else None,
                tuple(sort_upper) if sort_upper is not None else None,
                query_ts,
            )
        )

    # ------------------------------------------------------------------------------
    # candidate-run collection
    # ------------------------------------------------------------------------------

    def _collect_version(self) -> RunListVersion:
        """Snapshot the index for one query as an immutable version.

        Publication-order argument for correctness against a concurrent
        evolve (whose sub-steps are: 1. add post-groomed run, 2. advance
        watermark, 3. remove groomed runs):

        * the groomed list is snapshotted **first**: any groomed run removed
          before this point had its post-groomed coverage published at
          sub-step 1 of the same (earlier) evolve, which therefore precedes
          our later post-groomed snapshot;
        * the watermark is read **before** the post-groomed snapshot: a
          watermark value W was published at sub-step 2, after the run
          covering up to W was added at sub-step 1, so the post-groomed
          snapshot (taken after the watermark read) must contain that
          coverage;
        * groomed runs at or below the watermark are dropped ("automatically
          ignored by queries", section 5.4); remaining overlap between the
          zones yields physical duplicates, which reconciliation removes.

        Each per-list snapshot is one atomic tuple read (see
        :meth:`RunList.snapshot`); the composed version is immutable, and
        when collected through :meth:`RunLifecycle.pin` the whole
        collect-and-register step is atomic against run retirement.
        """
        groomed = self.run_lists[Zone.GROOMED].snapshot()
        watermark_value = self.watermark.value
        post_groomed = self.run_lists[Zone.POST_GROOMED].snapshot()
        visible_groomed = tuple(
            run for run in groomed if run.max_groomed_id > watermark_value
        )
        return RunListVersion(
            version_id=self.lifecycle.version_seq,
            groomed=visible_groomed,
            post_groomed=tuple(post_groomed),
            watermark=watermark_value,
        )

    def _collect_candidate_runs(self) -> List[IndexRun]:
        """Candidate runs, newest first (list view of the current version)."""
        return self._collect_version().candidates()

    def visible_runs(self) -> List[IndexRun]:
        """Public view of the current version's candidate runs (ISSUE 9).

        The access-path planner's statistics layer folds these runs'
        headers into an :class:`~repro.planner.stats.AccessPathSynopsis`
        without decoding an entry; freshness is keyed on
        ``lifecycle.version_seq``, which every publication increments.
        """
        return self._collect_candidate_runs()

    def pin_snapshot(self) -> "SnapshotPin":
        """Pin the current :class:`RunListVersion` for repeatable reads.

        Returns a :class:`SnapshotPin` -- a long-lived handle whose
        executor answers every query from the pinned version, no matter
        how many evolves or merges commit in the meantime; the pin keeps
        the version's runs alive until :meth:`SnapshotPin.release`.
        Callers that want scope semantics should prefer
        :meth:`snapshot_view`; the explicit handle exists for holders
        whose lifetime is not lexical (e.g. the cluster's degraded-read
        mode keeps a pin open for as long as a storage brownout lasts).
        """
        pin = self.lifecycle.pin()
        return SnapshotPin(pin, self._pinned_executor(pin.runs))

    def _pinned_executor(self, runs: Sequence[IndexRun]) -> QueryExecutor:
        """An unpinned executor over runs the caller already holds pinned."""
        return QueryExecutor(
            self.definition,
            collect_runs=lambda: list(runs),
            use_synopsis=self.config.use_synopsis,
            use_offset_array=self.config.use_offset_array,
            per_key_batch_pruning=self.config.per_key_batch_pruning,
        )

    @contextmanager
    def snapshot_view(self) -> Iterator[QueryExecutor]:
        """Scope-bound :meth:`pin_snapshot` (the common case).

        Yields a :class:`QueryExecutor` whose every query answers from the
        pinned version.  (Individual queries outside this scope already pin
        per-query; this is for callers that need *several* queries over one
        consistent snapshot.)
        """
        snapshot = self.pin_snapshot()
        try:
            yield snapshot.executor
        finally:
            snapshot.release()

    def post_groomed_lookup(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
        query_ts: int = MAX_QUERY_TS,
    ) -> Optional[IndexEntry]:
        """Point lookup restricted to the post-groomed portion of the index.

        Used by the post-groomer (paper section 2.1: the post-groom
        operation "utilizes the post-groomed portion of the indexes to
        collect the RIDs of the already post-groomed records that will be
        replaced").  Although it reuses the ordinary query machinery, the
        caller is background maintenance, so the whole lookup runs under a
        ``ReadIntent.MAINTENANCE`` scope: blocks it pulls from purged
        post-groomed levels are not admitted into the SSD cache.

        The lookup races concurrent merges of the post-groomed zone like
        any query does, so it takes the ordinary version pin -- one Ref,
        one Unref -- and searches only that version's post-groomed runs.
        """
        with self.lifecycle.pin() as pin:
            executor = self._pinned_executor(pin.version.post_groomed)
            with self.hierarchy.reading_as(ReadIntent.MAINTENANCE):
                return executor.point_lookup(
                    PointLookup(
                        tuple(equality_values), tuple(sort_values), query_ts
                    )
                )

    def all_runs(self) -> List[IndexRun]:
        """Every run in both lists (no watermark filtering); newest first."""
        return (
            self.run_lists[Zone.GROOMED].snapshot()
            + self.run_lists[Zone.POST_GROOMED].snapshot()
        )

    # ------------------------------------------------------------------------------
    # recovery (paper section 5.5)
    # ------------------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Rebuild run lists and metadata from shared storage.

        Call after :meth:`StorageHierarchy.crash_local_tiers` (or on a fresh
        process pointed at existing shared storage).
        """
        # Resume run-id allocation above every sequence number present in
        # shared storage: a fresh process starts its allocator at 0, and
        # the first post-recovery build would otherwise collide with a
        # surviving namespace (shared storage is append-only).  Scanned
        # before recover_index_state so ids dropped *by* recovery
        # (incomplete/corrupt/superseded) are never handed out again
        # either -- their delete may race a later write.
        max_seq = max(
            (
                parse_run_seq(self._run_prefix, namespace)
                for namespace in self.hierarchy.shared.namespaces()
            ),
            default=-1,
        )
        self.allocator.ensure_at_least(max_seq + 1)
        state = recover_index_state(
            self.definition, self.hierarchy, self._run_prefix, self.journal
        )
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            runs = state.runs_by_zone[zone]
            # Newest first == descending end groomed id.
            runs.sort(key=lambda run: run.max_groomed_id, reverse=True)
            self.run_lists[zone].rebuild(runs)
        if state.checkpoint is not None:
            self.evolver.restore(state.checkpoint)
        self.merger.reset_active_tracking()
        return state

    # ------------------------------------------------------------------------------
    # internals / introspection
    # ------------------------------------------------------------------------------

    def _is_live_ancestor(self, run_id: str) -> bool:
        """Is ``run_id`` still named as an ancestor by any live run?"""
        for zone in (Zone.GROOMED, Zone.POST_GROOMED):
            for run in self.run_lists[zone].iter_runs():
                if run_id in run.header.ancestor_run_ids:
                    return True
        return False

    def stats(self) -> IndexStats:
        levels: List[LevelStats] = []
        total_entries = 0
        for level in range(self.config.levels.total_levels):
            zone = self.config.levels.zone_of(level)
            runs = [
                run
                for run in self.run_lists[zone].iter_runs()
                if run.level == level
            ]
            entry_count = sum(run.entry_count for run in runs)
            total_entries += entry_count
            levels.append(
                LevelStats(
                    level=level,
                    zone=zone,
                    run_count=len(runs),
                    entry_count=entry_count,
                    size_bytes=sum(run.size_bytes for run in runs),
                    persisted=self.config.levels.is_persisted(level),
                )
            )
        return IndexStats(
            definition=self.definition.describe(),
            levels=tuple(levels),
            groomed_run_count=len(self.run_lists[Zone.GROOMED]),
            post_groomed_run_count=len(self.run_lists[Zone.POST_GROOMED]),
            total_entries=total_entries,
            max_covered_groomed_id=self.watermark.value,
            indexed_psn=self.indexed_psn,
            current_cached_level=self.cache.current_cached_level,
            cached_run_fraction=self.cache.cached_fraction(),
        )


__all__ = ["SnapshotPin", "UmziConfig", "UmziIndex"]
