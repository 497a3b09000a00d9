"""SSD cache management (paper section 6.2).

Umzi "aggressively caches index runs using local memory and SSD, even
without ongoing queries", assuming recent data is accessed more often.  The
cache manager tracks the **current cached level**: runs at levels at or
below it are cached on SSD; runs above it are *purged* -- their data blocks
are dropped from the local tiers "while only [keeping] the header block for
queries to locate data blocks".

* When the SSD nears capacity, runs are purged starting from the current
  cached level (old data first), and the level is decremented once all its
  runs are purged.
* When the SSD has room, runs are loaded back in the reverse direction and
  the level is incremented once a level is fully cached.
* New runs created by merge or evolve are written through to the SSD cache
  iff their level is below (i.e. more recent than) the current cached level.
* A query that had to touch a purged run releases those transient blocks
  when it finishes.

``set_cache_level`` provides the manual override the paper uses for the
purge experiment (Figure 14).

**Scan resistance (maintenance-aware extension).**  Background maintenance
-- streaming evolve, merges, recovery validation -- reads entire purged
levels exactly once.  Those touches carry ``ReadIntent.MAINTENANCE``
through the hierarchy, which (in the default ``"intent"`` mode) refuses to
promote them into the SSD; symmetrically, the cache manager's
query-accounting entry points (:meth:`CacheManager.load_run`,
:meth:`CacheManager.release_after_query`) treat maintenance touches as
no-ops, so a purged level stays purged across an evolve instead of being
churned in and out of the cache.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.entry import Zone
from repro.core.levels import LevelConfig
from repro.core.run import IndexRun
from repro.core.runlist import RunList
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent


class CacheManager:
    """Level-based purge/load policy over the storage hierarchy.

    The manager owns *which runs* live in the SSD cache (the paper's
    level-based purge/load policy); the hierarchy owns *how blocks get
    admitted* on the read path.  Both sides are read-intent aware: query
    touches participate in the usual load/release accounting, while
    maintenance touches (``ReadIntent.MAINTENANCE``) bypass it entirely --
    they neither load purged runs into the cache nor release blocks they
    never admitted (``maintenance_bypasses`` counts such bypassed calls for
    observability).
    """

    def __init__(
        self,
        config: LevelConfig,
        hierarchy: StorageHierarchy,
        run_lists: Dict[Zone, RunList],
        high_watermark: float = 0.85,
        low_watermark: float = 0.60,
        pin_checker: Optional[Callable[[str], bool]] = None,
    ) -> None:
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark <= high_watermark <= 1")
        self.config = config
        self.hierarchy = hierarchy
        self.run_lists = run_lists
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        # pin_checker(run_id) -> is some live query snapshot still holding
        # the run?  Supplied by the run lifecycle (a run counts as pinned
        # when any query-reffed RunListVersion contains it; the current
        # version's implicit reference does not count, or nothing could
        # ever be evicted).  Eviction paths
        # (purge_run, release_after_query) skip pinned runs so a block is
        # never dropped out from under an in-flight iterator.
        self._pin_checker = (
            pin_checker if pin_checker is not None else lambda _run_id: False
        )
        # Everything cached initially; levels above this are purged.
        self._current_cached_level = config.total_levels - 1
        self._manual = False
        self._lock = threading.Lock()
        # Scan-resistance observability: maintenance touches that skipped
        # the load/release accounting.
        self.maintenance_bypasses = 0

    # -- state inspection ---------------------------------------------------------

    @property
    def current_cached_level(self) -> int:
        return self._current_cached_level

    def write_through(self, level: int) -> bool:
        """Should a new run at ``level`` be written through to the SSD?"""
        return level <= self._current_cached_level

    def is_purged_level(self, level: int) -> bool:
        return level > self._current_cached_level

    def is_run_cached(self, run: IndexRun) -> bool:
        """All data blocks locally present?"""
        return all(
            self.hierarchy.is_cached(run.data_block_id(i))
            for i in range(run.header.num_data_blocks)
        )

    # -- run-granularity primitives --------------------------------------------------

    def purge_run(self, run: IndexRun) -> int:
        """Drop a run's data blocks from the local tiers; keep the header.

        Non-persisted runs cannot be purged (the local copy is the only
        copy); they return 0.  So do runs pinned by a live query snapshot
        -- runs reachable from any query-reffed version: evicting mid-read
        would stall the query on shared-storage refetches (and invalidate
        the decoded views it is iterating), so the purge pass simply
        revisits the run on a later cycle.
        """
        if not run.header.persisted:
            return 0
        if self._pin_checker(run.run_id):
            self.hierarchy.stats.epochs.eviction_pin_skips += 1
            return 0
        dropped = 0
        for i in range(run.header.num_data_blocks):
            if self.hierarchy.drop_from_cache(run.data_block_id(i)):
                dropped += 1
        run.drop_decode_cache()
        # Keep (or restore) the header block locally so queries can plan.
        header_id = run.header_block_id()
        if not self.hierarchy.is_cached(header_id):
            self.hierarchy.load_into_cache(header_id)
        return dropped

    def load_run(
        self, run: IndexRun, intent: Optional[ReadIntent] = None
    ) -> bool:
        """Fetch a run's data blocks from shared storage into the SSD.

        Maintenance touches bypass the load entirely (scan-resistant
        admission): a one-pass evolve or merge over a purged run must not
        pull that run into the cache as a side effect.  The call still
        reports success -- the caller can read the blocks through the
        hierarchy; they just will not be admitted.  ``intent=None``
        resolves through the hierarchy's ``reading_as`` scope, so calls
        issued from inside maintenance machinery bypass automatically.
        """
        if intent is None:
            intent = self.hierarchy.current_read_intent()
        if intent is ReadIntent.MAINTENANCE:
            self.maintenance_bypasses += 1
            return True
        if not run.header.persisted:
            return True  # already local by definition
        total_needed = sum(
            meta.size_bytes
            for i, meta in enumerate(run.header.block_meta)
            if not self.hierarchy.is_cached(run.data_block_id(i))
        )
        if not self.hierarchy.ssd.would_fit(total_needed):
            return False
        for i in range(run.header.num_data_blocks):
            block_id = run.data_block_id(i)
            if not self.hierarchy.is_cached(block_id):
                self.hierarchy.load_into_cache(block_id)
        return True

    def release_after_query(
        self,
        touched_purged_runs: Iterable[IndexRun],
        intent: Optional[ReadIntent] = None,
    ) -> None:
        """Drop transient blocks a query pulled in from purged runs.

        Maintenance touches are skipped symmetrically to :meth:`load_run`:
        under the intent-aware read mode a maintenance scan never admitted
        anything, so there is nothing to release -- and blindly dropping a
        touched run's blocks here could evict blocks a concurrent *query*
        had legitimately warmed.  ``intent=None`` resolves through the
        hierarchy's ``reading_as`` scope, so a query-machinery path driven
        by maintenance (a ``reading_as(MAINTENANCE)`` caller with
        ``on_query_done`` wired) cannot evict query-warmed blocks.
        """
        if intent is None:
            intent = self.hierarchy.current_read_intent()
        if intent is ReadIntent.MAINTENANCE:
            self.maintenance_bypasses += 1
            return
        for run in touched_purged_runs:
            if self._pin_checker(run.run_id):
                # Another query's pinned snapshot still holds this run:
                # dropping its blocks (and decoded views) now would yank
                # them out from under that query's live iterator.  The
                # next query to touch the run releases them; until then a
                # bounded SSD reclaims them through the ordinary purge
                # pass under pressure.
                self.hierarchy.stats.epochs.eviction_pin_skips += 1
                continue
            if self.is_purged_level(run.level):
                for i in range(run.header.num_data_blocks):
                    self.hierarchy.drop_from_cache(run.data_block_id(i))
                run.drop_decode_cache()

    # -- the dynamic policy --------------------------------------------------------------

    def maintain(self) -> None:
        """One maintenance pass: purge under pressure, load when spacious.

        No-op when the SSD is unbounded or a manual cache level is pinned
        (Figure 14 mode).
        """
        if self._manual or self.hierarchy.ssd.capacity_bytes is None:
            return
        with self._lock:
            if self.hierarchy.ssd.utilization() >= self.high_watermark:
                self._purge_pass()
            elif self.hierarchy.ssd.utilization() < self.low_watermark:
                self._load_pass()

    def _runs_at_level(self, level: int) -> List[IndexRun]:
        zone = self.config.zone_of(level)
        return [
            run for run in self.run_lists[zone].iter_runs() if run.level == level
        ]

    def _purge_pass(self) -> None:
        """Purge oldest-first until below the high watermark.

        Pinned runs are skipped (never evicted mid-read) without wedging
        the pass: the scan keeps descending to lower levels looking for
        evictable space, and ``_current_cached_level`` is only decremented
        when a level is genuinely fully purged -- no pinned holdouts.
        Empty runs (zero data blocks) are trivially purged and never count
        as holdouts.
        """
        level = self._current_cached_level
        while (
            self.hierarchy.ssd.utilization() >= self.high_watermark
            and level >= 0
        ):
            runs = self._runs_at_level(level)
            # Oldest runs first (tail of the newest-first list order).
            blocked = False
            for run in reversed(runs):
                if run.header.persisted and self.is_run_cached(run):
                    if self.purge_run(run) > 0:
                        if self.hierarchy.ssd.utilization() < self.high_watermark:
                            return
                    elif run.header.num_data_blocks > 0:
                        # A non-empty cached run that would not purge is a
                        # pinned holdout: this level is not fully purged.
                        blocked = True
            if level == 0:
                return  # never purge below level 0 entirely automatically
            if not blocked and level == self._current_cached_level:
                self._current_cached_level -= 1
            level -= 1

    def _load_pass(self) -> None:
        """Load recent-first in the reverse direction of purging."""
        while (
            self.hierarchy.ssd.utilization() < self.low_watermark
            and self._current_cached_level < self.config.total_levels - 1
        ):
            next_level = self._current_cached_level + 1
            runs = self._runs_at_level(next_level)
            all_cached = True
            for run in runs:  # newest first
                if not self.is_run_cached(run):
                    # Policy-driven admission, pinned to QUERY intent: the
                    # load pass is the cache manager deliberately warming
                    # the cache, and must not dissolve into a no-op just
                    # because a maintenance scope happens to be ambient.
                    if not self.load_run(run, intent=ReadIntent.QUERY):
                        return  # out of space; stop loading
                    if self.hierarchy.ssd.utilization() >= self.low_watermark:
                        all_cached = self.is_run_cached(run) and run is runs[-1]
                        break
            if all_cached or all(self.is_run_cached(r) for r in runs):
                self._current_cached_level = next_level
            else:
                return

    # -- manual control (Figure 14) ----------------------------------------------------------

    def set_cache_level(self, level: int) -> None:
        """Pin the cached/purged boundary: purge everything above ``level``,
        load everything at or below it, and disable the dynamic policy."""
        if not -1 <= level <= self.config.total_levels - 1:
            raise ValueError(
                f"cache level must be in [-1, {self.config.total_levels - 1}]"
            )
        with self._lock:
            self._manual = True
            self._current_cached_level = level
            for lvl in range(self.config.total_levels - 1, level, -1):
                for run in self._runs_at_level(lvl):
                    self.purge_run(run)
            for lvl in range(0, level + 1):
                for run in self._runs_at_level(lvl):
                    # Deliberate policy admission (see _load_pass).
                    self.load_run(run, intent=ReadIntent.QUERY)

    def resume_dynamic_policy(self) -> None:
        with self._lock:
            self._manual = False

    def cached_fraction(self) -> float:
        """Fraction of persisted runs whose data is fully cached."""
        runs = [
            run
            for zone in (Zone.GROOMED, Zone.POST_GROOMED)
            for run in self.run_lists[zone].iter_runs()
            if run.header.persisted
        ]
        if not runs:
            return 1.0
        cached = sum(1 for run in runs if self.is_run_cached(run))
        return cached / len(runs)


__all__ = ["CacheManager"]
