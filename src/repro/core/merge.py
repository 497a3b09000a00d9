"""The hybrid merge policy and merge execution (paper section 5.3).

Policy, parameterized by ``K`` and ``T`` (see :class:`LevelConfig`):

* each level keeps at most one **active** run; the rest are inactive;
* incoming runs from level L-1 are always merged *into the active run* of
  level L (i.e. the active run and the K incoming runs are replaced by one
  new run, which becomes the new active run of L);
* the active run of L is **full** once its size reaches T times the size
  of an inactive run at L-1; a full active run is marked inactive and the
  next merge starts a fresh active run;
* when level L accumulates K inactive runs, they are merged together with
  the active run of level L+1.

Level 0 is special: grooms push completed runs, so every level-0 run is
inactive from birth.

Merges stay **within a zone** (section 4.3); crossing zones is the evolve
operation's job.  Non-persisted-level bookkeeping follows section 6.1:
persisted inputs consumed by a non-persisted output are retained in shared
storage and recorded as *ancestors*; they are physically deleted only when
a descendant run reaches a persisted level again.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.builder import RunBuilder
from repro.core.epoch import (
    delete_namespace_action,
    delete_run_action,
    drop_cache_action,
)
from repro.core.entry import (
    IndexEntry,
    Zone,
    begin_ts_of_sort_key,
    user_key_of_sort_key,
)
from repro.core.ids import RunIdAllocator
from repro.core.levels import LevelConfig
from repro.core.run import IndexRun, Synopsis
from repro.core.runlist import RunList
from repro.faults.crash import crash_point
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent


@dataclass
class MergeResult:
    """What one merge step did (for logging, tests, and benchmarks)."""

    zone: Zone
    source_level: int
    target_level: int
    input_run_ids: Tuple[str, ...]
    output_run_id: str
    output_entries: int
    output_marked_inactive: bool
    deleted_run_ids: Tuple[str, ...]


def merge_entry_blob_streams(
    definition,
    runs_newest_first: Sequence[IndexRun],
    retention_ts: Optional[int] = None,
    intent: ReadIntent = ReadIntent.MAINTENANCE,
) -> Iterable[Tuple[bytes, bytes]]:
    """Zero-decode K-way merge: yields ``(sort_key, entry_blob)`` pairs.

    The heap merges ``(sort_key_slice, recency, entry_blob)`` triples read
    straight off the inputs' data-block payloads -- no
    :class:`IndexEntry` is ever constructed.  Within one zone, two entries
    with identical sort keys (same key, same ``beginTS``) describe the
    same record version; the copy from the newest run wins.  Distinct
    versions of a key (different ``beginTS``) are all kept -- Umzi is a
    multi-version index and must keep supporting time travel after merges.

    ``retention_ts`` enables MVCC garbage collection (the general LSM
    "reclaim disk space occupied by obsolete entries"): the versions the
    system must keep are those visible at some permitted snapshot
    >= retention_ts, i.e. every version with ``beginTS > retention_ts``
    plus, per key, the newest version with ``beginTS <= retention_ts``.
    Anything older is unreachable and dropped during the merge.  Both the
    user key and ``beginTS`` needed for that decision are raw slices of
    the sort key (beginTS is its fixed 8-byte suffix).

    Every caller is background machinery (merges, streaming evolve, the
    classic-LSM baseline), so input blocks are read with
    ``ReadIntent.MAINTENANCE`` by default: a one-pass stream over
    potentially purged runs must not flood the SSD cache with blocks no
    query will touch again.
    """
    def stream(run: IndexRun, recency: int):
        # recency is bound per stream so duplicate sort keys across runs
        # tie-break on run recency instead of comparing raw blobs.
        for sort_key, blob in run.iter_raw(intent=intent):
            yield sort_key, recency, blob

    streams = [
        stream(run, recency) for recency, run in enumerate(runs_newest_first)
    ]
    previous_sort_key: Optional[bytes] = None
    previous_user_key: Optional[bytes] = None
    retained_at_horizon = False
    for sort_key, _recency, blob in heapq.merge(*streams):
        if sort_key == previous_sort_key:
            continue
        previous_sort_key = sort_key
        if retention_ts is not None:
            user_key = user_key_of_sort_key(sort_key)
            if user_key != previous_user_key:
                previous_user_key = user_key
                retained_at_horizon = False
            if begin_ts_of_sort_key(sort_key) <= retention_ts:
                # Versions arrive newest-first per key: the first one at or
                # below the horizon is the version visible at retention_ts;
                # older ones for this key are unreachable.
                if retained_at_horizon:
                    continue
                retained_at_horizon = True
        yield sort_key, blob


def merge_entry_streams(
    definition,
    runs_newest_first: Sequence[IndexRun],
    retention_ts: Optional[int] = None,
    intent: ReadIntent = ReadIntent.MAINTENANCE,
) -> Iterable[IndexEntry]:
    """Decoded-entry view of :func:`merge_entry_blob_streams`.

    Compatibility shim for callers that want :class:`IndexEntry` objects
    (baselines, tests); the Umzi merge path itself stays on blobs via
    :meth:`RunBuilder.build_from_blobs`.
    """
    for _sort_key, blob in merge_entry_blob_streams(
        definition, runs_newest_first, retention_ts, intent=intent
    ):
        entry, _ = IndexEntry.from_bytes(definition, blob)
        yield entry


class MergeController:
    """Drives within-zone merges for one Umzi index instance.

    The controller owns the per-level *active run* bookkeeping.  Runs are
    immutable, so "active" is controller state (a run id per level), not a
    flag on the run.
    """

    def __init__(
        self,
        config: LevelConfig,
        builder: RunBuilder,
        hierarchy: StorageHierarchy,
        allocator: RunIdAllocator,
        run_lists: Dict[Zone, RunList],
        write_through: Optional[Callable[[int], bool]] = None,
        ancestor_protector: Optional[Callable[[str], bool]] = None,
        retention_provider: Optional[Callable[[], Optional[int]]] = None,
        reclaimer: Optional[Callable[[str, Callable[[], None]], None]] = None,
        structure_lock: Optional[threading.Lock] = None,
    ) -> None:
        self.config = config
        self.builder = builder
        self.hierarchy = hierarchy
        self.allocator = allocator
        self.run_lists = run_lists
        # write_through(level) -> should a new persisted run at `level` also
        # be written into the SSD cache?  Supplied by the cache manager.
        self._write_through = write_through if write_through is not None else lambda _: True
        # ancestor_protector(run_id) -> True if some live run still lists
        # run_id as an ancestor (so its shared-storage copy must survive).
        self._ancestor_protector = (
            ancestor_protector if ancestor_protector is not None else lambda _: False
        )
        # retention_provider() -> the MVCC retention horizon, or None to
        # keep every version forever (the default).
        self._retention_provider = (
            retention_provider if retention_provider is not None else lambda: None
        )
        # reclaimer(run_id, free) routes physical frees of unlinked runs
        # through the run lifecycle (which defers them while queries pin
        # the run); without one, frees execute immediately.
        self._reclaim = (
            reclaimer if reclaimer is not None else lambda _run_id, free: free()
        )
        self._active: Dict[int, Optional[str]] = {}
        self._lock = threading.Lock()
        # Maintenance *structure* mutex, shared with the evolve controller
        # of the same index: a merge's victim selection, input streaming and
        # span splice must not interleave with an evolve's garbage
        # collection of the same list (the evolve could unlink a victim
        # mid-merge, breaking the contiguous span -- or delete blocks the
        # merge is still streaming).  Queries never take this lock.
        self._structure_lock = (
            structure_lock if structure_lock is not None else threading.Lock()
        )

    # -- policy inspection --------------------------------------------------------

    def active_run_id(self, level: int) -> Optional[str]:
        with self._lock:
            return self._active.get(level)

    def runs_at_level(self, zone: Zone, level: int) -> List[IndexRun]:
        return [r for r in self.run_lists[zone].iter_runs() if r.level == level]

    def inactive_runs_at_level(self, zone: Zone, level: int) -> List[IndexRun]:
        active = self.active_run_id(level)
        return [r for r in self.runs_at_level(zone, level) if r.run_id != active]

    def level_needing_merge(self, zone: Zone) -> Optional[int]:
        """Lowest level of ``zone`` with K inactive runs, excluding the
        zone's last level (there is nowhere within the zone to merge into)."""
        levels = self.config.levels_of(zone)
        for level in levels[:-1]:
            if len(self.inactive_runs_at_level(zone, level)) >= self.config.max_runs_per_level:
                return level
        return None

    def needs_merge(self, zone: Zone) -> bool:
        return self.level_needing_merge(zone) is not None

    # -- execution -------------------------------------------------------------------

    def merge_step(self, zone: Zone) -> Optional[MergeResult]:
        """Perform one merge in ``zone`` if the policy calls for one.

        Policy check and execution run under the structure mutex as one
        step: a concurrent evolve may garbage-collect the level's runs
        between an unlocked check and the merge, which is how the daemons
        used to race (victim span no longer contiguous).
        """
        with self._structure_lock:
            level = self.level_needing_merge(zone)
            if level is None:
                return None
            return self._merge_level_locked(zone, level)

    def merge_until_stable(self, zone: Zone, max_steps: int = 64) -> List[MergeResult]:
        """Run merge steps until the policy is satisfied (tests/benches)."""
        results: List[MergeResult] = []
        for _ in range(max_steps):
            result = self.merge_step(zone)
            if result is None:
                break
            results.append(result)
        return results

    def merge_level(self, zone: Zone, level: int) -> MergeResult:
        """Merge level ``level``'s K oldest inactive runs into ``level+1``."""
        with self._structure_lock:
            return self._merge_level_locked(zone, level)

    def _merge_level_locked(self, zone: Zone, level: int) -> MergeResult:
        config = self.config
        target_level = level + 1
        if target_level > config.last_level_of(zone):
            raise ValueError(
                f"level {level} is the last level of zone {zone.name}; "
                "nothing to merge into"
            )
        run_list = self.run_lists[zone]

        inactive = self.inactive_runs_at_level(zone, level)
        if not inactive:
            raise ValueError(f"no inactive runs at level {level} to merge")
        # List order is newest-first; take the K *oldest* (tail of the span).
        take = min(config.max_runs_per_level, len(inactive))
        victims = inactive[-take:]

        target_active_id = self.active_run_id(target_level)
        target_active: Optional[IndexRun] = None
        if target_active_id is not None:
            for run in self.runs_at_level(zone, target_level):
                if run.run_id == target_active_id:
                    target_active = run
                    break

        # Inputs newest-first: the level-L victims, then the target active.
        inputs: List[IndexRun] = list(victims)
        if target_active is not None:
            inputs.append(target_active)

        # Zero-decode merge: entry blobs stream from the input blocks into
        # the new run verbatim; the output synopsis is the union of the
        # input synopses (sound over-approximation -- merged entries are a
        # subset of the inputs', and over-approximation only costs pruning).
        # Input blocks are maintenance reads: each is consumed exactly once
        # and must not displace query-hot blocks from the SSD cache.
        merged_blobs = merge_entry_blob_streams(
            self.builder.definition,
            inputs,
            self._retention_provider(),
            intent=ReadIntent.MAINTENANCE,
        )
        new_run_id = self.allocator.allocate(zone)
        persisted = config.is_persisted(target_level)
        ancestors = self._ancestors_for(inputs, persisted)
        new_run = self.builder.build_from_blobs(
            run_id=new_run_id,
            blob_pairs=merged_blobs,
            synopsis=Synopsis.union([r.header.synopsis for r in inputs]),
            zone=zone,
            level=target_level,
            min_groomed_id=min(r.min_groomed_id for r in inputs),
            max_groomed_id=max(r.max_groomed_id for r in inputs),
            persisted=persisted,
            write_through_ssd=self._write_through(target_level),
            spill_to_ssd=config.spill_non_persisted_to_ssd,
            ancestor_run_ids=ancestors,
        )

        # Splice: the victims and the old target-active form one contiguous
        # span (victims are the oldest at L, the target active is the newest
        # at L+1, and the list is globally recency-ordered).
        crash_point("merge.pre_splice")
        span = [r.run_id for r in inputs]
        run_list.replace(span, new_run)
        crash_point("merge.post_splice")

        deleted = self._garbage_collect_inputs(inputs, new_run)

        # Active-run bookkeeping: the merged run is the new active of the
        # target level, and is immediately marked inactive if full.
        reference = max(r.entry_count for r in victims)
        full = new_run.entry_count >= config.size_ratio * max(reference, 1)
        with self._lock:
            self._active[target_level] = None if full else new_run.run_id

        return MergeResult(
            zone=zone,
            source_level=level,
            target_level=target_level,
            input_run_ids=tuple(r.run_id for r in inputs),
            output_run_id=new_run.run_id,
            output_entries=new_run.entry_count,
            output_marked_inactive=full,
            deleted_run_ids=tuple(deleted),
        )

    # -- non-persisted-level bookkeeping ---------------------------------------------

    def _ancestors_for(
        self, inputs: Sequence[IndexRun], output_persisted: bool
    ) -> Tuple[str, ...]:
        """Ancestor set for the merged run (section 6.1).

        A non-persisted output must remember every *persisted* run whose
        data it now carries (directly, or transitively through non-persisted
        inputs), because those shared-storage copies are the only durable
        form of that data until the output's descendants persist again.
        """
        if output_persisted:
            return ()
        ancestors: Set[str] = set()
        for run in inputs:
            if run.header.persisted:
                ancestors.add(run.run_id)
            else:
                ancestors.update(run.header.ancestor_run_ids)
        return tuple(sorted(ancestors))

    def _garbage_collect_inputs(
        self, inputs: Sequence[IndexRun], new_run: IndexRun
    ) -> List[str]:
        """Schedule physical deletion of what a merge made obsolete.

        Every free goes through the reclaimer: the inputs were atomically
        spliced out of the run list (no new query can reach them), but a
        query pinned on an older snapshot may still be streaming their
        blocks -- the protected lifecycle modes park these frees until no
        pinned version covers the run.  The returned ids are the runs scheduled for deletion.
        """
        deleted: List[str] = []
        output_persisted = new_run.header.persisted
        for run in inputs:
            if run.header.persisted:
                if output_persisted:
                    # Normal LSM GC: data now lives in the durable new run.
                    self._reclaim(
                        run.run_id, delete_run_action(self.hierarchy, run)
                    )
                    deleted.append(run.run_id)
                else:
                    # Ancestor retention: keep the shared copy, free cache.
                    self._reclaim(
                        run.run_id, drop_cache_action(self.hierarchy, run)
                    )
            else:
                # Non-persisted input: local blocks are garbage now ...
                self._reclaim(
                    run.run_id, delete_run_action(self.hierarchy, run)
                )
                deleted.append(run.run_id)
                if output_persisted:
                    # ... and its recorded ancestors are finally safe to drop
                    # (unless some other live run still needs them).
                    for ancestor_id in run.header.ancestor_run_ids:
                        if not self._ancestor_protector(ancestor_id):
                            self._reclaim(
                                ancestor_id,
                                delete_namespace_action(
                                    self.hierarchy, ancestor_id
                                ),
                            )
                            deleted.append(ancestor_id)
        return deleted

    # -- recovery support -----------------------------------------------------------

    def reset_active_tracking(self) -> None:
        """Forget active-run state (after recovery all runs are inactive)."""
        with self._lock:
            self._active.clear()


__all__ = [
    "MergeController",
    "MergeResult",
    "merge_entry_blob_streams",
    "merge_entry_streams",
]
