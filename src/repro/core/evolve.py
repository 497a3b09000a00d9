"""The index evolve operation (paper section 5.4).

When the post-groomer moves groomed data blocks into the post-groomed zone,
the index must follow: entries pointing at deprecated groomed blocks are
replaced by entries pointing at the new post-groomed blocks.  Evolve is
decomposed into three sub-operations, each a single atomic modification,
so concurrent lock-free queries always see a valid index:

1. **Build** a post-groomed run for the new blocks and atomically add it to
   the post-groomed run list (the run still records the *groomed* block-id
   range it corresponds to).
2. **Advance the watermark**: atomically raise the maximum groomed block id
   covered by the post-groomed run list.  Groomed runs whose end id is no
   larger than the watermark are now automatically ignored by queries.
3. **Garbage-collect** the obsolete groomed runs from the groomed list.

Between steps the index may contain duplicates (the same record version in
both zones); section 5.4 shows these are harmless because reconciliation
keeps only the newest version per key at query time.  Evolve operations are
applied in strict PSN order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.builder import RunBuilder
from repro.core.epoch import delete_run_action, drop_cache_action
from repro.core.entry import (
    IndexEntry,
    RID,
    Zone,
    begin_ts_of_sort_key,
    replace_rid_in_blob,
)
from repro.core.ids import RunIdAllocator
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.merge import merge_entry_blob_streams
from repro.core.run import IndexRun, Synopsis
from repro.core.runlist import RunList
from repro.faults.crash import crash_point
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent


class EvolveError(RuntimeError):
    """Out-of-order PSN or structurally invalid evolve request."""


class Watermark:
    """The maximum groomed block id covered by the post-groomed run list.

    Reads and writes are single int-reference assignments -- atomic for
    lock-free readers, mirroring the paper's atomic update of this value.
    """

    def __init__(self, initial: int = -1) -> None:
        self._value = initial

    @property
    def value(self) -> int:
        return self._value

    def advance(self, new_value: int) -> None:
        if new_value < self._value:
            raise EvolveError(
                f"watermark may only advance ({self._value} -> {new_value})"
            )
        self._value = new_value  # atomic publication


@dataclass
class EvolveResult:
    """What one evolve operation did.

    ``spliced_blobs``/``skipped_blobs`` are only populated by the
    streaming path: spliced entries migrated as raw byte splices, skipped
    entries fell outside the evolved PSN's coverage (already evolved by an
    earlier operation, or groomed after this one was published).
    """

    psn: int
    new_run_id: str
    new_run_entries: int
    watermark_before: int
    watermark_after: int
    collected_run_ids: Tuple[str, ...]
    spliced_blobs: int = 0
    skipped_blobs: int = 0


class EvolveController:
    """Executes evolve operations in PSN order for one index instance.

    Evolve is maintenance: the streaming path reads every covered groomed
    run end to end exactly once, so those block fetches carry
    ``ReadIntent.MAINTENANCE`` -- they are served from whatever tier holds
    them but are never promoted into the SSD cache and never evict
    query-hot blocks of a purged level.
    """

    def __init__(
        self,
        config: LevelConfig,
        builder: RunBuilder,
        hierarchy: StorageHierarchy,
        allocator: RunIdAllocator,
        run_lists: Dict[Zone, RunList],
        watermark: Watermark,
        journal: Optional[MetadataJournal] = None,
        write_through: Optional[Callable[[int], bool]] = None,
        ancestor_protector: Optional[Callable[[str], bool]] = None,
        reclaimer: Optional[Callable[[str, Callable[[], None]], None]] = None,
        structure_lock: Optional[threading.Lock] = None,
    ) -> None:
        self.config = config
        self.builder = builder
        self.hierarchy = hierarchy
        self.allocator = allocator
        self.run_lists = run_lists
        self.watermark = watermark
        self.journal = journal
        self._write_through = write_through if write_through is not None else lambda _: True
        self._ancestor_protector = (
            ancestor_protector if ancestor_protector is not None else lambda _: False
        )
        # reclaimer(run_id, free) routes physical frees of unlinked runs
        # through the run lifecycle (which defers them while queries pin
        # the run); without one, frees execute immediately.
        self._reclaim = (
            reclaimer if reclaimer is not None else lambda _run_id, free: free()
        )
        self.indexed_psn = 0  # PSNs start at 1; 0 means "nothing evolved yet"
        # Serializes evolves among themselves AND against merges when the
        # index supplies its shared maintenance structure mutex (an evolve's
        # step 3 unlinks groomed runs a concurrent merge may have selected
        # as victims).  Queries never take this lock.
        self._lock = (
            structure_lock if structure_lock is not None else threading.Lock()
        )

    # -- the full operation ------------------------------------------------------------

    def evolve(
        self,
        psn: int,
        entries: Iterable[IndexEntry],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> EvolveResult:
        """Run all three sub-operations for one post-groom operation.

        ``entries`` are index entries over the *post-groomed* blocks (new
        RIDs); ``[min_groomed_id, max_groomed_id]`` is the groomed block-id
        range the post-groom consumed.
        """
        with self._lock:
            self._check_psn(psn)
            new_run = self.step1_build_run(entries, min_groomed_id, max_groomed_id)
            crash_point("evolve.post_publish")
            before = self.watermark.value
            self.step2_advance_watermark(max_groomed_id)
            crash_point("evolve.pre_gc")
            collected = self.step3_collect_obsolete()
            self.indexed_psn = psn
            crash_point("evolve.pre_checkpoint")
            self._checkpoint()
            return EvolveResult(
                psn=psn,
                new_run_id=new_run.run_id,
                new_run_entries=new_run.entry_count,
                watermark_before=before,
                watermark_after=self.watermark.value,
                collected_run_ids=tuple(collected),
            )

    def evolve_streaming(
        self,
        psn: int,
        new_rid_of: Callable[[int], Optional[RID]],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> EvolveResult:
        """Zero-decode evolve: splice new RIDs into raw groomed entry blobs.

        Instead of materializing an :class:`IndexEntry` per migrated record
        (the rebuild ``evolve`` path), this streams ``(sort_key, blob)``
        pairs straight off the covered groomed runs' data blocks.  A
        record's key columns and ``beginTS`` do not change when it moves to
        the post-groomed zone -- only its RID does -- so the migration is a
        13-byte splice over the blob's fixed-width RID suffix; include
        columns are forwarded verbatim and the stream stays in sort order.

        ``new_rid_of(begin_ts)`` maps a version's ``beginTS`` (read as a
        raw sort-key suffix slice) to its post-groomed RID, or ``None`` for
        entries outside this operation's coverage (already evolved, or
        groomed after it was published) -- those are skipped, and partial
        coverage reconciles at query time exactly like section 5.4's
        duplicates.  ``beginTS`` values must uniquely identify record
        versions (the groomer's ``cycle | order`` composition guarantees
        this).  The output synopsis is the union of the inputs' synopses --
        sound because the evolved entries are a key-identical subset.
        """
        with self._lock:
            self._check_psn(psn)
            sources = [
                run
                for run in self.run_lists[Zone.GROOMED].snapshot()
                if run.min_groomed_id <= max_groomed_id
                and run.max_groomed_id >= min_groomed_id
            ]
            decode_stats = self.hierarchy.stats.decode
            counts = {"spliced": 0, "skipped": 0}

            def spliced_blobs():
                # Maintenance intent: the one-pass stream over the covered
                # groomed runs (possibly purged levels) must not thrash the
                # SSD cache that concurrent queries depend on.
                for sort_key, blob in merge_entry_blob_streams(
                    self.builder.definition,
                    sources,
                    intent=ReadIntent.MAINTENANCE,
                ):
                    new_rid = new_rid_of(begin_ts_of_sort_key(sort_key))
                    if new_rid is None:
                        counts["skipped"] += 1
                        continue
                    counts["spliced"] += 1
                    decode_stats.evolve_blob_splices += 1
                    yield sort_key, replace_rid_in_blob(blob, new_rid)

            if sources:
                synopsis = Synopsis.union([r.header.synopsis for r in sources])
            else:
                synopsis = Synopsis(
                    ranges=tuple(
                        [None] * len(self.builder.definition.key_columns)
                    )
                )
            new_run = self.step1_build_run_from_blobs(
                spliced_blobs(), synopsis, min_groomed_id, max_groomed_id
            )
            crash_point("evolve.post_publish")
            before = self.watermark.value
            self.step2_advance_watermark(max_groomed_id)
            crash_point("evolve.pre_gc")
            collected = self.step3_collect_obsolete()
            self.indexed_psn = psn
            crash_point("evolve.pre_checkpoint")
            self._checkpoint()
            return EvolveResult(
                psn=psn,
                new_run_id=new_run.run_id,
                new_run_entries=new_run.entry_count,
                watermark_before=before,
                watermark_after=self.watermark.value,
                collected_run_ids=tuple(collected),
                spliced_blobs=counts["spliced"],
                skipped_blobs=counts["skipped"],
            )

    def _check_psn(self, psn: int) -> None:
        if psn != self.indexed_psn + 1:
            raise EvolveError(
                f"evolve operations must be applied in PSN order: "
                f"expected {self.indexed_psn + 1}, got {psn}"
            )

    # -- the three atomic sub-operations (public for failure injection) -----------------

    def step1_build_run(
        self,
        entries: Iterable[IndexEntry],
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> IndexRun:
        """Sub-operation 1: build the post-groomed run and publish it."""
        level = self.config.first_post_groomed_level
        run = self.builder.build(
            run_id=self.allocator.allocate(Zone.POST_GROOMED),
            entries=entries,
            zone=Zone.POST_GROOMED,
            level=level,
            min_groomed_id=min_groomed_id,
            max_groomed_id=max_groomed_id,
            persisted=True,  # post-groomed runs are always durable
            write_through_ssd=self._write_through(level),
        )
        crash_point("evolve.pre_publish")
        self.run_lists[Zone.POST_GROOMED].push_front(run)  # atomic
        return run

    def step1_build_run_from_blobs(
        self,
        blob_pairs: Iterable[Tuple[bytes, bytes]],
        synopsis: Synopsis,
        min_groomed_id: int,
        max_groomed_id: int,
    ) -> IndexRun:
        """Sub-operation 1 on the streaming path: build from raw blobs."""
        level = self.config.first_post_groomed_level
        run = self.builder.build_from_blobs(
            run_id=self.allocator.allocate(Zone.POST_GROOMED),
            blob_pairs=blob_pairs,
            synopsis=synopsis,
            zone=Zone.POST_GROOMED,
            level=level,
            min_groomed_id=min_groomed_id,
            max_groomed_id=max_groomed_id,
            persisted=True,  # post-groomed runs are always durable
            write_through_ssd=self._write_through(level),
        )
        crash_point("evolve.pre_publish")
        self.run_lists[Zone.POST_GROOMED].push_front(run)  # atomic
        return run

    def step2_advance_watermark(self, max_groomed_id: int) -> None:
        """Sub-operation 2: raise the covered-groomed-id watermark."""
        self.watermark.advance(max(self.watermark.value, max_groomed_id))

    def step3_collect_obsolete(self) -> List[str]:
        """Sub-operation 3: GC groomed runs fully under the watermark.

        A groomed run may be *partially* covered when post-groom boundaries
        do not align with run boundaries; such runs stay, and the resulting
        physical duplicates are reconciled away at query time (section 5.4).

        Physical frees go through the reclaimer: the runs were atomically
        unlinked by ``remove_where`` (no *new* query can see them), but a
        query that pinned its snapshot before this evolve may still be
        reading their blocks -- under the protected lifecycle modes the
        free is deferred until no pinned version covers the run.  The returned ids are the runs
        *scheduled* for deletion (immediately executed when unpinned).
        """
        watermark_value = self.watermark.value
        groomed = self.run_lists[Zone.GROOMED]
        removed = groomed.remove_where(
            lambda run: run.max_groomed_id <= watermark_value
        )
        collected: List[str] = []
        for run in removed:
            if self._ancestor_protector(run.run_id):
                # Some live non-persisted run still derives from this one;
                # keep the shared copy, just free the local cache.
                self._reclaim(run.run_id, drop_cache_action(self.hierarchy, run))
                continue
            self._reclaim(run.run_id, delete_run_action(self.hierarchy, run))
            collected.append(run.run_id)
        return collected

    # -- durability -----------------------------------------------------------------------

    def _checkpoint(self) -> None:
        if self.journal is not None:
            self.journal.append(
                Checkpoint(
                    indexed_psn=self.indexed_psn,
                    max_covered_groomed_id=self.watermark.value,
                )
            )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Recovery: reinstall persisted PSN/watermark state."""
        with self._lock:
            self.indexed_psn = checkpoint.indexed_psn
            if checkpoint.max_covered_groomed_id > self.watermark.value:
                self.watermark.advance(checkpoint.max_covered_groomed_id)


__all__ = ["EvolveController", "EvolveError", "EvolveResult", "Watermark"]
