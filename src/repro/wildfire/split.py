"""Online shard split: zero-decode data movement.

The cluster-facing entry point is
:meth:`repro.wildfire.cluster.ShardedTable.split_shard`, driven by the
shared split/merge state machine in :mod:`repro.wildfire.migration`;
this module owns the pieces below it:

* :func:`copy_post_groomed_blocks` -- verbatim record-block transfer
  (same ids, same namespaces, same bytes) so the RIDs baked into entry
  blobs stay valid on the successors.
* :class:`ShardCopyStream` -- the zero-decode copy, as a *resumable,
  budgeted* stream (ISSUE 10): every index's post-groomed runs (primary
  first, then each secondary) are streamed as raw ``(sort_key, blob)``
  pairs through the same K-way blob merge the evolve path uses,
  bucketed per destination shard, and built into one post-groomed run
  per destination per index via ``RunBuilder.build_from_blobs`` -- no
  :class:`~repro.core.entry.IndexEntry` is ever materialized.  The
  stream is pulled in ``step(budget)`` slices so a split/merge pump can
  interleave the copy with live traffic; pulling everything in one call
  reproduces the original synchronous copy byte for byte.
* :func:`split_copy_stream` -- the split's copy over a
  :class:`ShardCopyStream`: per-index partition passes route every pair
  by hashing the *record's sharding key* straight out of the sort key.
  Secondaries always carry the full primary key (and therefore the
  sharding key, a schema-enforced subset of it) as an appended sort-key
  suffix, so a per-index :class:`ShardingKeySlicer` recovers exactly
  the values the PR 9 fetch-back path would read from the record --
  without fetching the record.  Ghost entries route correctly too: the
  primary key of a row never changes, whatever its secondary columns do.

Both helpers are idempotent (already-copied blocks are skipped; a
destination that already holds its copied run for an index is not
rebuilt), which is what makes the roll-forward recovery replays safe.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.entry import Zone
from repro.core.merge import merge_entry_blob_streams
from repro.core.run import Synopsis
from repro.faults.crash import crash_point
from repro.storage.metrics import ReadIntent
from repro.wildfire.engine import WildfireShard
from repro.wildfire.shardmap import (
    ShardingKeySlicer,
    ShardMapError,
    successor_side,
)


class SplitError(RuntimeError):
    """A split could not be started or resumed."""


class SplitAborted(SplitError):
    """A split backed out cleanly before its write cutover.

    Raised when maintenance backpressure or an open circuit breaker says
    the cluster cannot afford the copy right now.  Nothing has been
    published: routing, data, and clocks are exactly as they were.
    """


class SplitUnsupported(SplitAborted):
    """The shard's shape rules out an online split.

    Since ISSUE 10 shards carrying secondary indexes split fine (every
    secondary carries the primary key -- and with it the sharding key --
    as a sort-key suffix, so per-index partition passes can route its
    entries zero-decode).  What remains unsupported is an index whose
    key columns do not contain the sharding key at all, which can only
    happen for primary indexes built with ``require_primary_index=False``
    -- there is no byte range in such an index's sort keys from which to
    recover the routing hash.  Carries ``source_id`` and the offending
    ``index_names`` so callers (and tests) can react without parsing
    the message.  Nothing has been published when this raises.
    """

    def __init__(self, source_id: int, index_names: Sequence[str]) -> None:
        self.source_id = source_id
        self.index_names = tuple(index_names)
        super().__init__(
            f"online split of shard {source_id} needs the sharding key "
            "inside every index's key columns; offending: "
            f"{', '.join(self.index_names)}"
        )


# Gap left between the two successors' post-groomed block id allocators
# at split time.  The left successor stays dense at the source's
# watermark; the right one starts this far above it.  Blocks written
# after the split therefore never collide by id between the two sides,
# which is what lets :func:`adopt_post_groomed_blocks` copy
# both sides' blocks verbatim into one catalog.  A shard would need to
# post-groom over a million record blocks between a split and the next
# split of the same slot (impossible: the slot must be merged back to a
# single route first) for the stride to be crossed.
BLOCK_ID_STRIDE = 1 << 20


def adopt_post_groomed_blocks(
    sources: Sequence[WildfireShard], destinations: Sequence[WildfireShard]
) -> int:
    """Adopt every source's post-groomed record blocks into every destination.

    Each destination receives *every* block: record blocks are addressed
    by RID from entry blobs, and a destination's entry subset may
    reference any of them.  Ids never collide across sources (shared
    pre-split ids carry byte-identical payloads and dedup on adoption;
    post-split ids are separated by :data:`BLOCK_ID_STRIDE`), and the
    endTS overlays union safely: an RID's endTS is written at most once
    in its lifetime, so two sources never disagree on a shared RID.
    Idempotent; returns blocks copied this call.
    """
    copied = 0
    for destination in destinations:
        for source in sources:
            copied += len(
                destination.catalog.adopt_post_groomed(
                    source.catalog,
                    source.catalog.live_post_groomed_ids(),
                    source.catalog.export_end_ts_overlay(),
                )
            )
    return copied


def copy_post_groomed_blocks(
    source: WildfireShard, successors: Tuple[WildfireShard, WildfireShard]
) -> int:
    """Transfer the source's post-groomed record blocks to both successors.

    The second successor's block allocator is strided above the adopted
    watermark (see :data:`BLOCK_ID_STRIDE`) so post-split writes on the
    two sides can never mint the same block id.  Idempotent; returns
    blocks copied this call.
    """
    copied = adopt_post_groomed_blocks((source,), successors)
    successors[1].catalog.ensure_post_groomed_floor(
        source.catalog.max_post_groomed_id + 1 + BLOCK_ID_STRIDE
    )
    return copied


def _dest_has_copy(destination: WildfireShard, index_name: str) -> bool:
    shard_index = destination.indexes.get(index_name)
    return bool(shard_index.index.run_lists[Zone.POST_GROOMED].snapshot())


def index_slicers(
    shard: WildfireShard, source_id: int
) -> Dict[str, ShardingKeySlicer]:
    """One zero-decode sharding-key slicer per index, primary included.

    Secondaries can never fail here: ``with_primary_key_suffix`` puts
    every primary-key column into their sort columns and the schema
    enforces ``sharding_key ⊆ primary_key``.  An index built without
    the sharding key among its key columns (only possible for a primary
    defined with ``require_primary_index=False``-style shapes) raises
    :class:`SplitUnsupported` naming every offending index.
    """
    sharding = shard.schema.sharding_key
    slicers: Dict[str, ShardingKeySlicer] = {}
    offending: List[str] = []
    for shard_index in shard.indexes.all():
        try:
            slicers[shard_index.name] = ShardingKeySlicer(
                shard_index.index.definition, sharding
            )
        except ShardMapError:
            offending.append(shard_index.name)
    if offending:
        raise SplitUnsupported(source_id, offending)
    return slicers


class ShardCopyStream:
    """Resumable, budgeted copy of quiesced sources into destinations.

    One instance drives a full migration copy: for each index name (the
    primary first, then every secondary) it streams all sources'
    post-groomed runs as raw ``(sort_key, blob)`` pairs, buckets each
    pair with ``bucket_of(index_name, sort_key)``, and -- when the pass
    is exhausted -- builds at most one post-groomed run per destination
    with a union synopsis of the pass's source runs, rebuilt at the
    destination's current ``version_seq``.

    ``step(budget)`` pulls up to ``budget`` pairs (``None`` = all of
    them), so a split/merge pump can interleave copy slices with live
    traffic; the pair order, bucket contents, and built runs are
    identical whatever the step sizes, which keeps pumped migrations
    byte-identical to synchronous ones.

    Source snapshots are pinned per pass and the sources are quiesced
    and frozen, so the stream sees an immutable view.  Crash behaviour:
    ``crash_site`` fires immediately before the build for destination
    ordinal ``crash_ordinal`` of the *primary* pass (for a split that is
    ``split.mid_copy`` between the two successor builds).  A crash
    anywhere in the stream is recovered by rebuilding the whole stream:
    nothing is published until a destination's run is built and pushed,
    and already-built destinations are skipped on replay.
    """

    def __init__(
        self,
        sources: Sequence[WildfireShard],
        destinations: Sequence[WildfireShard],
        bucket_of: Callable[[str, bytes], int],
        crash_site: Optional[str] = None,
        crash_ordinal: int = -1,
    ) -> None:
        self._sources = tuple(sources)
        self._destinations = tuple(destinations)
        self._bucket_of = bucket_of
        self._crash_site = crash_site
        self._crash_ordinal = crash_ordinal
        # Every shard of one table has the same index names; the primary
        # comes first so the historical crash-point ordering survives.
        self._index_names = [
            shard_index.name for shard_index in self._sources[0].indexes.all()
        ]
        self._pass_no = 0
        self._iterator = None
        self._pins: List = []
        self._pass_runs: List = []
        self._buckets: List[List[Tuple[bytes, bytes]]] = []
        self.copied_entries = 0

    @property
    def done(self) -> bool:
        return self._pass_no >= len(self._index_names) and self._iterator is None

    def _begin_pass(self) -> None:
        name = self._index_names[self._pass_no]
        runs: List = []
        for source in self._sources:
            index = source.indexes.get(name).index
            self._pins.append(index.pin_snapshot())
            runs.extend(index.run_lists[Zone.POST_GROOMED].snapshot())
        definition = self._sources[0].indexes.get(name).index.definition
        self._pass_runs = runs
        self._buckets = [[] for _ in self._destinations]
        if runs:
            self._iterator = merge_entry_blob_streams(
                definition, runs, intent=ReadIntent.MAINTENANCE
            )
        else:
            self._iterator = iter(())

    def _finish_pass(self) -> None:
        name = self._index_names[self._pass_no]
        is_primary_pass = self._pass_no == 0
        synopsis = (
            Synopsis.union([run.header.synopsis for run in self._pass_runs])
            if self._pass_runs
            else None
        )
        for ordinal, destination in enumerate(self._destinations):
            if (
                is_primary_pass
                and self._crash_site is not None
                and ordinal == self._crash_ordinal
            ):
                crash_point(self._crash_site)
            pairs = self._buckets[ordinal]
            if not pairs or _dest_has_copy(destination, name):
                continue
            index = destination.indexes.get(name).index
            run = index.builder.build_from_blobs(
                run_id=index.allocator.allocate(Zone.POST_GROOMED),
                blob_pairs=pairs,
                synopsis=synopsis,
                zone=Zone.POST_GROOMED,
                level=index.config.levels.first_post_groomed_level,
                min_groomed_id=-1,
                max_groomed_id=-1,
                persisted=True,
                write_through_ssd=True,
            )
            index.run_lists[Zone.POST_GROOMED].push_front(run)
            self.copied_entries += len(pairs)
        self._release_pins()
        self._pass_runs = []
        self._buckets = []
        self._iterator = None
        self._pass_no += 1

    def _release_pins(self) -> None:
        pins, self._pins = self._pins, []
        for pin in pins:
            pin.release()

    def step(self, budget: Optional[int] = None) -> int:
        """Advance the copy by up to ``budget`` pairs; returns pairs pulled."""
        pulled = 0
        while self._pass_no < len(self._index_names):
            if self._iterator is None:
                self._begin_pass()
            name = self._index_names[self._pass_no]
            for sort_key, blob in self._iterator:
                self._buckets[self._bucket_of(name, sort_key)].append(
                    (sort_key, blob)
                )
                pulled += 1
                if budget is not None and pulled >= budget:
                    return pulled
            self._finish_pass()
        return pulled

    def abort(self) -> None:
        """Drop pins without building anything (crash/teardown path)."""
        self._release_pins()
        self._iterator = None
        self._pass_no = len(self._index_names)


def split_copy_stream(
    source: WildfireShard,
    left: WildfireShard,
    right: WildfireShard,
    slicers: Dict[str, ShardingKeySlicer],
) -> ShardCopyStream:
    """A :class:`ShardCopyStream` partitioning one source between two
    successors by the record's sharding-key hash bit (per-index passes).

    The source must be quiesced (post-groomed zones only); identical
    sort keys dedup to the newest copy, exactly as evolve/merge do.  The
    ``split.mid_copy`` crash point sits between the two primary builds.
    """

    def bucket_of(index_name: str, sort_key: bytes) -> int:
        return successor_side(slicers[index_name].hash_of_sort_key(sort_key))

    return ShardCopyStream(
        sources=(source,),
        destinations=(left, right),
        bucket_of=bucket_of,
        crash_site="split.mid_copy",
        crash_ordinal=1,
    )


__all__ = [
    "BLOCK_ID_STRIDE",
    "ShardCopyStream",
    "SplitAborted",
    "SplitError",
    "SplitUnsupported",
    "adopt_post_groomed_blocks",
    "copy_post_groomed_blocks",
    "index_slicers",
    "split_copy_stream",
    "successor_side",
]
