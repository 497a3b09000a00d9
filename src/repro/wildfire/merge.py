"""Online shard merge: the inverse of split (ISSUE 10).

The cluster-facing entry point is
:meth:`repro.wildfire.cluster.ShardedTable.merge_shards`, driven by the
shared split/merge state machine in :mod:`repro.wildfire.migration`;
this module owns the pieces below it.  A merge is a split run backwards
over the same :class:`~repro.wildfire.shardmap.SlotRoute` machinery:

* the slot's route flips ``"split" -> "merging"`` at the write cutover
  (the fused target owns all fresh writes; the two old successors stay
  authoritative for everything written before the cutover, so reads
  double-read and take the newest beginTS), then ``"merging" ->
  "single"`` once the copy lands;
* the target's hybrid clock is raised to the component-wise max of both
  successors' clocks (:meth:`HybridClock.ensure_at_least` once per
  source), so no beginTS it will ever mint can collide with history;
* both successors' post-groomed record blocks are adopted verbatim
  (:func:`~repro.wildfire.split.adopt_post_groomed_blocks`) -- the
  split-time :data:`~repro.wildfire.split.BLOCK_ID_STRIDE` keeps
  the two sides' post-split block ids disjoint, so the union of ids is
  collision-free and every RID baked into entry blobs stays valid;
* every index's runs from both sides are interleaved through the same
  zero-decode ``(sort_key, blob)`` stream the split copy uses
  (:class:`~repro.wildfire.split.ShardCopyStream` with a single
  destination bucket) into one post-groomed run per index.

Crash points mirror the split's: ``merge.pre_copy`` (before anything is
published -- recovery rolls *back*, the slot keeps its split route) and
``merge.mid_copy`` / ``merge.pre_publish`` / ``merge.post_publish``
(after the write cutover -- recovery rolls *forward* by replaying the
idempotent copy and republishing).  The routing map is an immutable
object swapped atomically, so no crash can leave a torn map.
"""

from __future__ import annotations

from typing import Sequence

from repro.wildfire.engine import WildfireShard
from repro.wildfire.split import ShardCopyStream


class MergeError(RuntimeError):
    """A merge could not be started or resumed."""


class MergeAborted(MergeError):
    """A merge backed out cleanly before its write cutover.

    Raised when maintenance backpressure or an open circuit breaker says
    the cluster cannot afford the copy right now.  Nothing has been
    published: routing, data, and clocks are exactly as they were.
    """


def merge_copy_stream(
    sources: Sequence[WildfireShard], target: WildfireShard
) -> ShardCopyStream:
    """A :class:`ShardCopyStream` interleaving two quiesced sources'
    runs into the single target (per-index passes, one bucket).

    The two sides hold disjoint key sets (that is what the split
    partitioned on), so the K-way blob merge over the concatenated run
    stacks is a pure interleave: every pair survives verbatim, in full
    sort-key order.  The ``merge.mid_copy`` crash point sits immediately
    before the primary pass's single build.
    """
    return ShardCopyStream(
        sources=sources,
        destinations=(target,),
        bucket_of=lambda _name, _sort_key: 0,
        crash_site="merge.mid_copy",
        crash_ordinal=0,
    )


__all__ = [
    "MergeAborted",
    "MergeError",
    "merge_copy_stream",
]
