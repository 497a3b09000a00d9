"""One migration state machine for online shard split and merge.

A merge is a split run backwards over the same
:class:`~repro.wildfire.shardmap.SlotRoute` machinery, so both share one
phase order and one controller
(:class:`~repro.wildfire.cluster.ShardedTable`'s migration methods).
A :class:`Migration` records one in-flight (or crashed) run's progress;
its :class:`Direction` -- :data:`SPLIT` or :data:`MERGE` -- supplies
everything that differs: which shards are the sources, how many fresh
destinations the cutover allocates, the window and final routes, the
block copy, the copy stream, the crash-site prefix and the error
classes.

The phase order is ``pre_copy`` -> window -> ``copied`` ->
``published`` -> ``done`` for both directions; the
:mod:`repro.wildfire.cluster` module docstring tabulates what each
phase means for a split and for a merge.  From the window phase on,
recovery rolls forward; every copy step is idempotent, so replays are
safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set, Tuple

from repro.wildfire.engine import WildfireShard
from repro.wildfire.merge import MergeAborted, MergeError, merge_copy_stream
from repro.wildfire.shardmap import ShardMap, SlotRoute
from repro.wildfire.split import (
    ShardCopyStream,
    SplitAborted,
    SplitError,
    adopt_post_groomed_blocks,
    copy_post_groomed_blocks,
    index_slicers,
    split_copy_stream,
)


class Direction:
    """What one migration direction supplies to the shared state machine.

    Beside the attributes below, a direction implements ``locate``
    (validate a request, find its slot and sources), ``route`` (the
    slot's route in a given state), ``copy_blocks`` and ``copy_stream``
    (the data movement), and ``describe``/``identity`` (messages and
    summary keys).
    """

    name: str  # crash-site prefix: ``<name>.pre_copy`` etc.
    window: str  # the window phase, and the slot's route state during it
    final: str  # the slot's route state once the migration publishes
    error: type
    aborted: type
    fan_out: int  # fresh destination shards the cutover allocates


class _Split(Direction):
    name, window, final, fan_out = "split", "migrating", "split", 2
    error, aborted = SplitError, SplitAborted

    def locate(
        self,
        shard_map: ShardMap,
        shards: Sequence[WildfireShard],
        retired: Set[int],
        shard_ids: Tuple[int, ...],
    ) -> Tuple[int, Tuple[int, ...]]:
        (shard_id,) = shard_ids
        if shard_id in retired:
            raise SplitError(f"shard {shard_id} is retired")
        # Raises SplitUnsupported (naming the offending indexes) when any
        # index's key columns do not contain the sharding key.
        index_slicers(shards[shard_id], shard_id)
        for slot, route in enumerate(shard_map.slots):
            if route.state == "single" and route.primary == shard_id:
                return slot, shard_ids
        raise SplitError(f"shard {shard_id} does not solely own a routable slot")

    def route(self, state: str, migration: "Migration") -> SlotRoute:
        left, right = migration.destinations
        return SlotRoute(
            state, primary=migration.sources[0], left=left, right=right
        )

    def copy_blocks(self, sources, destinations) -> int:
        return copy_post_groomed_blocks(sources[0], tuple(destinations))

    def copy_stream(self, migration, sources, destinations) -> ShardCopyStream:
        slicers = index_slicers(sources[0], migration.sources[0])
        return split_copy_stream(sources[0], *destinations, slicers)

    def describe(self, migration: "Migration") -> str:
        return f"a split of shard {migration.sources[0]}"

    def identity(self, migration: "Migration") -> Dict[str, object]:
        return {
            "source": migration.sources[0],
            "successors": migration.destinations or (-1, -1),
        }


class _Merge(Direction):
    name, window, final, fan_out = "merge", "merging", "single", 1
    error, aborted = MergeError, MergeAborted

    def locate(
        self,
        shard_map: ShardMap,
        shards: Sequence[WildfireShard],
        retired: Set[int],
        shard_ids: Tuple[int, ...],
    ) -> Tuple[int, Tuple[int, ...]]:
        for shard_id in shard_ids:
            if shard_id in retired:
                raise MergeError(f"shard {shard_id} is retired")
        wanted = set(shard_ids)
        for slot, route in enumerate(shard_map.slots):
            if route.state == "split" and {route.left, route.right} == wanted:
                return slot, (route.left, route.right)
        left_id, right_id = shard_ids
        raise MergeError(
            f"shards {left_id} and {right_id} are not the two "
            "successors of one split slot"
        )

    def route(self, state: str, migration: "Migration") -> SlotRoute:
        if state == "single":
            return SlotRoute(state, primary=migration.destinations[0])
        left, right = migration.sources
        return SlotRoute(
            state, primary=migration.destinations[0], left=left, right=right
        )

    def copy_blocks(self, sources, destinations) -> int:
        return adopt_post_groomed_blocks(sources, destinations)

    def copy_stream(self, migration, sources, destinations) -> ShardCopyStream:
        return merge_copy_stream(sources, destinations[0])

    def describe(self, migration: "Migration") -> str:
        left, right = migration.sources
        return f"a merge of shards {left} and {right}"

    def identity(self, migration: "Migration") -> Dict[str, object]:
        return {
            "sources": migration.sources,
            "target": migration.destinations[0] if migration.destinations else -1,
        }


SPLIT: Direction = _Split()
MERGE: Direction = _Merge()


@dataclass
class Migration:
    """One in-flight (or crashed) split or merge's progress."""

    direction: Direction
    slot: int
    sources: Tuple[int, ...]
    destinations: Tuple[int, ...] = ()  # allocated at the write cutover
    phase: str = "pre_copy"  # -> window -> copied -> published -> done
    window_epoch: int = -1
    final_epoch: int = -1
    copied_blocks: int = 0
    copied_entries: int = 0
    quiesce_grooms: int = 0

    def summary(self) -> Dict[str, object]:
        """Progress under the direction's own keys (``source``/
        ``successors``/``migrating_epoch`` for a split; ``sources``/
        ``target``/``merging_epoch`` for a merge)."""
        return {
            **self.direction.identity(self),
            "phase": self.phase,
            f"{self.direction.window}_epoch": self.window_epoch,
            "final_epoch": self.final_epoch,
            "copied_blocks": self.copied_blocks,
            "copied_entries": self.copied_entries,
            "quiesce_grooms": self.quiesce_grooms,
        }


__all__ = ["Direction", "MERGE", "Migration", "SPLIT"]
