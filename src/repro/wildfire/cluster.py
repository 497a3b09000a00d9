"""Multi-shard tables (paper sections 2.1, 3, 8).

"Inserted records are routed by the sharding key to different shards. ...
each Umzi index structure instance serves a single table shard.  There are
a number of indexer daemons running in the cluster.  Each runs
independently ... As a result, Umzi scales up and down nicely with more or
less indexer daemons."

This module provides that outer layer: a :class:`ShardedTable` routes
upserts by the hash of the sharding key, runs each shard's lifecycle
independently (shards share nothing -- separate storage hierarchies,
logs, catalogs and index instances), and answers queries by routing
(sharding key fully bound) or scatter-gather (otherwise).

**One read pipeline.**  ``point_query``, ``range_query`` and typed
``query`` run the same steps; each read shape supplies only its shard
call, its degraded call and its merge:

1. *admit* -- under a :class:`~repro.qos.admission.QosConfig` every read
   (and every ``ingest`` batch) passes one token-bucket
   :class:`~repro.qos.admission.AdmissionController` (typed
   ``Overloaded``/``DeadlineExceeded`` sheds, per-op deadlines on the
   simulated clock);
2. *pin the map* -- every read pins the current
   :class:`~repro.wildfire.shardmap.ShardMap` epoch for its lifetime
   (exactly one Ref and one Unref on the cluster ledger: two refcount
   operations per read), so a migration's publishes are atomic swaps no
   read can observe torn;
3. *route or scatter* -- a bound sharding key reads its slot's holders
   (one shard, or two inside a migration window); otherwise every live
   holder is read, and typed scatters first skip shards whose per-index
   :class:`AccessPathSynopsis` proves the query's bounds cannot match
   (``scatter_stats()`` counts considered/contacted/pruned shards);
4. *serve* -- each shard answers through one breaker-aware call (table
   below);
5. *merge* -- newest ``beginTS`` wins per key, which is exactly what a
   migration window's double-read needs;
6. *report* -- shards that failed are named in a
   :class:`PartialResultError` carrying the surviving answer and the
   serving routing epoch, never a bare ``TransientIOError``.

Who may serve degraded (local tiers plus a pinned versionset snapshot,
counted as ``degraded_reads``) while a shard's shared-tier
:class:`~repro.qos.breaker.CircuitBreaker` is open:

==========================================  ==============================
reader                                      degraded?
==========================================  ==============================
point/range read on a non-fresh holder      yes
fresh-write holder in a migration window    never -- a snapshot could miss
                                            cut-over writes; the read
                                            reports a partial result
typed ``query``                             never, and no breaker
                                            pre-check: warm local tiers
                                            answer, a brownout reports a
                                            partial result
==========================================  ==============================

A cluster-wide :class:`~repro.qos.scheduler.DaemonScheduler` throttles
every shard's maintenance when the admission backlog, retry pressure,
or an open breaker says queries need the bandwidth.

**One migration state machine.**  :meth:`split_shard` drains a source
shard into two successors; :meth:`merge_shards` fuses a split slot's two
successors into one fresh target -- the same machinery run backwards.
One :class:`~repro.wildfire.migration.Migration` is in flight at a time,
under one lock, with one copy stream; its direction supplies what
differs.  Both run synchronously or *pumped* (:meth:`begin_split` /
:meth:`split_step` and the merge twins advance the copy in budgeted
slices between live traffic, byte-identical to the synchronous call):

==============  ==============================  ==============================
phase           split (``split.*`` crash sites) merge (``merge.*`` crash sites)
==============  ==============================  ==============================
``pre_copy``    source validated, qos gate;     both successors validated, qos
                crash rolls back                gate; crash rolls back
window          ``migrating`` route (epoch      ``merging`` route (epoch N+1):
                N+1): writes go to the two      writes go to the fused target,
                successors, reads double-read   reads double-read target + old
                successor + source              successor
copy            quiesce the source, hand its    quiesce both, raise the
                clock to both successors,       target's clock to the max of
                copy blocks verbatim, partition both, adopt both sides' blocks,
                each index's runs zero-decode   interleave runs zero-decode
                (``split.mid_copy``)            (``merge.mid_copy``)
``copied``      publish the ``split`` route     publish the ``single`` route
                (``split.pre_publish``)         (``merge.pre_publish``)
``published``   retire the source               retire both successors
                (``split.post_publish``)        (``merge.post_publish``)
``done``        no migration in flight          no migration in flight
==============  ==============================  ==============================

A :class:`~repro.faults.crash.SimulatedCrash` at any crash site leaves
the migration parked; :meth:`recover_split` / :meth:`recover_merge`
roll back before the cutover and *forward* after it (every copy step is
idempotent) -- never a torn map.  Until the final publish the
destinations are frozen: grooming there would assign ``beginTS`` from a
clock not yet handed forward, breaking newest-wins.  Shards carrying
secondary indexes migrate too: the copy runs one pass per index,
recovering each entry's sharding key zero-decode from the primary-key
suffix every secondary sort key carries.

All counters land on the cluster's own qos ledger
(:meth:`ShardedTable.qos_stats`); admission queueing delays are charged
to a synthetic ``"admission"`` tier on the same ledger, so the cluster's
simulated clock includes time spent waiting in queue.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.encoding import KeyValue, encode_composite, fnv1a64
from repro.core.entry import IndexEntry
from repro.faults.crash import crash_point
from repro.qos.admission import AdmissionController, QosConfig
from repro.qos.breaker import BreakerState, CircuitBreaker
from repro.qos.errors import PartialResultError
from repro.qos.scheduler import DaemonScheduler
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import IOStats, QosStats
from repro.storage.retry import StorageBrownout, TransientIOError
from repro.planner import Query
from repro.wildfire.engine import ShardConfig, WildfireShard, newest_per_primary_key
from repro.wildfire.indexes import PRIMARY_INDEX_NAME
from repro.wildfire.migration import MERGE, SPLIT, Direction, Migration
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, SchemaError, TableSchema
from repro.wildfire.shardmap import ShardMap, ShardMapRegistry
from repro.wildfire.split import ShardCopyStream

ADMISSION_TIER = "admission"


class _ReadShape(NamedTuple):
    """What one read shape plugs into the shared read pipeline."""

    serve: Callable  # (shard, args) -> part: the authoritative shard call
    # (shard, args) -> part from the shard's degraded snapshot pin; None:
    # the shape never degrades and skips the breaker pre-check.
    degraded: Optional[Callable]
    merge: Callable  # (table, parts, shard map) -> answer
    partial: Callable  # answer -> the PartialResultError payload
    lone: Optional[Callable] = None  # a lone holder's part -> answer
    prune: bool = False  # consult shard synopses before a scatter


def _newest_record(parts: Sequence[Optional[Record]]) -> Optional[Record]:
    """The newest version by raw ``beginTS`` (the first holder wins ties)."""
    best: Optional[Record] = None
    for record in parts:
        if record is not None and (best is None or record.begin_ts > best.begin_ts):
            best = record
    return best


def _merge_entries(
    table: "ShardedTable", parts: Sequence[List[IndexEntry]], shard_map: ShardMap
) -> List[IndexEntry]:
    """Range merge: key order, newest version per key while double-reading.

    Each shard returns at most one (newest visible) version per key;
    while any slot double-reads, two holders may both answer for a key.
    Sorting by the full sort key (key bytes + descending-encoded
    beginTS) groups one key's versions newest-first, so keeping the
    first entry per key drops both exact duplicates (copied entries are
    byte-identical) and stale versions in one pass.
    """
    definition = table.shards[0].index.definition
    entries = [entry for part in parts for entry in part]
    if not shard_map.needs_merge():
        entries.sort(key=lambda entry: entry.key_bytes(definition))
        return entries
    entries.sort(key=lambda entry: entry.sort_key(definition))
    merged: List[IndexEntry] = []
    last_key: Optional[bytes] = None
    for entry in entries:
        key = entry.key_bytes(definition)
        if key != last_key:
            last_key = key
            merged.append(entry)
    return merged


def _untag(tagged) -> List[Tuple[KeyValue, ...]]:
    return [row for _, _, row in tagged]


_POINT = _ReadShape(
    serve=lambda shard, args: shard.point_query(*args),
    degraded=lambda shard, args: shard.degraded_point_query(*args),
    merge=lambda table, parts, shard_map: _newest_record(parts),
    partial=lambda best: () if best is None else (best,),
)
_RANGE = _ReadShape(
    serve=lambda shard, args: shard.range_query(*args),
    degraded=lambda shard, args: shard.degraded_range_query(*args),
    merge=_merge_entries,
    partial=tuple,
)
_TYPED = _ReadShape(
    serve=lambda shard, query: shard._query_tagged(query),
    degraded=None,
    merge=lambda table, parts, shard_map: _untag(newest_per_primary_key(parts)),
    partial=tuple,
    lone=_untag,  # one shard's tagged rows are already newest-per-pk, sorted
    prune=True,
)


class ShardedTable:
    """A Wildfire table split into independent shards."""

    def __init__(
        self,
        schema: TableSchema,
        index_spec: IndexSpec,
        num_shards: int = 4,
        config: Optional[ShardConfig] = None,
        qos: Optional[QosConfig] = None,
        hierarchy_factory: Optional[Callable[[int], StorageHierarchy]] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not schema.sharding_key:
            raise SchemaError("a sharded table needs a sharding key")
        self.schema = schema
        self.index_spec = index_spec
        self._config = config
        # ``hierarchy_factory(shard_id)`` lets callers supply per-shard
        # storage (e.g. FaultyTier-backed hierarchies for brownout tests);
        # shards still share nothing -- one hierarchy each.
        self._hierarchy_factory = hierarchy_factory
        self._shard_positions = schema.positions(schema.sharding_key)
        # Which index key columns the sharding key pins (for routing reads).
        self._spec_eq = index_spec.equality_columns
        self._spec_sort = index_spec.sort_columns

        # -- overload protection (ISSUE 7) --------------------------------
        self.qos_config = qos
        self._qos_io = IOStats()  # cluster ledger: admission tier + QosStats
        self._admission: Optional[AdmissionController] = None
        self._scheduler: Optional[DaemonScheduler] = None
        self._breakers: List[Optional[CircuitBreaker]] = []
        if qos is not None:
            self._admission = AdmissionController(
                qos,
                stats=self._qos_io.qos,
                charge=lambda ns: self._qos_io.record_backoff(
                    ADMISSION_TIER, ns
                ),
            )
            self._scheduler = DaemonScheduler(
                qos, stats=self._qos_io.qos, admission=self._admission
            )
        self.shards: List[WildfireShard] = []
        for _ in range(num_shards):
            self._new_shard()

        # -- online split / routing epochs (ISSUE 8) ----------------------
        # The cluster ledger's EpochStats belongs exclusively to the map
        # registry (shard run-lifecycle pins live on each shard's own
        # ledger), so "two refcount ops per query" is directly observable.
        self._maps = ShardMapRegistry(
            ShardMap.initial(num_shards), stats=self._qos_io.epochs
        )
        self._retired: Set[int] = set()
        # One lock serializes split *and* merge control flow (queries
        # never take it); at most one migration is in flight at a time,
        # with at most one copy stream open.
        self._migration: Optional[Migration] = None
        self._stream: Optional[ShardCopyStream] = None
        self._migration_lock = threading.Lock()
        self._daemons_running = False
        self._daemon_interval = 0.05
        # -- typed scatter-gather pruning counters (ISSUE 10) --------------
        self._scatter_stats: Dict[str, int] = {
            "scatter_queries": 0,
            "shards_considered": 0,
            "shards_contacted": 0,
            "shards_pruned": 0,
        }

    # -- qos surface -----------------------------------------------------------------

    @property
    def admission(self) -> Optional[AdmissionController]:
        return self._admission

    @property
    def scheduler(self) -> Optional[DaemonScheduler]:
        return self._scheduler

    def breaker(self, shard_id: int) -> Optional[CircuitBreaker]:
        return self._breakers[shard_id]

    def qos_stats(self) -> QosStats:
        """The live cluster qos ledger (admission + breakers + scheduler)."""
        return self._qos_io.qos

    def epoch_stats(self):
        """The live routing-epoch ledger (map pins/publishes/reclaims).

        This is the cluster ledger's :class:`EpochStats` and it belongs
        exclusively to the :class:`ShardMapRegistry`, so "exactly two
        refcount operations per query" is directly observable on it;
        shard run-lifecycle pins are counted on each shard's own ledger.
        """
        return self._qos_io.epochs

    def sim_now(self) -> int:
        """Cluster simulated clock: arrival time + work + queue waits.

        The arrival clock (:meth:`advance_clock`) contributes so that
        idle simulated time also elapses for the circuit breakers: a
        breaker's open window can lapse while the cluster waits for the
        next client batch, not only while it burns work ns.
        """
        arrival = self._admission.now_ns if self._admission is not None else 0
        return (
            arrival
            + self._qos_io.total_sim_ns
            + sum(shard.hierarchy.stats.total_sim_ns for shard in self.shards)
        )

    def advance_clock(self, delta_ns: int) -> None:
        """Advance the admission arrival clock (offered-load time).

        Closed-loop drivers call this between client batches; without a
        qos config it is a no-op so drivers need not special-case."""
        if self._admission is not None:
            self._admission.advance(delta_ns)

    # -- routing --------------------------------------------------------------------

    @property
    def maps(self) -> ShardMapRegistry:
        """The routing-epoch registry (tests and the split controller)."""
        return self._maps

    def routing_epoch(self) -> int:
        return self._maps.epoch

    def live_shard_ids(self) -> List[int]:
        """Shards that still serve (everything not retired by a split)."""
        return [
            shard_id
            for shard_id in range(len(self.shards))
            if shard_id not in self._retired
        ]

    def key_hash(self, sharding_values: Tuple[KeyValue, ...]) -> int:
        return fnv1a64(encode_composite(tuple(sharding_values)))

    def shard_of_row(self, row: Sequence[KeyValue]) -> int:
        values = tuple(row[i] for i in self._shard_positions)
        return self.shard_of_key(values)

    def shard_of_key(self, sharding_values: Tuple[KeyValue, ...]) -> int:
        """Where a new row for this sharding key lands *right now*."""
        return self._maps.current.write_shard(self.key_hash(sharding_values))

    def _bound_sharding_values(
        self,
        equality_values: Sequence[KeyValue],
        sort_values: Sequence[KeyValue],
    ) -> Optional[Tuple[KeyValue, ...]]:
        """Sharding values when the index key values bind them all."""
        bound = dict(zip(self._spec_eq, equality_values))
        bound.update(zip(self._spec_sort, sort_values))
        return self._sharding_values(bound)

    def _sharding_values(
        self, bound: Dict[str, KeyValue]
    ) -> Optional[Tuple[KeyValue, ...]]:
        """Sharding values when ``bound`` binds them all, else ``None``."""
        try:
            return tuple(bound[name] for name in self.schema.sharding_key)
        except KeyError:
            return None

    # -- ingestion -------------------------------------------------------------------

    def ingest(self, rows: Sequence[Sequence[KeyValue]]) -> Dict[int, int]:
        """Route rows to shards; returns rows-per-shard for observability.

        Under a qos config the whole batch passes admission control first
        (one token per batch) and its deadline is tracked like a query's.
        """
        return self._admitted(self._ingest_inner, rows)

    def _ingest_inner(
        self, rows: Sequence[Sequence[KeyValue]]
    ) -> Dict[int, int]:
        per_shard: Dict[int, List[Sequence[KeyValue]]] = {}
        # One map pin covers the whole batch: every row of the batch is
        # routed by the same epoch, and a concurrent split's cutover
        # publish happens entirely before or entirely after it.
        with self._maps.pin() as pin:
            for row in rows:
                values = tuple(row[i] for i in self._shard_positions)
                shard_id = pin.map.write_shard(self.key_hash(values))
                per_shard.setdefault(shard_id, []).append(row)
            for shard_id, shard_rows in per_shard.items():
                self.shards[shard_id].ingest(shard_rows)
        return {shard_id: len(rs) for shard_id, rs in per_shard.items()}

    # -- lifecycle --------------------------------------------------------------------

    def _maintenance_skip(self) -> Set[int]:
        """Shards whose lifecycle must not run right now.

        Retired sources stay readable for old-epoch pins but never groom
        again.  A split's successors -- and a merge's target -- are
        frozen until their final publish: grooming there would assign
        ``beginTS`` from a clock that has not yet been handed forward
        from the source(s), which would break the double-read's
        newest-wins comparison.
        """
        skip = set(self._retired)
        migration = self._migration
        if migration is not None and migration.phase not in ("published", "done"):
            skip.update(migration.destinations)
        return skip

    def tick(self) -> None:
        """One lifecycle cycle on every live shard (deterministic driver)."""
        skip = self._maintenance_skip()
        for shard_id, shard in enumerate(self.shards):
            if shard_id not in skip:
                shard.tick()

    def run_cycles(self, cycles: int) -> None:
        for _ in range(cycles):
            self.tick()

    def start_daemons(self, groom_interval_s: float = 0.05) -> None:
        self._daemons_running = True
        self._daemon_interval = groom_interval_s
        skip = self._maintenance_skip()
        for shard_id, shard in enumerate(self.shards):
            if shard_id not in skip and not shard._daemon_threads:
                shard.start_daemons(groom_interval_s=groom_interval_s)

    def stop_daemons(self) -> None:
        self._daemons_running = False
        for shard in self.shards:
            shard.stop_daemons()

    # -- online shard split and merge: one migration state machine ----------------

    def split_shard(self, shard_id: int) -> Dict[str, object]:
        """Split one shard's slot into two successor shards, online.

        Serialized with other migrations; queries never take this lock.
        A :class:`~repro.faults.crash.SimulatedCrash` at any of the four
        ``split.*`` crash points leaves the migration parked for
        :meth:`recover_split`.
        """
        with self._migration_lock:
            return self._run_migration(self._start_migration(SPLIT, (shard_id,)))

    def begin_split(self, shard_id: int) -> Dict[str, object]:
        """Start a *pumped* split: run the write cutover, then return.

        The copy advances in budgeted slices via :meth:`split_step`
        interleaved with live traffic; the double-read window stays open
        (and correct) however long the pump takes.  The end state is
        byte-identical to a synchronous :meth:`split_shard`.
        """
        return self._begin_migration(SPLIT, (shard_id,))

    def split_step(self, budget: int = 2048) -> Dict[str, object]:
        """Advance an in-flight split by up to ``budget`` copied pairs.

        Runs the remaining phases (publish + retire) as soon as the copy
        stream drains.  Returns the state summary plus ``pulled`` (pairs
        copied this call); ``phase == "done"`` means the split finished.
        """
        return self._step_migration(SPLIT, budget)

    def recover_split(self) -> Dict[str, object]:
        """Resume (or roll back) a split interrupted by a crash.

        * crash before the write cutover (``split.pre_copy``): nothing
          was published -- discard the state, routing is fully-old;
        * crash anywhere after the cutover: roll *forward* by replaying
          the remaining phases (every copy step is idempotent) until the
          final map is published and the source retired.

        Idempotent: calling with no interrupted split is a no-op.
        """
        return self._recover_migration(SPLIT)

    def merge_shards(self, left_id: int, right_id: int) -> Dict[str, object]:
        """Fuse a split slot's two successors back into one shard, online.

        The reversed migration: publish a ``merging`` route (fresh
        writes land on the fused target, reads double-read target + old
        successor and keep the newest ``beginTS``), quiesce both
        sources, hand the clock forward to the max of their two HLCs,
        adopt both sides' record blocks verbatim and interleave their
        runs zero-decode, then publish the ``single`` route and retire
        both sources.  A :class:`~repro.faults.crash.SimulatedCrash` at
        any of the four ``merge.*`` crash points leaves the migration
        parked for :meth:`recover_merge`.
        """
        with self._migration_lock:
            return self._run_migration(
                self._start_migration(MERGE, (left_id, right_id))
            )

    def begin_merge(self, left_id: int, right_id: int) -> Dict[str, object]:
        """Start a *pumped* merge: run the write cutover, then return.

        The copy advances in budgeted slices via :meth:`merge_step`; the
        end state is byte-identical to a synchronous
        :meth:`merge_shards`.
        """
        return self._begin_migration(MERGE, (left_id, right_id))

    def merge_step(self, budget: int = 2048) -> Dict[str, object]:
        """Advance an in-flight merge by up to ``budget`` copied pairs."""
        return self._step_migration(MERGE, budget)

    def recover_merge(self) -> Dict[str, object]:
        """Resume (or roll back) a merge interrupted by a crash.

        * crash before the write cutover (``merge.pre_copy``): nothing
          was published -- discard the state, the slot keeps its
          ``split`` route;
        * crash anywhere after the cutover: roll *forward* by replaying
          the remaining phases (block adoption and the run interleave
          are idempotent) until the ``single`` route is published and
          both sources retired.

        Idempotent: calling with no interrupted merge is a no-op.
        """
        return self._recover_migration(MERGE)

    def _start_migration(
        self, direction: Direction, shard_ids: Tuple[int, ...]
    ) -> Migration:
        """Validate a request and park its state machine (lock held)."""
        active = self._migration
        if active is not None:
            raise active.direction.error(
                f"{active.direction.describe(active)} is already in "
                "flight; recover it first"
            )
        slot, sources = direction.locate(
            self._maps.current, self.shards, self._retired, shard_ids
        )
        self._migration = Migration(direction, slot, sources)
        return self._migration

    def _begin_migration(
        self, direction: Direction, shard_ids: Tuple[int, ...]
    ) -> Dict[str, object]:
        with self._migration_lock:
            migration = self._start_migration(direction, shard_ids)
            self._cutover(migration)
            return {"epoch": self._maps.epoch, **migration.summary()}

    def _in_flight(self, direction: Direction) -> Optional[Migration]:
        migration = self._migration
        if migration is None or migration.direction is not direction:
            return None
        return migration

    def _step_migration(
        self, direction: Direction, budget: int
    ) -> Dict[str, object]:
        with self._migration_lock:
            migration = self._in_flight(direction)
            if migration is None:
                raise direction.error(f"no {direction.name} is in flight")
            pulled = 0
            if migration.phase == "pre_copy":
                self._cutover(migration)
            elif migration.phase == direction.window:
                self._prepare(migration)
                pulled = self._stream.step(budget)
                if self._stream.done:
                    self._finish_copy(migration)
            if migration.phase == direction.window:
                return {
                    "epoch": self._maps.epoch,
                    "pulled": pulled,
                    **migration.summary(),
                }
            result = self._run_migration(migration)
            result["pulled"] = pulled
            return result

    def _recover_migration(self, direction: Direction) -> Dict[str, object]:
        with self._migration_lock:
            migration = self._in_flight(direction)
            if migration is None:
                return {"resumed": False, "epoch": self._maps.epoch}
            if self._stream is not None:
                # A partial pump (or a crash mid-stream) left pinned
                # snapshots behind; drop them and replay the idempotent
                # copy from the top.
                self._stream.abort()
                self._stream = None
            if migration.phase == "pre_copy":
                self._migration = None
                return {
                    "resumed": True,
                    "outcome": "rolled_back",
                    "epoch": self._maps.epoch,
                }
            result = self._run_migration(migration)
            result["outcome"] = "rolled_forward"
            return result

    def _gate(self, migration: Migration) -> None:
        """Backpressure gate: refuse to even start a migration under duress.

        Only consulted before the write cutover -- past that point the
        only safe direction is forward, whatever the breakers say.
        """
        name = migration.direction.name
        aborted = migration.direction.aborted
        if self._scheduler is not None and not self._scheduler.allow_maintenance():
            self._migration = None
            raise aborted(f"maintenance backpressure: {name} refused before cutover")
        for shard_id in migration.sources:
            breaker = self._breakers[shard_id]
            if breaker is not None and breaker.state() is BreakerState.OPEN:
                self._migration = None
                raise aborted(f"shard {shard_id} breaker is open; {name} refused")

    def _cutover(self, migration: Migration) -> None:
        """Phase ``pre_copy`` -> window: the write cutover."""
        direction = migration.direction
        self._gate(migration)
        crash_point(f"{direction.name}.pre_copy")
        if not migration.destinations:
            migration.destinations = tuple(
                self._new_shard() for _ in range(direction.fan_out)
            )
        current = self._maps.current
        window = current.with_slot(
            migration.slot,
            direction.route(direction.window, migration),
            epoch=current.epoch + 1,
        )
        # Write cutover: from this swap on, new rows for the slot land on
        # the destinations and every read double-reads.
        old = self._maps.publish(window)
        migration.window_epoch = window.epoch
        migration.phase = direction.window
        # No query pinned to the pre-cutover map may still be routing
        # writes to a source once we start draining it.
        self._maps.drain(old.epoch)

    def _prepare(self, migration: Migration) -> None:
        """Quiesce, hand the clock forward, adopt blocks, open the stream.

        Idempotent: every sub-step tolerates replay, and the stream is
        only (re)built when none is open -- a pump calls this once per
        step, a crash recovery rebuilds from scratch.
        """
        if self._stream is not None:
            return
        sources = [self.shards[i] for i in migration.sources]
        destinations = [self.shards[i] for i in migration.destinations]
        for source in sources:
            # A source stops receiving writes at the cutover: its daemon
            # threads (if any) retire now, and one synchronous quiesce
            # empties its live and groomed zones for good.
            source.stop_daemons()
            migration.quiesce_grooms += source.quiesce()["grooms"]
        for destination in destinations:
            # Clock handoff (component-wise max over the sources): every
            # beginTS a destination will ever assign must sort after
            # every beginTS a source ever assigned, or the double-read's
            # newest-wins comparison lies.
            for source in sources:
                destination.clock.ensure_at_least(*source.clock.state())
            # Ghosted secondary entries travel with the copy: inheriting
            # the sources' trackers keeps index-only disqualified where a
            # source had ghosts (disagreements collapse to "unknown").
            destination.indexes.adopt_ghost_state(
                tuple(source.indexes for source in sources)
            )
        direction = migration.direction
        migration.copied_blocks += direction.copy_blocks(sources, destinations)
        self._stream = direction.copy_stream(migration, sources, destinations)

    def _finish_copy(self, migration: Migration) -> None:
        migration.copied_entries += self._stream.copied_entries
        self._stream = None
        migration.phase = "copied"

    def _run_migration(self, migration: Migration) -> Dict[str, object]:
        """Advance the state machine to completion (resumable)."""
        direction = migration.direction
        if migration.phase == "pre_copy":
            self._cutover(migration)

        if migration.phase == direction.window:
            self._prepare(migration)
            self._stream.step(budget=None)  # the synchronous copy: drain it
            self._finish_copy(migration)

        if migration.phase == "copied":
            crash_point(f"{direction.name}.pre_publish")
            final = self._maps.current.with_slot(
                migration.slot,
                direction.route(direction.final, migration),
                epoch=migration.window_epoch + 1,
            )
            self._maps.publish(final)
            migration.final_epoch = final.epoch
            migration.phase = "published"
            self._maps.drain(migration.window_epoch)

        if migration.phase == "published":
            crash_point(f"{direction.name}.post_publish")
            # Decommission: a source keeps its data (an old-epoch pin may
            # still read it) but never grooms again; the destinations
            # start their normal lifecycle, daemons included if the
            # cluster runs them.
            for source_id in migration.sources:
                source = self.shards[source_id]
                source.stop_daemons()
                source.exit_degraded_mode()
                self._retired.add(source_id)
            if self._daemons_running:
                for destination_id in migration.destinations:
                    destination = self.shards[destination_id]
                    if not destination._daemon_threads:
                        destination.start_daemons(
                            groom_interval_s=self._daemon_interval
                        )
            migration.phase = "done"
            self._migration = None

        return {
            "resumed": True,
            "epoch": self._maps.epoch,
            **migration.summary(),
        }

    def _new_shard(self) -> int:
        """Append one fresh, empty shard wired into the qos stack."""
        shard_id = len(self.shards)
        shard = WildfireShard(
            self.schema,
            self.index_spec,
            hierarchy=(
                self._hierarchy_factory(shard_id)
                if self._hierarchy_factory is not None
                else None
            ),
            config=self._config,
        )
        self.shards.append(shard)
        self.num_shards = len(self.shards)
        breaker: Optional[CircuitBreaker] = None
        if self.qos_config is not None:
            breaker = CircuitBreaker(
                f"shared/shard{shard_id}",
                self.qos_config.breaker,
                clock=self.sim_now,
                stats=self._qos_io.qos,
            )
            shard.hierarchy.attach_shared_breaker(breaker)
            shard.attach_scheduler(self._scheduler)
            self._scheduler.watch_breaker(breaker)
            self._scheduler.watch_faults(shard.hierarchy.stats.faults)
        self._breakers.append(breaker)
        return shard_id

    # -- the read pipeline ------------------------------------------------------------

    def _admitted(self, run: Callable, *args):
        """``run(*args)`` behind admission control (one token per call)."""
        if self._admission is None:
            return run(*args)
        ticket = self._admission.admit()
        start = self.sim_now()
        try:
            return run(*args)
        finally:
            ticket.finish(self.sim_now() - start)

    def point_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_values: Sequence[KeyValue] = (),
        query_ts: Optional[int] = None,
    ) -> Optional[Record]:
        """Routed when the sharding key is bound (it is, for a primary-key
        lookup: the sharding key is a subset of the primary key)."""
        return self._admitted(
            self._read,
            _POINT,
            self._bound_sharding_values(equality_values, sort_values),
            (equality_values, sort_values, query_ts),
        )

    def range_query(
        self,
        equality_values: Sequence[KeyValue] = (),
        sort_lower: Optional[Sequence[KeyValue]] = None,
        sort_upper: Optional[Sequence[KeyValue]] = None,
        query_ts: Optional[int] = None,
    ) -> List[IndexEntry]:
        """Routed if the equality columns pin the sharding key; otherwise a
        scatter-gather over every shard with a client-side merge."""
        return self._admitted(
            self._read,
            _RANGE,
            self._bound_sharding_values(equality_values, ()),
            (equality_values, sort_lower, sort_upper, query_ts),
        )

    def query(self, query: Query) -> List[Tuple[KeyValue, ...]]:
        """Planner-routed typed query across the cluster.

        Routed to one slot when the query's equality predicates bind
        every sharding-key column; otherwise a pruned scatter-gather over
        all live shards.  Each shard plans its own access path (its
        planner sees its own statistics), returns ``(pk, beginTS, row)``
        tagged rows, and the gather merges them newest-beginTS-wins per
        primary key before dropping the tags.  Rows come back sorted by
        (row values, primary key), identical to
        :meth:`WildfireShard.query`.

        Typed queries never serve degraded (snapshot-pinned) answers: a
        browned-out shard is reported in a :class:`PartialResultError`
        naming it, tagged with the serving epoch, instead of silently
        narrowing the result.
        """
        return self._admitted(
            self._read, _TYPED, self._sharding_values(dict(query.equalities)), query
        )

    def _read(self, shape: _ReadShape, values, args):
        """Pin the map, route or scatter, serve, merge, report failures."""
        with self._maps.pin() as pin:
            shard_map = pin.map
            if values is not None:
                key_hash = self.key_hash(values)
                route = shard_map.route_of(key_hash)
                reads = route.read_shards(key_hash)
                if len(reads) == 1:
                    part = self._serve(shape, reads[0], args, True)
                    return part if shape.lone is None else shape.lone(part)
                # Migration window (split *or* merge): double-read both
                # holders.  The fresh-write holder (a split's successor; a
                # merge's fused target) answers authoritatively or not at
                # all -- a degraded answer could miss cut-over writes.
                fresh: Sequence[int] = (route.write_shard(key_hash),)
            else:
                reads = shard_map.scatter_shards()
                if shape.prune:
                    reads = self._prune_scatter(list(reads), args)
                fresh = self._fresh_write_holders(shard_map)
            parts = []
            failed: List[int] = []
            cause: Optional[BaseException] = None
            for shard_id in reads:
                try:
                    parts.append(
                        self._serve(shape, shard_id, args, shard_id not in fresh)
                    )
                except TransientIOError as exc:
                    # A shard whose retry budget ran out: name it instead
                    # of letting a bare TransientIOError escape the gather.
                    failed.append(shard_id)
                    cause = exc
            answer = shape.merge(self, parts, shard_map)
            if failed:
                raise PartialResultError(
                    tuple(failed), shape.partial(answer), cause, epoch=pin.epoch
                )
            return answer

    @staticmethod
    def _fresh_write_holders(shard_map: ShardMap) -> Set[int]:
        """Shards holding freshly cut-over writes of an open migration.

        These must answer authoritatively (never degraded): a split's
        two successors during its ``migrating`` window, and a merge's
        fused target during its ``merging`` window.
        """
        holders: Set[int] = set()
        for route in shard_map.slots:
            if route.state == "migrating":
                holders.add(route.left)
                holders.add(route.right)
            elif route.state == "merging":
                holders.add(route.primary)
        return holders

    def _serve(
        self, shape: _ReadShape, shard_id: int, args, allow_degraded: bool
    ):
        """One shard's answer, with breaker-aware degraded serving."""
        shard = self.shards[shard_id]
        breaker = self._breakers[shard_id]
        if breaker is None or shape.degraded is None:
            return shape.serve(shard, args)
        if breaker.state() is not BreakerState.OPEN:
            if shard.degraded:
                shard.exit_degraded_mode()
            try:
                return shape.serve(shard, args)
            except StorageBrownout:
                # The breaker tripped mid-query: answer from the snapshot
                # pin instead of surfacing the brownout to the client.
                if not allow_degraded:
                    raise
        elif not allow_degraded:
            raise StorageBrownout(f"shared/shard{shard_id}", 0)
        shard.enter_degraded_mode()
        self._qos_io.qos.degraded_reads += 1
        return shape.degraded(shard, args)

    # -- typed scatter pruning ------------------------------------------------------------

    def scatter_stats(self) -> Dict[str, int]:
        """Typed scatter-gather pruning counters (ISSUE 10)."""
        return dict(self._scatter_stats)

    def _prune_scatter(
        self, shard_ids: List[int], query: Query
    ) -> List[int]:
        """Drop shards whose synopses prove the query cannot match there.

        Every row version a typed query can return has an entry in every
        index of its shard (they are built from the same records in the
        same publication), so if the query's bound on a column is
        disjoint from the shard's observed key range for that column in
        *any* index, the shard provably returns no rows and contacting
        it is pure fan-out cost.  Decisions read the same
        version-seq-cached synopses the shard's own planner uses, so a
        pruned shard is exactly one whose current version would have
        answered with zero rows.
        """
        self._scatter_stats["scatter_queries"] += 1
        self._scatter_stats["shards_considered"] += len(shard_ids)
        kept: List[int] = []
        for shard_id in shard_ids:
            if self._shard_prunable(shard_id, query):
                self._scatter_stats["shards_pruned"] += 1
            else:
                kept.append(shard_id)
        self._scatter_stats["shards_contacted"] += len(kept)
        return kept

    def _shard_prunable(self, shard_id: int, query: Query) -> bool:
        shard = self.shards[shard_id]
        bounds: Dict[str, Tuple[Optional[KeyValue], Optional[KeyValue]]] = {
            column: (value, value) for column, value in query.equalities
        }
        for column, low, high in query.ranges:
            bounds[column] = (low, high)
        for shard_index in shard.indexes.all():
            synopsis = shard.synopses.synopsis(shard_index.name)
            if (
                shard_index.name == PRIMARY_INDEX_NAME
                and synopsis.entry_count == 0
            ):
                # No groomed records at all: typed plans (which execute
                # over index runs) cannot produce a row from this shard.
                return True
            if synopsis.entry_count == 0:
                continue
            key_specs = shard_index.index.definition.key_columns
            for position, spec in enumerate(key_specs):
                bound = bounds.get(spec.name)
                if bound is None or position >= len(synopsis.key_ranges):
                    continue
                column_range = synopsis.key_ranges[position]
                if column_range is None:
                    continue
                low, high = bound
                try:
                    if low is not None and low > column_range.max_value:
                        return True
                    if high is not None and high < column_range.min_value:
                        return True
                except TypeError:
                    continue
        return False

    # -- observability ----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cluster stats with a *complete* ledger rollup (ISSUE 8).

        ``io`` folds the cluster's own ledger plus every shard's hierarchy
        ledger through :meth:`~repro.storage.metrics.IOStats.merge`, so
        sub-ledger counters (per-intent cache paths, fault/retry counts,
        epoch lifecycle, decode work) aggregate instead of being dropped
        like the old top-level-only summation did.  ``total_entries``
        counts live shards only: a retired source's copied entries would
        otherwise be double-counted.
        """
        per_shard = [shard.stats() for shard in self.shards]
        merged = IOStats()
        merged.merge(self._qos_io)
        for shard in self.shards:
            merged.merge(shard.hierarchy.stats)
        live = self.live_shard_ids()
        return {
            "num_shards": len(live),
            "routing_epoch": self._maps.epoch,
            "retired_shards": sorted(self._retired),
            "total_entries": sum(
                per_shard[i]["index"].total_entries for i in live  # type: ignore[index]
            ),
            "per_shard": per_shard,
            "qos": merged.qos.snapshot(),
            "scatter": self.scatter_stats(),
            "io": merged,
        }

    def crash_and_recover_shard(self, shard_id: int):
        """Crash one shard's node; the rest keep serving (independence)."""
        shard = self.shards[shard_id]
        # A degraded-mode pin references pre-crash run objects; drop it
        # before the local tiers are wiped and the run lists rebuilt.
        shard.exit_degraded_mode()
        return shard.crash_and_recover()


__all__ = ["ADMISSION_TIER", "ShardedTable"]
