"""I/O accounting for the simulated storage tiers.

The paper cannot report absolute numbers (Wildfire is product code), and
neither can a pure-Python reproduction hope to match a 28-core Xeon with an
NVMe SSD.  What *can* be reproduced exactly is the relative cost structure:
shared storage is orders of magnitude more expensive than the SSD cache,
which is more expensive than memory.  Every tier operation charges a
deterministic number of simulated nanoseconds here, and the benchmark
harness reports normalized simulated costs -- the same normalization the
paper uses.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field, fields
from typing import Dict


class ReadIntent(enum.Enum):
    """Why a block is being read -- the cache-admission signal.

    ``QUERY`` reads serve user-facing lookups and scans: on a shared-storage
    miss the block is promoted into the SSD cache so future queries hit
    locally (the paper's block-basis transfer).  ``MAINTENANCE`` reads come
    from background machinery -- streaming evolve, within-zone merges, the
    post-groomer's groomed-block scans, crash-recovery validation -- that
    touches each block once and never again; admitting those blocks would
    only displace query-hot data from a bounded cache (classic scan
    thrashing).  MAINTENANCE reads therefore never promote into the memory
    or SSD tiers.
    """

    QUERY = "query"
    MAINTENANCE = "maintenance"


@dataclass
class IntentStats:
    """Per-:class:`ReadIntent` cache-path counters.

    One instance exists per intent on each :class:`IOStats` ledger.
    ``reads`` counts :meth:`StorageHierarchy.read` calls attributed to the
    intent; ``memory_hits``/``ssd_hits`` are local-tier hits,
    ``shared_reads`` are misses that went to shared storage, and
    ``promotions`` counts blocks written into the SSD cache as a result of
    such a miss.  A healthy maintenance-aware configuration shows
    ``promotions == 0`` for the MAINTENANCE intent while query promotions
    continue to warm the cache.

    Counters are plain ints incremented without the ledger lock (same
    rationale as :class:`DecodeStats`: they sit on the per-block read path
    and the GIL makes the increments adequate for benchmark/test usage).
    """

    reads: int = 0
    memory_hits: int = 0
    ssd_hits: int = 0
    shared_reads: int = 0
    promotions: int = 0
    # Transient-fault handling on the shared-read path (ISSUE 6):
    # ``retries`` counts shared reads re-issued after a TransientIOError,
    # ``giveups`` counts reads abandoned after the retry budget ran out
    # (the error propagates to the caller).
    retries: int = 0
    giveups: int = 0

    def snapshot(self) -> "IntentStats":
        return IntentStats(
            reads=self.reads,
            memory_hits=self.memory_hits,
            ssd_hits=self.ssd_hits,
            shared_reads=self.shared_reads,
            promotions=self.promotions,
            retries=self.retries,
            giveups=self.giveups,
        )

    def diff(self, earlier: "IntentStats") -> "IntentStats":
        return IntentStats(
            reads=self.reads - earlier.reads,
            memory_hits=self.memory_hits - earlier.memory_hits,
            ssd_hits=self.ssd_hits - earlier.ssd_hits,
            shared_reads=self.shared_reads - earlier.shared_reads,
            promotions=self.promotions - earlier.promotions,
            retries=self.retries - earlier.retries,
            giveups=self.giveups - earlier.giveups,
        )

    def local_hit_rate(self) -> float:
        """Fraction of reads served by a local tier (1.0 when no reads)."""
        if self.reads == 0:
            return 1.0
        return (self.memory_hits + self.ssd_hits) / self.reads

    def reset(self) -> None:
        self.reads = 0
        self.memory_hits = 0
        self.ssd_hits = 0
        self.shared_reads = 0
        self.promotions = 0
        self.retries = 0
        self.giveups = 0


@dataclass
class FaultStats:
    """Aggregate fault-injection and fault-handling counters (ISSUE 6).

    The injection side (``transient_*_errors``, ``torn_writes``,
    ``dropped_headers``, ``bit_flips``, ``crashes_injected``) is
    incremented by the deterministic fault injector (``repro.faults``);
    the handling side (``*_retries``, ``*_giveups``, ``backoff_sim_ns``)
    by :class:`~repro.storage.hierarchy.StorageHierarchy`'s retry loops.
    Together they make fault tests counter-asserted: every injected
    transient error must show up as exactly one retry or one give-up.

    Counters are plain ints incremented without the ledger lock (same
    rationale as :class:`DecodeStats`).
    """

    transient_read_errors: int = 0
    transient_write_errors: int = 0
    read_retries: int = 0
    write_retries: int = 0
    read_giveups: int = 0
    write_giveups: int = 0
    backoff_sim_ns: int = 0
    torn_writes: int = 0
    dropped_headers: int = 0
    bit_flips: int = 0
    crashes_injected: int = 0

    def snapshot(self) -> "FaultStats":
        return FaultStats(
            transient_read_errors=self.transient_read_errors,
            transient_write_errors=self.transient_write_errors,
            read_retries=self.read_retries,
            write_retries=self.write_retries,
            read_giveups=self.read_giveups,
            write_giveups=self.write_giveups,
            backoff_sim_ns=self.backoff_sim_ns,
            torn_writes=self.torn_writes,
            dropped_headers=self.dropped_headers,
            bit_flips=self.bit_flips,
            crashes_injected=self.crashes_injected,
        )

    def diff(self, earlier: "FaultStats") -> "FaultStats":
        return FaultStats(
            transient_read_errors=(
                self.transient_read_errors - earlier.transient_read_errors
            ),
            transient_write_errors=(
                self.transient_write_errors - earlier.transient_write_errors
            ),
            read_retries=self.read_retries - earlier.read_retries,
            write_retries=self.write_retries - earlier.write_retries,
            read_giveups=self.read_giveups - earlier.read_giveups,
            write_giveups=self.write_giveups - earlier.write_giveups,
            backoff_sim_ns=self.backoff_sim_ns - earlier.backoff_sim_ns,
            torn_writes=self.torn_writes - earlier.torn_writes,
            dropped_headers=self.dropped_headers - earlier.dropped_headers,
            bit_flips=self.bit_flips - earlier.bit_flips,
            crashes_injected=self.crashes_injected - earlier.crashes_injected,
        )

    @property
    def transient_errors(self) -> int:
        return self.transient_read_errors + self.transient_write_errors

    @property
    def retries(self) -> int:
        return self.read_retries + self.write_retries

    @property
    def giveups(self) -> int:
        return self.read_giveups + self.write_giveups

    def reset(self) -> None:
        self.transient_read_errors = 0
        self.transient_write_errors = 0
        self.read_retries = 0
        self.write_retries = 0
        self.read_giveups = 0
        self.write_giveups = 0
        self.backoff_sim_ns = 0
        self.torn_writes = 0
        self.dropped_headers = 0
        self.bit_flips = 0
        self.crashes_injected = 0


@dataclass
class QosStats:
    """Overload-protection counters (ISSUE 7).

    The admission side (``admitted``/``shed``/``deadline_misses``/
    ``queue_sim_ns``) is maintained by
    :class:`~repro.qos.admission.AdmissionController`: every query entering
    the cluster front door is either admitted (possibly after a simulated
    queueing delay, charged to ``queue_sim_ns``) or shed with a typed
    ``Overloaded``/``DeadlineExceeded`` error.  ``deadline_misses`` counts
    queries that were admitted but finished past their deadline (the work
    was done; the caller is told it was late).

    The breaker side is maintained by
    :class:`~repro.qos.breaker.CircuitBreaker`: ``breaker_opens``/
    ``breaker_closes`` count state transitions, ``breaker_probes`` counts
    half-open trial operations, and ``breaker_fast_fails`` counts
    operations rejected without touching the tier while the breaker was
    open.  ``degraded_reads`` counts queries served from local tiers plus
    a pinned versionset snapshot while the shared tier's breaker was open
    -- stale-bounded answers instead of errors.

    The scheduler side is maintained by
    :class:`~repro.qos.scheduler.DaemonScheduler`:
    ``maintenance_cycles`` counts maintenance work units that ran,
    ``maintenance_throttled`` counts work units suppressed by
    backpressure, and ``throttle_events``/``throttle_releases`` count the
    scheduler's gate closing and re-opening.

    Counters are plain ints incremented without the ledger lock (same
    rationale as :class:`DecodeStats`).
    """

    admitted: int = 0
    shed: int = 0
    deadline_misses: int = 0
    queue_sim_ns: int = 0
    degraded_reads: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    breaker_probes: int = 0
    breaker_fast_fails: int = 0
    maintenance_cycles: int = 0
    maintenance_throttled: int = 0
    throttle_events: int = 0
    throttle_releases: int = 0

    def snapshot(self) -> "QosStats":
        return QosStats(
            admitted=self.admitted,
            shed=self.shed,
            deadline_misses=self.deadline_misses,
            queue_sim_ns=self.queue_sim_ns,
            degraded_reads=self.degraded_reads,
            breaker_opens=self.breaker_opens,
            breaker_closes=self.breaker_closes,
            breaker_probes=self.breaker_probes,
            breaker_fast_fails=self.breaker_fast_fails,
            maintenance_cycles=self.maintenance_cycles,
            maintenance_throttled=self.maintenance_throttled,
            throttle_events=self.throttle_events,
            throttle_releases=self.throttle_releases,
        )

    def diff(self, earlier: "QosStats") -> "QosStats":
        return QosStats(
            admitted=self.admitted - earlier.admitted,
            shed=self.shed - earlier.shed,
            deadline_misses=self.deadline_misses - earlier.deadline_misses,
            queue_sim_ns=self.queue_sim_ns - earlier.queue_sim_ns,
            degraded_reads=self.degraded_reads - earlier.degraded_reads,
            breaker_opens=self.breaker_opens - earlier.breaker_opens,
            breaker_closes=self.breaker_closes - earlier.breaker_closes,
            breaker_probes=self.breaker_probes - earlier.breaker_probes,
            breaker_fast_fails=(
                self.breaker_fast_fails - earlier.breaker_fast_fails
            ),
            maintenance_cycles=(
                self.maintenance_cycles - earlier.maintenance_cycles
            ),
            maintenance_throttled=(
                self.maintenance_throttled - earlier.maintenance_throttled
            ),
            throttle_events=self.throttle_events - earlier.throttle_events,
            throttle_releases=self.throttle_releases - earlier.throttle_releases,
        )

    @property
    def offered(self) -> int:
        """Total queries that reached the front door (admitted + shed)."""
        return self.admitted + self.shed

    def shed_rate(self) -> float:
        """Fraction of offered queries that were shed (0.0 when idle)."""
        offered = self.offered
        if offered == 0:
            return 0.0
        return self.shed / offered

    def reset(self) -> None:
        self.admitted = 0
        self.shed = 0
        self.deadline_misses = 0
        self.queue_sim_ns = 0
        self.degraded_reads = 0
        self.breaker_opens = 0
        self.breaker_closes = 0
        self.breaker_probes = 0
        self.breaker_fast_fails = 0
        self.maintenance_cycles = 0
        self.maintenance_throttled = 0
        self.throttle_events = 0
        self.throttle_releases = 0


@dataclass
class EpochStats:
    """Counters for the run lifecycle (``core.epoch``).

    Queries *pin* an immutable run-list version for their whole lifetime;
    maintenance *retires* runs it unlinked from the lists and the
    lifecycle *reclaims* them (cache blocks released, view caches
    invalidated, shared-storage namespace freed) only once no pin still
    references them.  ``reclaims_deferred`` counts retirements that had to
    park behind a live pin; ``reclaimed_while_pinned`` counts reclaim
    actions that executed while some query still held the run -- the
    hazard the lifecycle exists to eliminate, so it must stay 0 (the
    house invariant checks read it).  ``eviction_pin_skips`` counts cache
    purge/release decisions that were skipped because the target run was
    pinned.

    The refcount-cost counters make pin cost a countable invariant:

    * ``version_refs`` / ``version_unrefs`` -- Ref/Unref operations on
      version nodes.  Exactly one of each per query, so a
      query costs **exactly 2** version-refcount operations regardless of
      run count.
    * ``versions_reclaimed`` -- version nodes whose last reference went
      away (superseded and unpinned), unblocking runs only they covered.
    * ``versions_coalesced`` -- publications folded into a later rebuild
      instead of rebuilding the current node eagerly (ISSUE 9):
      ``note_publish`` only marks the node dirty, so a merge storm's N
      back-to-back publications cost one O(runs) rebuild at the next
      pin/retire and count N-1 here.

    Counters are plain ints incremented without a lock where noted (same
    rationale as :class:`DecodeStats`); the lifecycle increments the
    pin/retire/reclaim counters under its own mutex.
    """

    pins_entered: int = 0
    pins_exited: int = 0
    versions_published: int = 0
    runs_retired: int = 0
    runs_reclaimed: int = 0
    reclaims_deferred: int = 0
    reclaimed_while_pinned: int = 0
    eviction_pin_skips: int = 0
    version_refs: int = 0
    version_unrefs: int = 0
    versions_reclaimed: int = 0
    versions_coalesced: int = 0

    def snapshot(self) -> "EpochStats":
        return EpochStats(
            pins_entered=self.pins_entered,
            pins_exited=self.pins_exited,
            versions_published=self.versions_published,
            runs_retired=self.runs_retired,
            runs_reclaimed=self.runs_reclaimed,
            reclaims_deferred=self.reclaims_deferred,
            reclaimed_while_pinned=self.reclaimed_while_pinned,
            eviction_pin_skips=self.eviction_pin_skips,
            version_refs=self.version_refs,
            version_unrefs=self.version_unrefs,
            versions_reclaimed=self.versions_reclaimed,
            versions_coalesced=self.versions_coalesced,
        )

    def diff(self, earlier: "EpochStats") -> "EpochStats":
        return EpochStats(
            pins_entered=self.pins_entered - earlier.pins_entered,
            pins_exited=self.pins_exited - earlier.pins_exited,
            versions_published=self.versions_published - earlier.versions_published,
            runs_retired=self.runs_retired - earlier.runs_retired,
            runs_reclaimed=self.runs_reclaimed - earlier.runs_reclaimed,
            reclaims_deferred=self.reclaims_deferred - earlier.reclaims_deferred,
            reclaimed_while_pinned=(
                self.reclaimed_while_pinned - earlier.reclaimed_while_pinned
            ),
            eviction_pin_skips=self.eviction_pin_skips - earlier.eviction_pin_skips,
            version_refs=self.version_refs - earlier.version_refs,
            version_unrefs=self.version_unrefs - earlier.version_unrefs,
            versions_reclaimed=self.versions_reclaimed - earlier.versions_reclaimed,
            versions_coalesced=self.versions_coalesced - earlier.versions_coalesced,
        )

    def reset(self) -> None:
        self.pins_entered = 0
        self.pins_exited = 0
        self.versions_published = 0
        self.runs_retired = 0
        self.runs_reclaimed = 0
        self.reclaims_deferred = 0
        self.reclaimed_while_pinned = 0
        self.eviction_pin_skips = 0
        self.version_refs = 0
        self.version_unrefs = 0
        self.versions_reclaimed = 0
        self.versions_coalesced = 0


@dataclass
class TierStats:
    """Counters for a single storage tier."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    sim_ns: int = 0

    def snapshot(self) -> "TierStats":
        """Return a copy of the current counters."""
        return TierStats(
            reads=self.reads,
            writes=self.writes,
            deletes=self.deletes,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            sim_ns=self.sim_ns,
        )

    def diff(self, earlier: "TierStats") -> "TierStats":
        """Return the delta between this snapshot and an ``earlier`` one."""
        return TierStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            deletes=self.deletes - earlier.deletes,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            sim_ns=self.sim_ns - earlier.sim_ns,
        )


@dataclass
class DecodeStats:
    """CPU-side counters for the run read path (zero-decode accounting).

    The simulated tiers charge I/O; these counters charge *object
    materialization*, the cost the memcmp-comparable key format exists to
    avoid.  ``entry_decodes`` counts full ``IndexEntry.from_bytes`` calls,
    ``raw_key_probes`` counts zero-decode sort-key slice fetches, and
    ``blob_copies`` counts pre-serialized entry blobs forwarded verbatim
    (the merge fast path).  A healthy hot path probes raw keys many times
    per entry decode.

    Counters are plain ints incremented without the ledger lock: they sit
    on every binary-search probe, and the GIL already makes the increments
    adequate for the single-writer benchmark/test usage they serve.
    """

    entry_decodes: int = 0
    raw_key_probes: int = 0
    blob_copies: int = 0
    # Maintenance/write-path counters (PR 2).  ``evolve_blob_splices``
    # counts entries migrated across zones as raw RID/key splices (the
    # streaming evolve path), and ``checksum_validations`` counts data
    # blocks re-validated by CRC instead of by decoding (recovery, journal).
    evolve_blob_splices: int = 0
    checksum_validations: int = 0

    def snapshot(self) -> "DecodeStats":
        return DecodeStats(
            entry_decodes=self.entry_decodes,
            raw_key_probes=self.raw_key_probes,
            blob_copies=self.blob_copies,
            evolve_blob_splices=self.evolve_blob_splices,
            checksum_validations=self.checksum_validations,
        )

    def diff(self, earlier: "DecodeStats") -> "DecodeStats":
        return DecodeStats(
            entry_decodes=self.entry_decodes - earlier.entry_decodes,
            raw_key_probes=self.raw_key_probes - earlier.raw_key_probes,
            blob_copies=self.blob_copies - earlier.blob_copies,
            evolve_blob_splices=self.evolve_blob_splices - earlier.evolve_blob_splices,
            checksum_validations=self.checksum_validations - earlier.checksum_validations,
        )

    def reset(self) -> None:
        self.entry_decodes = 0
        self.raw_key_probes = 0
        self.blob_copies = 0
        self.evolve_blob_splices = 0
        self.checksum_validations = 0


def _add_fields(target, source) -> None:
    """Add every dataclass counter field of ``source`` into ``target``."""
    for spec in fields(source):
        setattr(
            target, spec.name, getattr(target, spec.name) + getattr(source, spec.name)
        )


class IOStats:
    """Thread-safe ledger of per-tier I/O counters.

    A single ``IOStats`` instance is shared by all tiers of one
    :class:`~repro.storage.hierarchy.StorageHierarchy`, so end-to-end
    experiments can ask "how many simulated nanoseconds did this query
    cost, and on which tier".  The ``decode`` sub-ledger counts CPU-side
    entry materializations on the same hierarchy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tiers: Dict[str, TierStats] = {}
        self.decode = DecodeStats()
        # Epoch-pinned run lifecycle counters (see core.epoch): query pins,
        # atomic version publications, and retire/reclaim progress.
        self.epochs = EpochStats()
        # Per-intent cache-path counters (see ReadIntent): who read blocks,
        # where the reads were served, and which reads admitted blocks into
        # the SSD cache.
        self.intents: Dict[ReadIntent, IntentStats] = {
            ReadIntent.QUERY: IntentStats(),
            ReadIntent.MAINTENANCE: IntentStats(),
        }
        # Fault-injection and transient-retry counters (see FaultStats).
        self.faults = FaultStats()
        # Overload-protection counters (see QosStats): admission control,
        # circuit-breaker transitions, degraded reads, and maintenance
        # backpressure.
        self.qos = QosStats()
        # Per-component read attribution (ISSUE 9): block reads charged to
        # a named component ("index:primary", "index:by_customer",
        # "records", ...) while a StorageHierarchy.attributing scope is
        # active.  Empty -- and cost-free -- outside such scopes, so
        # existing benchmarks see byte-identical ledgers.
        self._attribution: Dict[str, int] = {}

    def record_attributed(self, component: str) -> None:
        """Charge one block read to ``component`` (attribution scopes)."""
        with self._lock:
            self._attribution[component] = self._attribution.get(component, 0) + 1

    def attributed_reads(self, component: str) -> int:
        """Block reads charged to ``component`` (0 if never scoped)."""
        with self._lock:
            return self._attribution.get(component, 0)

    def attribution_snapshot(self) -> Dict[str, int]:
        """Copy of the per-component read-attribution counters."""
        with self._lock:
            return dict(self._attribution)

    def for_intent(self, intent: ReadIntent) -> IntentStats:
        """The live (mutable) counter object for one read intent."""
        return self.intents[intent]

    def intent_snapshot(self) -> Dict[str, IntentStats]:
        """Snapshot of both intents' counters, keyed by intent value."""
        return {
            intent.value: stats.snapshot()
            for intent, stats in self.intents.items()
        }

    def record_read(self, tier: str, nbytes: int, sim_ns: int) -> None:
        with self._lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.reads += 1
            stats.bytes_read += nbytes
            stats.sim_ns += sim_ns

    def record_write(self, tier: str, nbytes: int, sim_ns: int) -> None:
        with self._lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.writes += 1
            stats.bytes_written += nbytes
            stats.sim_ns += sim_ns

    def record_delete(self, tier: str, sim_ns: int) -> None:
        with self._lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.deletes += 1
            stats.sim_ns += sim_ns

    def record_backoff(self, tier: str, sim_ns: int) -> None:
        """Charge retry-backoff waiting time to a tier's simulated clock.

        No read/write is counted -- the op that failed already charged (or
        will charge) its own I/O; this is purely the time spent waiting
        between attempts.
        """
        with self._lock:
            stats = self._tiers.setdefault(tier, TierStats())
            stats.sim_ns += sim_ns
        self.faults.backoff_sim_ns += sim_ns

    def tier(self, tier: str) -> TierStats:
        """Return a snapshot of one tier's counters (zeros if untouched)."""
        with self._lock:
            return self._tiers.get(tier, TierStats()).snapshot()

    def snapshot(self) -> Dict[str, TierStats]:
        """Return a snapshot of all tiers' counters."""
        with self._lock:
            return {name: stats.snapshot() for name, stats in self._tiers.items()}

    @property
    def total_sim_ns(self) -> int:
        """Total simulated nanoseconds charged across all tiers."""
        with self._lock:
            return sum(stats.sim_ns for stats in self._tiers.values())

    def merge(self, other: "IOStats") -> "IOStats":
        """Fold another ledger's counters into this one; returns ``self``.

        Cluster-level aggregation (ISSUE 8): per-shard ledgers roll up
        into one cluster view with *every* sub-ledger preserved -- tier
        counters, decode, epoch/lifecycle, per-intent cache-path, fault,
        and qos counters -- not just the top-level tier sums.  Field
        lists come from the dataclasses themselves, so a counter added to
        any sub-ledger is aggregated automatically.  ``other`` is
        snapshotted first, so merging a live ledger is safe.
        """
        other_tiers = other.snapshot()
        other_attribution = other.attribution_snapshot()
        with self._lock:
            for name, tier_stats in other_tiers.items():
                _add_fields(self._tiers.setdefault(name, TierStats()), tier_stats)
            for component, count in other_attribution.items():
                self._attribution[component] = (
                    self._attribution.get(component, 0) + count
                )
        _add_fields(self.decode, other.decode.snapshot())
        _add_fields(self.epochs, other.epochs.snapshot())
        for intent, intent_stats in other.intents.items():
            _add_fields(self.intents[intent], intent_stats.snapshot())
        _add_fields(self.faults, other.faults.snapshot())
        _add_fields(self.qos, other.qos.snapshot())
        return self

    def reset(self) -> None:
        with self._lock:
            self._tiers.clear()
            self._attribution.clear()
        self.decode.reset()
        self.epochs.reset()
        for stats in self.intents.values():
            stats.reset()
        self.faults.reset()
        self.qos.reset()
