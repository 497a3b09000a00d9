"""Version-set run lifecycle: safe reclamation under live queries.

The paper runs grooming, post-grooming, evolution and merging *concurrently*
with lock-free queries over one multi-zone index.  Unlinking a run from a
run list is an atomic pointer publication (``runlist.py``), so readers never
see a torn list -- but unlinking is only half the story.  The other half is
**reclamation**: once a merge or evolve has replaced a span of runs, their
data blocks are freed from shared storage and every local tier.  A query
that snapshotted the lists a microsecond earlier still holds handles to
those runs and will fault (``BlockNotFoundError``) when it reaches them.

This module closes that race with the LevelDB/RocksDB version-set design.
Every run-list publication builds one immutable :class:`RunListVersion`
node carrying a refcount and a link to its predecessor; a query pins the
*current* node with a single Ref and releases it with a single Unref --
**O(1) per query, independent of run count** (the countable invariant:
exactly two refcount operations per query, ``EpochStats.version_refs``
+ ``version_unrefs``).  Retirement walks the live-version chain and
physically frees a run only once no live version contains it; an
obsolete version dies (``versions_reclaimed``) when its last reader
unrefs it, unblocking the runs only it still covered.

Publication order makes this sound: a run is always unlinked from its
lists (one atomic tuple publication) *before* it is retired, so a pin
either captured the run before the retire check (deferral) or can no
longer see it at all.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.run import IndexRun
from repro.storage.metrics import EpochStats

# Cyclic-GC detection for finalizer-safe releases.  The collector can run
# at any allocation -- including one made while the current thread holds a
# non-reentrant lock anywhere in the storage stack (tier mutexes, the
# IOStats ledger, the lifecycle mutex itself).  A pin release executed
# from a GC finalizer must therefore never acquire locks or run reclaim
# actions inline; while the flag is set, releases park on the lifecycle's
# pending list instead (GIL-atomic append; a list resize during GC cannot
# re-enter the collector).  Refcount-driven finalization (non-cyclic) runs
# at the decref site in executor/user code, where no storage lock is held.
_gc_active = threading.local()


def _note_gc(phase: str, _info: dict) -> None:
    _gc_active.flag = phase == "start"


gc.callbacks.append(_note_gc)


def _in_gc_finalizer() -> bool:
    """Is the cyclic garbage collector running on this thread right now?"""
    return getattr(_gc_active, "flag", False)


@dataclass(frozen=True)
class RunListVersion:
    """One immutable, query-visible snapshot of an index's run lists.

    ``groomed`` holds only the *visible* groomed runs (the watermark filter
    of section 5.4 already applied -- the filter is part of the atomic
    collection, see :meth:`repro.core.index.UmziIndex._collect_version`),
    so ``candidates()`` is exactly the newest-first run set a query
    searches.  ``version_id`` is the lifecycle's publication sequence
    number at collection time.
    """

    version_id: int
    groomed: Tuple[IndexRun, ...]
    post_groomed: Tuple[IndexRun, ...]
    watermark: int

    def candidates(self) -> List[IndexRun]:
        """Candidate runs, newest first (visible groomed + post-groomed)."""
        return list(self.groomed) + list(self.post_groomed)


class _VersionNode:
    """One live entry of the version chain.

    Wraps the immutable :class:`RunListVersion` with the mutable lifecycle
    state the reclamation walk needs: the refcount (one implicit ref while
    the node is *current*, plus one per pinned query) and the precomputed
    candidate tuple and run-id set.  The chain itself is the lifecycle's
    ``_versions`` list (oldest to newest); a dead node holds no link back
    into it, so superseded versions -- and the run objects only they
    referenced -- become collectable the moment they are removed.
    ``seq`` is the lifecycle publication sequence the node was built at
    -- the staleness check is one int compare.
    """

    __slots__ = ("version", "runs", "run_ids", "refs", "seq")

    def __init__(self, version: RunListVersion, seq: int) -> None:
        self.version = version
        self.runs = tuple(version.candidates())
        self.run_ids = frozenset(run.run_id for run in self.runs)
        self.refs = 1  # the implicit "current version" reference
        self.seq = seq


class QueryPin:
    """A query's pin: one Ref on a version node of the chain.

    Released exactly once, by :meth:`RunLifecycle.release` (normally from
    the query executor's ``finally``); ``__del__`` is a backstop so a pin
    captured by a generator that is created but never iterated still
    drops its Ref when the generator is garbage-collected.
    """

    __slots__ = ("version", "runs", "_lifecycle", "_node", "_released",
                 "__weakref__")

    def __init__(self, lifecycle: "RunLifecycle", node: _VersionNode) -> None:
        self.version = node.version
        self.runs = node.runs
        self._lifecycle = lifecycle
        self._node = node
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        self._lifecycle.release(self)

    def __enter__(self) -> "QueryPin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.release()
        except Exception:
            pass


class _RetiredRun:
    """One parked reclamation: the run id plus the deferred free action."""

    __slots__ = ("run_id", "reclaim")

    def __init__(self, run_id: str, reclaim: Callable[[], None]) -> None:
        self.run_id = run_id
        self.reclaim = reclaim


class RunLifecycle:
    """Pin/retire/reclaim coordinator for one index instance.

    * The owner registers its composed-version collector once, via
      :meth:`attach_collector`; every publication marks the current
      version node dirty and the next pin or retire rebuilds it.
    * Queries call :meth:`pin`: a single Ref on the current version node
      -- O(1).
    * Maintenance calls :meth:`retire` *after* atomically unlinking the run
      from its list; the reclaim action executes immediately when no live
      version covers the run, and is parked otherwise, draining when the
      covering version dies.
    * The cache manager consults :meth:`is_pinned` before evicting.

    All counters land on the shared :class:`EpochStats` ledger
    (``IOStats.epochs``), so benchmarks can counter-assert "zero
    reclaim-while-pinned events" and "exactly two refcount operations per
    query" the same way they assert I/O costs.
    """

    def __init__(self, stats: EpochStats) -> None:
        self.stats = stats
        self._lock = threading.Lock()
        # Owner thread of `_lock`, for finalizer re-entrancy detection: a
        # cyclic-GC pass can run at any allocation, including one made
        # *inside* a locked section, and may finalize an abandoned
        # iterator whose cleanup calls release().  The lock is
        # non-reentrant, so such a release must park instead of acquiring
        # (see `_pending_releases`).
        self._owner: Optional[int] = None
        self._version_seq = 0
        # The registered composed-version collector, the current version
        # node, and the live chain (oldest -> newest; a node is live while
        # it is current or some query still refs it).
        self._collector: Optional[Callable[[], RunListVersion]] = None
        self._current: Optional[_VersionNode] = None
        self._versions: List[_VersionNode] = []
        # Publications not yet folded into a current-node rebuild:
        # note_publish only bumps this dirty count; the next pin/retire
        # that needs the current node rebuilds once, so a merge storm's N
        # eager rebuilds collapse to one (EpochStats.versions_coalesced
        # counts the N-1 saved).
        self._unbuilt_publishes = 0
        self._retired: List[_RetiredRun] = []
        # Releases parked by a finalizer (cyclic GC, or re-entering this
        # thread's own locked section), together with their deferred
        # post-release hooks; GIL-atomic appends, drained under the lock
        # by the next lifecycle operation.
        self._pending_releases: List[
            Tuple[QueryPin, Optional[Callable[[], None]]]
        ] = []

    @contextmanager
    def _locked(self) -> Iterator[None]:
        # get_ident() before acquire: the int allocation could trigger
        # cyclic GC, and a finalizer release() must never observe this
        # thread as lock-holder-with-unset-owner.  The store itself
        # replaces a pre-existing instance-dict entry (set in __init__),
        # so it cannot allocate -- there is no window between acquiring
        # and publishing ownership in which GC can run.
        ident = threading.get_ident()
        self._lock.acquire()
        self._owner = ident
        try:
            yield
        finally:
            self._owner = None
            self._lock.release()

    # -- version publication -----------------------------------------------------

    def attach_collector(
        self, collect: Callable[[], RunListVersion]
    ) -> None:
        """Register the owner's composed-version collector.

        The collector composes the published run-list tuples plus the
        watermark into one :class:`RunListVersion` (see
        :meth:`repro.core.index.UmziIndex._collect_version`).  It is
        invoked under the lifecycle mutex to rebuild the current version
        node, so it must not take locks -- the run lists'
        ``snapshot()``/``published()`` reads are lock-free by design.
        Must be called before the first :meth:`pin`.
        """
        self._collector = collect

    def note_publish(self) -> int:
        """Record one atomic run-list publication; returns the sequence.

        A publication only marks the current version node **dirty**: the
        O(runs) rebuild of the candidate tuple + run-id set is deferred to
        the first pin/retire that actually needs the current node
        (``_current_node_locked``'s seq-mismatch check).  A merge storm's
        N back-to-back publications therefore cost one rebuild instead of
        N; the N-1 folded publications are counted in
        ``EpochStats.versions_coalesced``.  Queries never observe
        staleness -- every pin refreshes through ``_current_node_locked``
        -- and a stale current node between publications only makes
        ``is_pinned``/``_covered_locked`` err on the safe side (runs look
        covered slightly longer).

        Deliberately **no** reclaim actions, parked releases, or release
        hooks execute here: ``note_publish`` is invoked from
        ``RunList._publish_locked``, i.e. while the caller still holds
        the run list's mutation lock, and storage-tier frees must never
        serialize run-list mutations (nor risk re-entering a list a hook
        might touch).  Anything a dying predecessor unblocks stays parked
        in ``_retired``/``_pending_releases`` and drains on the next
        lifecycle operation that runs unlocked (the retire that follows
        every unlink, a pin, a release, or a backlog probe).
        """
        with self._locked():
            self._version_seq += 1
            self.stats.versions_published += 1
            if self._collector is not None:
                self._unbuilt_publishes += 1
            return self._version_seq

    def _rebuild_current_locked(self) -> _VersionNode:
        """Install a fresh current version node from the collector.

        One rebuild folds every publication since the previous one; the
        surplus (N dirty publications -> 1 rebuild) is counted in
        ``EpochStats.versions_coalesced``.
        """
        if self._unbuilt_publishes > 1:
            self.stats.versions_coalesced += self._unbuilt_publishes - 1
        self._unbuilt_publishes = 0
        node = _VersionNode(self._collector(), self._version_seq)
        self._versions.append(node)
        old, self._current = self._current, node
        if old is not None:
            old.refs -= 1  # drop the implicit "current" reference
            if old.refs == 0:
                self._kill_node_locked(old)
        return node

    def _kill_node_locked(self, node: _VersionNode) -> None:
        """Drop a dead version from the live chain (bookkeeping only --
        never runs reclaim actions; callers drain those where safe)."""
        self._versions.remove(node)
        self.stats.versions_reclaimed += 1

    def _current_node_locked(self) -> _VersionNode:
        """The fresh current node, rebuilding if a publication was missed
        (collector attached after publications, e.g. recovery rewires)."""
        node = self._current
        if node is None or node.seq != self._version_seq:
            node = self._rebuild_current_locked()
        return node

    @property
    def version_seq(self) -> int:
        return self._version_seq

    # -- the query side ----------------------------------------------------------

    def pin(self) -> QueryPin:
        """Pin the current version: one Ref, no per-run loop.

        The pin never calls the collector itself: the current version
        node -- rebuilt from the collector at the first consumer after the
        last publication -- *is* the snapshot, and pinning is one refcount
        increment under the mutex (``EpochStats.version_refs``).  Snapshot
        + registration are atomic against :meth:`retire`.
        """
        with self._locked():
            hooks = self._drain_pending_locked()
            node = self._current_node_locked()
            node.refs += 1
            self.stats.version_refs += 1
            self.stats.pins_entered += 1
            ready = self._drain_locked()
        self._run_hooks(hooks)
        self._reclaim(ready)
        return QueryPin(self, node)

    def release(
        self,
        pin: QueryPin,
        after: Optional[Callable[[], None]] = None,
    ) -> None:
        """Drop the pin's Ref; drain any reclamations it was blocking.

        ``after`` runs once the pin no longer counts (the query executor's
        purged-block release hook) -- outside the lifecycle mutex.

        Safe to call from finalizers: a release initiated while the cyclic
        collector is running (an abandoned iterator's ``finally``, or
        :meth:`QueryPin.__del__`) may be interrupting a thread that holds
        *any* non-reentrant lock -- the lifecycle mutex, a storage-tier
        mutex, the stats ledger -- so it must neither acquire locks nor
        run reclaim actions or hooks inline.  Such releases (and any
        release that re-enters this thread's own locked section) park on a
        GIL-atomic pending list, drained by the next lifecycle operation.
        """
        if pin._released:
            return
        pin._released = True
        if _in_gc_finalizer() or self._owner == threading.get_ident():
            self._pending_releases.append((pin, after))
            return
        with self._locked():
            hooks = self._drain_pending_locked()
            self._release_pin_locked(pin)
            ready = self._drain_locked()
        self._run_hooks(hooks)
        self._reclaim(ready)
        if after is not None:
            after()

    def _release_pin_locked(self, pin: QueryPin) -> None:
        # A single Unref.  A superseded version whose last reader just
        # left dies here, even when the Unrefs arrive out of publication
        # order (a long-lived scan may outlive many newer versions).
        node = pin._node
        node.refs -= 1
        self.stats.version_unrefs += 1
        if node.refs == 0 and node is not self._current:
            self._kill_node_locked(node)
        self.stats.pins_exited += 1

    def _drain_pending_locked(self) -> List[Callable[[], None]]:
        """Apply releases parked by finalizers (see :meth:`release`).

        Returns their deferred post-release hooks, to be run by the caller
        *outside* the lifecycle mutex.
        """
        hooks: List[Callable[[], None]] = []
        while self._pending_releases:
            parked, after = self._pending_releases.pop()
            self._release_pin_locked(parked)
            if after is not None:
                hooks.append(after)
        return hooks

    @staticmethod
    def _run_hooks(hooks: List[Callable[[], None]]) -> None:
        for hook in hooks:
            hook()

    # -- the maintenance side ----------------------------------------------------

    def retire(self, run_id: str, reclaim: Callable[[], None]) -> None:
        """Hand an unlinked run's free action to the lifecycle.

        Must be called only *after* the run has been atomically removed
        from every published run list (so no new pin can acquire it: the
        removal's publication marked the current node dirty, and the
        refresh below rebuilds it without the run).  Reclaims inline when
        no live version covers the run; parks behind them otherwise.
        """
        inline = False
        with self._locked():
            hooks = self._drain_pending_locked()
            if self._collector is not None:
                # Maintenance-side refresh: make sure the current node
                # reflects the unlink that preceded this retire (O(runs),
                # but on the maintenance thread, never under a query pin).
                self._current_node_locked()
            ready = self._drain_locked()
            self.stats.runs_retired += 1
            if self._covered_locked(run_id):
                self.stats.reclaims_deferred += 1
                self._retired.append(_RetiredRun(run_id, reclaim))
            else:
                inline = True
        self._run_hooks(hooks)
        self._reclaim(ready)
        if inline:
            # Nothing covered the run at the (locked) check, and nothing
            # can start to: the run is gone from every published list and
            # every future version.  Free outside the mutex so
            # storage-tier work never serializes pin entry/exit.
            reclaim()
            self.stats.runs_reclaimed += 1

    def _covered_locked(self, run_id: str) -> bool:
        """Is the run reachable from any live version?

        The versionset reclamation rule: walk the live-version chain (the
        current node plus every superseded node some query still refs); a
        retired run stays parked while any of them covers it.
        """
        for node in self._versions:
            if run_id in node.run_ids:
                return True
        return False

    def _drain_locked(self) -> List[_RetiredRun]:
        """Pop every retired run no live version covers anymore."""
        if not self._retired:
            return []
        ready = [
            item
            for item in self._retired
            if not self._covered_locked(item.run_id)
        ]
        if ready:
            self._retired = [
                item
                for item in self._retired
                if self._covered_locked(item.run_id)
            ]
        return ready

    def _reclaim(self, ready: List[_RetiredRun]) -> None:
        for item in ready:
            item.reclaim()
            self.stats.runs_reclaimed += 1

    # -- inspection --------------------------------------------------------------

    def is_pinned(self, run_id: str) -> bool:
        """Is the run referenced by any live *query* pin right now?

        Used by cache eviction: a run is protected while some in-flight
        query may still read its blocks.  The current node's implicit
        reference does **not** count -- every live run is in the current
        version, and eviction of unread runs must stay possible -- only
        versions a query actually refs protect their runs.
        """
        with self._locked():
            # No pending-drain here: this runs inside cache eviction
            # passes, which must not execute drained release hooks.  A
            # parked (not yet drained) release just keeps the run looking
            # pinned a little longer -- the safe direction.
            for node in self._versions:
                if self._query_refs_locked(node) > 0 and run_id in node.run_ids:
                    return True
            return False

    def _query_refs_locked(self, node: _VersionNode) -> int:
        """Refs held by queries (the implicit current ref excluded)."""
        return node.refs - (1 if node is self._current else 0)

    def pinned_run_ids(self) -> List[str]:
        with self._locked():
            hooks = self._drain_pending_locked()
            ids = set()
            for node in self._versions:
                if self._query_refs_locked(node) > 0:
                    ids.update(node.run_ids)
            ids = sorted(ids)
        self._run_hooks(hooks)  # cache-release hooks; do not alter pins
        return ids

    def live_version_count(self) -> int:
        """Live version-chain length (0 before the first pin or retire).

        Bounded by 1 (the current node) + the number of distinct older
        versions still pinned by in-flight queries -- the whole point of
        the design: chain length tracks concurrency, not run count.
        """
        with self._locked():
            return len(self._versions)

    def retired_backlog(self) -> int:
        """Retired-but-not-yet-reclaimed run count (0 when idle)."""
        with self._locked():
            # Parked finalizer releases may have just unblocked reclaims;
            # apply them so the reported backlog reflects live pins only.
            hooks = self._drain_pending_locked()
            ready = self._drain_locked()
            backlog = len(self._retired)
        self._run_hooks(hooks)
        self._reclaim(ready)
        return backlog


# ---------------------------------------------------------------------------
# reclaim-action factories (shared by the merge and evolve controllers)
# ---------------------------------------------------------------------------


def delete_run_action(hierarchy, run: IndexRun) -> Callable[[], None]:
    """Full reclamation: shared-storage namespace + decoded-view cache."""

    def free() -> None:
        hierarchy.delete_namespace(run.run_id)
        run.drop_decode_cache()

    return free


def delete_namespace_action(hierarchy, run_id: str) -> Callable[[], None]:
    """Namespace-only reclamation (ancestor runs known by id alone)."""

    def free() -> None:
        hierarchy.delete_namespace(run_id)

    return free


def drop_cache_action(hierarchy, run: IndexRun) -> Callable[[], None]:
    """Local-tier-only reclamation (ancestor-protected shared copies)."""

    def free() -> None:
        for block_id in run.all_block_ids():
            hierarchy.drop_from_cache(block_id)
        run.drop_decode_cache()

    return free


__all__ = [
    "QueryPin",
    "RunLifecycle",
    "RunListVersion",
    "delete_namespace_action",
    "delete_run_action",
    "drop_cache_action",
]
