"""Composition of the three tiers into the hierarchy Umzi runs against.

Read path (paper section 7): queries read runs from the SSD cache; on a
miss the block is transferred from shared storage to the SSD cache "on a
block-basis ... to facilitate future accesses".  Memory sits in front of
the SSD as the hottest layer for non-persisted runs and recently-touched
blocks.

Write paths (sections 6.1-6.2):

* ``write_persisted`` -- the durable path: shared storage always, plus
  write-through into the SSD cache when the cache manager says the run is
  below the current cached level.
* ``write_cached_only`` -- the non-persisted-level path: memory (and
  optionally SSD spill), never shared storage.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.storage.block import Block, BlockId
from repro.storage.memory import MemoryTier
from repro.storage.metrics import IntentStats, IOStats, ReadIntent
from repro.storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy, TransientIOError
from repro.storage.shared import SharedStorage
from repro.storage.ssd import SSDTier
from repro.storage.tier import TierName

class BlockNotFoundError(KeyError):
    """A block was requested that exists in no tier."""


class StorageHierarchy:
    """Memory + SSD + shared storage with Umzi's read/write policies.

    Every read carries a :class:`ReadIntent` that drives cache admission:

    * ``ReadIntent.QUERY`` (the default) -- a shared-storage miss promotes
      the block into the SSD cache (the paper's block-basis transfer), so
      repeated queries over the same purged run warm up;
    * ``ReadIntent.MAINTENANCE`` -- background machinery (streaming evolve,
      merges, the post-groomer, recovery validation) streams each block
      once; those reads **never** promote into the memory or SSD tiers
      and never evict query-hot blocks.

    The intent is either passed explicitly to :meth:`read`/:meth:`read_many`
    or installed for a whole call tree with the :meth:`reading_as` scope
    (thread-local), which is how deep paths like the post-groomer's
    index lookups inherit MAINTENANCE without plumbing a parameter through
    every search routine.  Per-intent hit/miss/promotion counters land in
    ``stats.intents`` (:class:`~repro.storage.metrics.IntentStats`).
    """

    def __init__(
        self,
        memory: Optional[MemoryTier] = None,
        ssd: Optional[SSDTier] = None,
        shared: Optional[SharedStorage] = None,
        stats: Optional[IOStats] = None,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.stats = stats if stats is not None else IOStats()
        # Transient shared-storage errors (TransientIOError) are retried
        # with capped exponential backoff on the simulated clock; ``None``
        # disables retries (the first transient error propagates).
        self.retry_policy = retry_policy
        self.memory = memory if memory is not None else MemoryTier(stats=self.stats)
        self.ssd = ssd if ssd is not None else SSDTier(stats=self.stats)
        self.shared = shared if shared is not None else SharedStorage(stats=self.stats)
        # Re-point tiers constructed by the caller at the shared ledger so
        # one hierarchy always produces one consistent set of counters.
        self.memory.stats = self.stats
        self.ssd.stats = self.stats
        self.shared.stats = self.stats
        self._intent_local = threading.local()
        self._attribution_local = threading.local()
        # Optional per-tier circuit breaker on the shared tier (ISSUE 7):
        # any object with check()/record_success()/record_failure()
        # (see repro.qos.breaker.CircuitBreaker).  Kept duck-typed so the
        # storage layer does not depend on the qos package.
        self._shared_breaker = None

    # -- read-intent policy ----------------------------------------------------

    def current_read_intent(self) -> ReadIntent:
        """The effective intent for reads that do not pass one explicitly."""
        scoped = getattr(self._intent_local, "intent", None)
        return scoped if scoped is not None else ReadIntent.QUERY

    @contextmanager
    def reading_as(self, intent: ReadIntent) -> Iterator["StorageHierarchy"]:
        """Scope a default read intent over a call tree (thread-local).

        Used by maintenance drivers whose reads funnel through code shared
        with the query path (e.g. the post-groomer's ``post_groomed_lookup``
        runs an ordinary :class:`QueryExecutor`); everything under the scope
        that does not pass an explicit intent inherits this one.
        """
        previous = getattr(self._intent_local, "intent", None)
        self._intent_local.intent = intent
        try:
            yield self
        finally:
            self._intent_local.intent = previous

    # -- read attribution (ISSUE 9) --------------------------------------------

    @contextmanager
    def attributing(self, component: str) -> Iterator["StorageHierarchy"]:
        """Scope a read-attribution component over a call tree.

        The access-path executor wraps each plan step in a scope
        (``attributing("index:by_customer")``, ``attributing("records")``)
        so the planner ablation can assert exactly which component's
        blocks an index-only query did *not* read.  Thread-local, like
        :meth:`reading_as`; reads outside any scope charge nothing, so
        the attribution ledger stays empty (and byte-identical) for
        every pre-existing workload.
        """
        previous = getattr(self._attribution_local, "component", None)
        self._attribution_local.component = component
        try:
            yield self
        finally:
            self._attribution_local.component = previous

    # -- transient-fault retry (ISSUE 6) + circuit breaker (ISSUE 7) -----------

    def attach_shared_breaker(self, breaker) -> None:
        """Install a circuit breaker over the shared tier (or None).

        While the breaker is open, shared reads/writes fail fast with
        :class:`~repro.storage.retry.StorageBrownout` *before* touching
        the tier or burning retry budget; successes and transient
        failures feed the breaker so it trips during brownouts and
        re-closes after successful half-open probes.
        """
        self._shared_breaker = breaker

    @property
    def shared_breaker(self):
        return self._shared_breaker

    def _shared_read(
        self, block_id: BlockId, istats: Optional[IntentStats] = None
    ) -> Optional[Block]:
        """``shared.read`` with capped-exponential-backoff retry.

        Transient errors (:class:`TransientIOError`) are retried up to the
        policy's attempt budget, charging each wait to the shared tier's
        simulated clock; exhausting the budget counts a give-up and
        re-raises, so the caller sees an *error*, never a wrong answer.
        Retries and give-ups are attributed to ``istats`` (the read's
        intent) when given, and always to the aggregate fault ledger.
        With a breaker attached, consecutive failures can trip it
        mid-loop, in which case the next attempt fails fast with
        ``StorageBrownout`` instead of counting a give-up.
        """
        policy = self.retry_policy
        breaker = self._shared_breaker
        fstats = self.stats.faults
        attempt = 1
        while True:
            if breaker is not None:
                breaker.check()
            try:
                result = self.shared.read(block_id)
            except TransientIOError:
                if breaker is not None:
                    breaker.record_failure()
                if policy is None or attempt >= policy.max_attempts:
                    fstats.read_giveups += 1
                    if istats is not None:
                        istats.giveups += 1
                    raise
                fstats.read_retries += 1
                if istats is not None:
                    istats.retries += 1
                self.stats.record_backoff(
                    TierName.SHARED.value, policy.backoff_ns(attempt)
                )
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    def _shared_write(self, block: Block) -> None:
        """``shared.write`` with the same retry/backoff contract as reads.

        Write retries are safe against double-apply: shared storage is
        append-only, so a retried write either lands the block or fails
        again -- an in-place overwrite is impossible by construction.
        """
        policy = self.retry_policy
        breaker = self._shared_breaker
        fstats = self.stats.faults
        attempt = 1
        while True:
            if breaker is not None:
                breaker.check()
            try:
                self.shared.write(block)
            except TransientIOError:
                if breaker is not None:
                    breaker.record_failure()
                if policy is None or attempt >= policy.max_attempts:
                    fstats.write_giveups += 1
                    raise
                fstats.write_retries += 1
                self.stats.record_backoff(
                    TierName.SHARED.value, policy.backoff_ns(attempt)
                )
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return

    # -- write paths ---------------------------------------------------------

    def write_persisted(self, block: Block, write_through_ssd: bool = True) -> None:
        """Durable write: shared storage, plus SSD write-through if asked.

        The SSD copy is a best-effort cache insertion: if the cache is full
        the durable write still succeeds and the block simply stays
        uncached until the cache manager frees space.
        """
        self._shared_write(block)
        if write_through_ssd and self.ssd.would_fit(block.size):
            self.ssd.write(block)

    def write_cached_only(self, block: Block, spill_to_ssd: bool = False) -> None:
        """Non-persisted write: memory only, optionally spilled to SSD."""
        self.memory.write(block)
        if spill_to_ssd:
            self.ssd.write(block)

    # -- read path -----------------------------------------------------------

    def read(
        self,
        block_id: BlockId,
        promote: bool = True,
        intent: Optional[ReadIntent] = None,
    ) -> Block:
        """Read through memory -> SSD -> shared storage.

        On a shared-storage hit the block is promoted into the SSD cache,
        reproducing the paper's block-basis transfer of purged runs --
        but only when ``promote`` is set *and* the read intent is QUERY
        (MAINTENANCE reads never promote).  ``intent=None`` resolves
        through the :meth:`reading_as` scope, defaulting to QUERY.  Raises
        :class:`BlockNotFoundError` if the block is absent everywhere.
        """
        if intent is None:
            intent = self.current_read_intent()
        istats = self.stats.intents[intent]
        istats.reads += 1
        component = getattr(self._attribution_local, "component", None)
        if component is not None:
            self.stats.record_attributed(component)
        block = self.memory.read(block_id)
        if block is not None:
            istats.memory_hits += 1
            return block
        block = self.ssd.read(block_id)
        if block is not None:
            istats.ssd_hits += 1
            return block
        block = self._shared_read(block_id, istats)
        if block is None:
            raise BlockNotFoundError(block_id)
        istats.shared_reads += 1
        if promote and intent is ReadIntent.QUERY:
            if self.ssd.would_fit(block.size):
                self.ssd.write(block)
                istats.promotions += 1
        return block

    def read_many(
        self,
        block_ids: List[BlockId],
        promote: bool = True,
        intent: Optional[ReadIntent] = None,
    ) -> List[Block]:
        return [
            self.read(bid, promote=promote, intent=intent) for bid in block_ids
        ]

    def read_shared(
        self,
        block_id: BlockId,
        intent: ReadIntent = ReadIntent.MAINTENANCE,
    ) -> Optional[Block]:
        """Read the durable shared-storage copy only; never promotes.

        Recovery validation must check the copy that survives a node crash,
        not whatever a local tier happens to hold (and must *not* resurrect
        non-persisted runs whose only blocks live locally), so it bypasses
        the local tiers entirely.  The read is still attributed to
        ``intent`` in the per-intent counters.  Returns ``None`` when the
        shared copy is absent.
        """
        istats = self.stats.intents[intent]
        istats.reads += 1
        block = self._shared_read(block_id, istats)
        if block is not None:
            istats.shared_reads += 1
        return block

    # -- cache-management primitives ------------------------------------------

    def drop_from_cache(self, block_id: BlockId) -> bool:
        """Remove a block from the local tiers (purge); keeps shared copy."""
        in_mem = self.memory.delete(block_id)
        in_ssd = self.ssd.delete(block_id)
        return in_mem or in_ssd

    def load_into_cache(self, block_id: BlockId) -> bool:
        """Fetch a block from shared storage into the SSD cache (load)."""
        if self.ssd.contains(block_id):
            return True
        block = self._shared_read(block_id)
        if block is None:
            return False
        if not self.ssd.would_fit(block.size):
            return False
        self.ssd.write(block)
        return True

    def is_cached(self, block_id: BlockId) -> bool:
        return self.memory.contains(block_id) or self.ssd.contains(block_id)

    # -- deletion --------------------------------------------------------------

    def delete_everywhere(self, block_id: BlockId) -> None:
        self.memory.delete(block_id)
        self.ssd.delete(block_id)
        self.shared.delete(block_id)

    def delete_namespace(self, namespace: str) -> None:
        """Garbage-collect one logical object from every tier."""
        self.memory.delete_namespace(namespace)
        self.ssd.delete_namespace(namespace)
        self.shared.delete_namespace(namespace)

    # -- failure injection -------------------------------------------------------

    def crash_local_tiers(self) -> None:
        """Simulate a node crash: lose memory and SSD, keep shared storage.

        This is the recovery scenario of paper section 5.5 -- the indexer
        process loses all local state and must rebuild run lists from runs
        persisted in shared storage.
        """
        for bid in list(self.memory.block_ids()):
            self.memory.delete(bid)
        for bid in list(self.ssd.block_ids()):
            self.ssd.delete(bid)
