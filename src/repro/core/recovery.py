"""Crash recovery (paper section 5.5).

An indexer process can crash and lose every local data structure (and, with
non-persisted levels, entire runs).  Recovery rebuilds the run lists from
what shared storage holds:

1. read the newest metadata checkpoint (IndexedPSN + watermark);
2. enumerate run headers in shared storage; delete *incomplete* runs (a
   crash mid-build leaves a header whose data blocks are missing, or
   orphaned data blocks without a header) and *corrupt* runs (a data-block
   payload whose CRC32 no longer matches the header's block index -- torn
   writes, bit rot);
3. per zone, sort runs by descending end groomed block id and add them one
   by one; "if multiple runs have overlapping groomed block IDs, the one
   with largest range is selected, while the rest are simply deleted since
   they have already been merged";
4. groomed runs wholly below the watermark are already covered by the
   post-groomed zone and are dropped too.

Payload validation is zero-decode: header v3 records a per-block
checksum, so re-validating a run is one CRC pass over raw bytes per block.
A block with no recorded checksum, or whose payload is not a v2 data
block, fails validation like any other corrupt block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.definition import IndexDefinition
from repro.core.entry import Zone
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.run import (
    HEADER_ORDINAL,
    IndexRun,
    RunHeader,
    block_checksum,
    is_data_block,
)
from repro.storage.block import BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import ReadIntent


@dataclass
class RecoveredState:
    """Everything recovery reconstructed."""

    runs_by_zone: Dict[Zone, List[IndexRun]]
    checkpoint: Optional[Checkpoint]
    deleted_run_ids: List[str] = field(default_factory=list)
    incomplete_run_ids: List[str] = field(default_factory=list)
    # Subset of incomplete_run_ids dropped because a data-block payload
    # failed validation (checksum mismatch / undecodable), as opposed to
    # being absent outright.
    corrupt_run_ids: List[str] = field(default_factory=list)
    # When the newest valid checkpoint promised post-groomed coverage the
    # surviving runs cannot support (the covering run was torn mid-write
    # and dropped), recovery falls back to an older supported checkpoint;
    # ``clamped_from`` records the over-claiming one that was rejected.
    clamped_from: Optional[Checkpoint] = None


def _is_complete(hierarchy: StorageHierarchy, header: RunHeader) -> bool:
    """All data blocks the header promises must exist in shared storage."""
    for ordinal in range(1, header.num_data_blocks + 1):
        if not hierarchy.shared.contains(BlockId(header.run_id, ordinal)):
            return False
    return True


def _payloads_valid(hierarchy: StorageHierarchy, header: RunHeader) -> bool:
    """Re-validate every data block of one run against its header.

    Each block is verified by one CRC pass over the raw payload against
    the header's checksum -- zero entry decodes.  A block with no recorded
    checksum, or without the v2 block magic, fails.  A failure means the
    run is dropped; its data is covered by other runs or rebuilt from
    groomed blocks upstream.
    """
    stats = hierarchy.stats.decode
    for ordinal in range(1, header.num_data_blocks + 1):
        meta = header.block_meta[ordinal - 1]
        # Recovery validates the durable copy (never a possibly-stale local
        # one) and is maintenance: the scan must not flood the SSD cache
        # that queries will need the moment the index is back.
        block = hierarchy.read_shared(
            BlockId(header.run_id, ordinal), intent=ReadIntent.MAINTENANCE
        )
        if block is None or len(block.payload) != meta.size_bytes:
            return False
        if meta.checksum is None:
            return False
        stats.checksum_validations += 1
        if block_checksum(block.payload) != meta.checksum:
            return False
        if not is_data_block(block.payload):
            return False
    return True


def _covers(outer: RunHeader, inner: RunHeader) -> bool:
    return (
        outer.min_groomed_id <= inner.min_groomed_id
        and inner.max_groomed_id <= outer.max_groomed_id
    )


def _coverage_chains(headers: List[RunHeader]) -> List[Tuple[int, int]]:
    """Disjoint maximal gid intervals covered by these runs (merging
    overlapping and adjacent ranges)."""
    intervals = sorted(
        (h.min_groomed_id, h.max_groomed_id) for h in headers
    )
    chains: List[Tuple[int, int]] = []
    for lo, hi in intervals:
        if chains and lo <= chains[-1][1] + 1:
            chains[-1] = (chains[-1][0], max(chains[-1][1], hi))
        else:
            chains.append((lo, hi))
    return chains


def _supported_checkpoint(
    checkpoints: List[Checkpoint],
    post_groomed_kept: List[RunHeader],
    anchor: Optional[int],
) -> Tuple[Optional[Checkpoint], Optional[Checkpoint]]:
    """Newest checkpoint whose watermark the surviving runs can support.

    A checkpoint's watermark asserts "every groomed id up to here is
    covered by the post-groomed run list" -- and recovery *acts* on that
    assertion by deleting groomed runs at or under it.  If the covering
    post-groomed run was torn mid-write (a silent fault: the writer got
    no error) the newest checkpoint over-claims, and honouring it would
    turn recoverable data loss into silent wrong answers.  So recovery
    takes the newest checkpoint ``c`` (checkpoints arrive newest-first)
    such that the kept post-groomed runs cover ``[anchor, c.watermark]``
    contiguously, where ``anchor`` is the smallest groomed id any
    readable run header mentions -- the earliest surviving evidence of
    data.  Returns ``(effective, clamped_from)``.
    """
    if not checkpoints:
        return None, None
    chains = _coverage_chains(post_groomed_kept)
    for checkpoint in checkpoints:
        watermark = checkpoint.max_covered_groomed_id
        if watermark < 0:
            return checkpoint, _clamp_marker(checkpoints, checkpoint)
        if anchor is None:
            # A watermark >= 0 claims coverage, but no run header
            # survives at all: nothing supports any claim.
            continue
        if any(lo <= anchor and hi >= watermark for lo, hi in chains):
            return checkpoint, _clamp_marker(checkpoints, checkpoint)
    return None, checkpoints[0]


def _clamp_marker(
    checkpoints: List[Checkpoint], effective: Checkpoint
) -> Optional[Checkpoint]:
    newest = checkpoints[0]
    return newest if newest != effective else None


def recover_index_state(
    definition: IndexDefinition,
    hierarchy: StorageHierarchy,
    run_prefix: str,
    journal: Optional[MetadataJournal] = None,
) -> RecoveredState:
    """Rebuild run lists for one index instance from shared storage.

    ``run_prefix`` scopes the scan to this index's namespaces (run ids are
    ``{prefix}-{zone}-{seq}``).
    """
    checkpoints = journal.valid_checkpoints() if journal is not None else []

    headers: List[RunHeader] = []
    incomplete: List[str] = []
    corrupt: List[str] = []
    for namespace in hierarchy.shared.namespaces():
        if not namespace.startswith(run_prefix):
            continue
        header_block = hierarchy.read_shared(
            BlockId(namespace, HEADER_ORDINAL), intent=ReadIntent.MAINTENANCE
        )
        if header_block is None:
            # Orphaned data blocks without a header: a crash before the
            # header write can't happen (header goes first), but a partial
            # delete can leave them; clean up.
            hierarchy.delete_namespace(namespace)
            incomplete.append(namespace)
            continue
        try:
            header = RunHeader.from_bytes(definition, header_block.payload)
        except (ValueError, KeyError, IndexError, struct.error):
            # Corrupted header (torn write, bit rot): treat like an
            # incomplete run -- its data is covered by other runs or will
            # be rebuilt from groomed blocks upstream.
            hierarchy.delete_namespace(namespace)
            incomplete.append(namespace)
            continue
        if not _is_complete(hierarchy, header):
            hierarchy.delete_namespace(namespace)
            incomplete.append(namespace)
            continue
        if not _payloads_valid(hierarchy, header):
            hierarchy.delete_namespace(namespace)
            incomplete.append(namespace)
            corrupt.append(namespace)
            continue
        headers.append(header)

    deleted: List[str] = []
    kept_by_zone: Dict[Zone, List[RunHeader]] = {}
    for zone in (Zone.GROOMED, Zone.POST_GROOMED):
        zone_headers = [h for h in headers if h.zone is zone]
        # Largest coverage first: descending end id, then widest range.
        # Entry count breaks exact-coverage ties so a replayed evolve's
        # empty (or thinner) duplicate never shadows the populated run.
        zone_headers.sort(
            key=lambda h: (
                h.max_groomed_id,
                h.max_groomed_id - h.min_groomed_id,
                h.entry_count,
            ),
            reverse=True,
        )
        kept: List[RunHeader] = []
        for header in zone_headers:
            if any(_covers(other, header) for other in kept):
                # Already merged into a bigger run.
                hierarchy.delete_namespace(header.run_id)
                deleted.append(header.run_id)
                continue
            kept.append(header)
        kept_by_zone[zone] = kept

    # The watermark is an *assertion* about post-groomed coverage, so it
    # is validated against the runs that actually survived before being
    # acted on (torn post-groomed persists make the newest checkpoint
    # over-claim; see _supported_checkpoint).
    anchor = min((h.min_groomed_id for h in headers), default=None)
    checkpoint, clamped_from = _supported_checkpoint(
        checkpoints, kept_by_zone[Zone.POST_GROOMED], anchor
    )
    watermark = checkpoint.max_covered_groomed_id if checkpoint else -1

    groomed_kept: List[RunHeader] = []
    for header in kept_by_zone[Zone.GROOMED]:
        if header.max_groomed_id <= watermark:
            # Fully covered by the post-groomed zone already.
            hierarchy.delete_namespace(header.run_id)
            deleted.append(header.run_id)
            continue
        groomed_kept.append(header)
    kept_by_zone[Zone.GROOMED] = groomed_kept

    runs_by_zone: Dict[Zone, List[IndexRun]] = {
        zone: [IndexRun(definition, header, hierarchy) for header in kept]
        for zone, kept in kept_by_zone.items()
    }

    return RecoveredState(
        runs_by_zone=runs_by_zone,
        checkpoint=checkpoint,
        deleted_run_ids=deleted,
        incomplete_run_ids=incomplete,
        corrupt_run_ids=corrupt,
        clamped_from=clamped_from,
    )


__all__ = ["RecoveredState", "recover_index_state"]
