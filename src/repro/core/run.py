"""The on-storage index-run format (paper section 4.2).

A run is one header block plus one or more fixed-size data blocks:

* the **header block** carries the metadata: number of data blocks, merge
  level, zone, range of groomed block ids the run covers, the synopsis
  (min/max of every key column, used for run pruning), the offset array
  (2^n buckets over the most-significant hash bits, used to narrow binary
  search), a block index (first key and entry count per data block), the
  total entry count, and -- for the non-persisted-level protocol of section
  6.1 -- the list of ancestor run ids that must not be deleted until this
  run reaches a persisted level;
* each **data block** is a count-prefixed sequence of serialized entries
  in sort-key order.

A data block (format v2) is ``"UMB2" | count:u32 | entry offsets:u32[count]
| sort-key lengths:u32[count] | entry bytes``.  Because every entry blob
*starts with* its sort key and the offset table also records each entry's
sort-key length, :class:`DataBlockView` serves ``sort_key_at(i)`` /
``key_bytes_at(i)`` / ``begin_ts_at(i)`` as raw slices of the payload --
binary-search probes, batched lookups, and K-way merges compare memory
directly (the memcmp-comparable key format of section 4.2) and decode an
:class:`IndexEntry` only for entries actually emitted.  The beginTS is the
fixed 8-byte descending-encoded suffix of the sort key, so visibility
checks are a slice plus one integer subtraction.  A payload without the
``UMB2`` magic is rejected (``ValueError``).

Everything is serialized to plain ``bytes`` so runs round-trip through the
storage hierarchy like any other block.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.definition import ColumnType, IndexDefinition
from repro.core.encoding import (
    KeyValue,
    decode_bytes,
    decode_float64,
    decode_int64,
    decode_str,
    encode_value,
)
from repro.core.entry import (
    IndexEntry,
    SORT_KEY_TS_BYTES,
    Zone,
    begin_ts_of_sort_key,
)
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import DecodeStats, ReadIntent

HEADER_ORDINAL = 0
_MAGIC = b"UMZI"
# Header v3 adds a per-data-block CRC32 to the block index so recovery can
# re-validate runs by checksumming raw payloads instead of decoding entries.
_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
_BLOCK_MAGIC_V2 = b"UMB2"


def is_data_block(payload: bytes) -> bool:
    """Does the payload carry the (v2) data-block magic?"""
    return payload[:4] == _BLOCK_MAGIC_V2


def block_checksum(payload: bytes) -> int:
    """CRC32 of one raw data-block payload (the recovery checksum).

    zlib's C-speed CRC32 stands in for CRC32C (the container has no
    Castagnoli implementation and a pure-Python table would sit on the
    write hot path); the property that matters -- any single flipped byte
    changes the digest -- is identical.
    """
    return zlib.crc32(payload) & 0xFFFFFFFF

_DECODERS = {
    ColumnType.INT64: decode_int64,
    ColumnType.FLOAT64: decode_float64,
    ColumnType.STRING: decode_str,
    ColumnType.BYTES: decode_bytes,
}


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _unpack_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    (length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    return data[offset : offset + length], offset + length


def _pack_str(text: str) -> bytes:
    return _pack_bytes(text.encode("utf-8"))


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    raw, offset = _unpack_bytes(data, offset)
    return raw.decode("utf-8"), offset


@dataclass(frozen=True)
class ColumnRange:
    """Min/max of one key column within a run (the synopsis row)."""

    min_value: KeyValue
    max_value: KeyValue

    def overlaps_point(self, value: KeyValue) -> bool:
        return self.min_value <= value <= self.max_value

    def overlaps_range(
        self, low: Optional[KeyValue], high: Optional[KeyValue]
    ) -> bool:
        if low is not None and low > self.max_value:
            return False
        if high is not None and high < self.min_value:
            return False
        return True


@dataclass(frozen=True)
class Synopsis:
    """Per-key-column value ranges; empty runs have no ranges.

    A run can be skipped by a query "if the input value of some key column
    does not overlap with the range specified by the synopsis".
    """

    ranges: Tuple[Optional[ColumnRange], ...]

    @classmethod
    def from_entries(
        cls, definition: IndexDefinition, entries: Sequence[IndexEntry]
    ) -> "Synopsis":
        n_eq = len(definition.equality_columns)
        n_key = len(definition.key_columns)
        if not entries:
            return cls(ranges=tuple([None] * n_key))
        ranges: List[Optional[ColumnRange]] = []
        for pos in range(n_key):
            if pos < n_eq:
                values = [e.equality_values[pos] for e in entries]
            else:
                values = [e.sort_values[pos - n_eq] for e in entries]
            ranges.append(ColumnRange(min(values), max(values)))
        return cls(ranges=tuple(ranges))

    def column_range(self, position: int) -> Optional[ColumnRange]:
        return self.ranges[position]

    @classmethod
    def union(cls, synopses: Sequence["Synopsis"]) -> "Synopsis":
        """Position-wise union of several runs' synopses.

        Used by the blob-level merge path: the merged run's entries are a
        subset of the inputs' entries, so the union of the input ranges is
        a sound (possibly over-approximate) synopsis without decoding a
        single merged entry.  Over-approximation only costs pruning
        opportunities, never correctness.
        """
        if not synopses:
            raise ValueError("union of zero synopses is undefined")
        width = len(synopses[0].ranges)
        merged: List[Optional[ColumnRange]] = []
        for position in range(width):
            present = [
                s.ranges[position] for s in synopses if s.ranges[position] is not None
            ]
            if not present:
                merged.append(None)
                continue
            merged.append(
                ColumnRange(
                    min(r.min_value for r in present),
                    max(r.max_value for r in present),
                )
            )
        return cls(ranges=tuple(merged))


@dataclass(frozen=True)
class DataBlockMeta:
    """Block-index entry: where one data block starts and how big it is.

    ``checksum`` is the CRC32 of the block's raw payload (header v3);
    ``None`` for runs written by older builders, which recovery must
    re-validate by decoding instead.
    """

    entry_count: int
    first_sort_key: bytes
    size_bytes: int
    checksum: Optional[int] = None


@dataclass(frozen=True)
class RunHeader:
    """All run metadata stored in the header block."""

    run_id: str
    zone: Zone
    level: int
    min_groomed_id: int
    max_groomed_id: int
    entry_count: int
    synopsis: Synopsis
    offset_array: Tuple[int, ...]
    block_meta: Tuple[DataBlockMeta, ...]
    min_begin_ts: int
    max_begin_ts: int
    persisted: bool
    ancestor_run_ids: Tuple[str, ...] = ()
    # Optional serialized Bloom filter over the run's distinct key bytes
    # (extension; see repro.core.bloom).
    bloom_blob: Optional[bytes] = None

    @property
    def num_data_blocks(self) -> int:
        return len(self.block_meta)

    @property
    def data_bytes(self) -> int:
        return sum(m.size_bytes for m in self.block_meta)

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, definition: IndexDefinition) -> bytes:
        parts: List[bytes] = [_MAGIC, struct.pack(">H", _VERSION)]
        parts.append(_pack_str(self.run_id))
        parts.append(
            struct.pack(
                ">BHqqQ",
                int(self.zone),
                self.level,
                self.min_groomed_id,
                self.max_groomed_id,
                self.entry_count,
            )
        )
        parts.append(struct.pack(">QQB", self.min_begin_ts, self.max_begin_ts, int(self.persisted)))
        # synopsis: presence flag + encoded min/max per key column
        parts.append(struct.pack(">H", len(self.synopsis.ranges)))
        for crange in self.synopsis.ranges:
            if crange is None:
                parts.append(b"\x00")
            else:
                parts.append(b"\x01")
                parts.append(encode_value(crange.min_value))
                parts.append(encode_value(crange.max_value))
        # offset array
        parts.append(struct.pack(">I", len(self.offset_array)))
        if self.offset_array:
            parts.append(struct.pack(f">{len(self.offset_array)}Q", *self.offset_array))
        # block index (v3: per-block payload checksum for raw revalidation)
        parts.append(struct.pack(">I", len(self.block_meta)))
        for meta in self.block_meta:
            parts.append(struct.pack(">QI", meta.entry_count, meta.size_bytes))
            parts.append(_pack_bytes(meta.first_sort_key))
            if meta.checksum is None:
                parts.append(b"\x00")
            else:
                parts.append(struct.pack(">BI", 1, meta.checksum))
        # ancestors
        parts.append(struct.pack(">I", len(self.ancestor_run_ids)))
        for rid in self.ancestor_run_ids:
            parts.append(_pack_str(rid))
        # optional bloom filter
        if self.bloom_blob is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01")
            parts.append(_pack_bytes(self.bloom_blob))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, definition: IndexDefinition, data: bytes) -> "RunHeader":
        if data[:4] != _MAGIC:
            raise ValueError("not an Umzi run header block")
        (version,) = struct.unpack_from(">H", data, 4)
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported run header version {version}")
        pos = 6
        run_id, pos = _unpack_str(data, pos)
        zone_raw, level, min_gid, max_gid, entry_count = struct.unpack_from(
            ">BHqqQ", data, pos
        )
        pos += struct.calcsize(">BHqqQ")
        min_ts, max_ts, persisted = struct.unpack_from(">QQB", data, pos)
        pos += struct.calcsize(">QQB")
        (n_ranges,) = struct.unpack_from(">H", data, pos)
        pos += 2
        key_specs = definition.key_columns
        if n_ranges != len(key_specs):
            raise ValueError(
                f"synopsis has {n_ranges} columns but definition has "
                f"{len(key_specs)} key columns"
            )
        ranges: List[Optional[ColumnRange]] = []
        for spec in key_specs:
            present = data[pos]
            pos += 1
            if not present:
                ranges.append(None)
                continue
            decoder = _DECODERS[spec.ctype]
            min_value, pos = decoder(data, pos)
            max_value, pos = decoder(data, pos)
            ranges.append(ColumnRange(min_value, max_value))
        (n_offsets,) = struct.unpack_from(">I", data, pos)
        pos += 4
        offsets: Tuple[int, ...] = ()
        if n_offsets:
            offsets = struct.unpack_from(f">{n_offsets}Q", data, pos)
            pos += 8 * n_offsets
        (n_blocks,) = struct.unpack_from(">I", data, pos)
        pos += 4
        metas: List[DataBlockMeta] = []
        for _ in range(n_blocks):
            count, size_bytes = struct.unpack_from(">QI", data, pos)
            pos += struct.calcsize(">QI")
            first_key, pos = _unpack_bytes(data, pos)
            checksum: Optional[int] = None
            if version >= 3:
                present = data[pos]
                pos += 1
                if present:
                    (checksum,) = struct.unpack_from(">I", data, pos)
                    pos += 4
            metas.append(
                DataBlockMeta(
                    entry_count=count,
                    first_sort_key=first_key,
                    size_bytes=size_bytes,
                    checksum=checksum,
                )
            )
        (n_ancestors,) = struct.unpack_from(">I", data, pos)
        pos += 4
        ancestors: List[str] = []
        for _ in range(n_ancestors):
            ancestor, pos = _unpack_str(data, pos)
            ancestors.append(ancestor)
        bloom_blob: Optional[bytes] = None
        if pos < len(data) and data[pos]:
            bloom_blob, _ = _unpack_bytes(data, pos + 1)
        return cls(
            run_id=run_id,
            zone=Zone(zone_raw),
            level=level,
            min_groomed_id=min_gid,
            max_groomed_id=max_gid,
            entry_count=entry_count,
            synopsis=Synopsis(ranges=tuple(ranges)),
            offset_array=tuple(offsets),
            block_meta=tuple(metas),
            min_begin_ts=min_ts,
            max_begin_ts=max_ts,
            persisted=bool(persisted),
            ancestor_run_ids=tuple(ancestors),
            bloom_blob=bloom_blob,
        )


def encode_data_block_from_blobs(
    blob_pairs: Sequence[Tuple[bytes, bytes]]
) -> bytes:
    """Serialize one v2 data block from ``(sort_key, entry_blob)`` pairs.

    Layout: ``"UMB2" | count | per-entry offsets | per-entry sort-key
    lengths | entry bytes``.  The offset table lets binary-search probes
    touch *single* entries instead of whole blocks (the restart-point
    trick); the sort-key length table is what makes those probes zero
    decode -- each entry blob starts with its sort key, so a probe is a
    pure payload slice.
    """
    offsets: List[int] = []
    sklens: List[int] = []
    position = 0
    for sort_key, blob in blob_pairs:
        offsets.append(position)
        sklens.append(len(sort_key))
        position += len(blob)
    count = len(blob_pairs)
    parts = [_BLOCK_MAGIC_V2, struct.pack(">I", count)]
    if count:
        parts.append(struct.pack(f">{count}I", *offsets))
        parts.append(struct.pack(f">{count}I", *sklens))
    parts.extend(blob for _sk, blob in blob_pairs)
    return b"".join(parts)


def encode_data_block(
    definition: IndexDefinition, entries: Sequence[IndexEntry]
) -> bytes:
    """Serialize one data block (current v2 format) from decoded entries."""
    return encode_data_block_from_blobs(
        [entry.to_blob(definition) for entry in entries]
    )


class DataBlockView:
    """Lazy, memoizing view over one encoded v2 data block.

    The raw-key accessors (:meth:`sort_key_at`, :meth:`key_bytes_at`,
    :meth:`begin_ts_at`, :meth:`entry_blob_at`) are pure payload slices --
    no column decoding, no object construction.  Raises ``ValueError`` on
    a payload that does not start with the v2 magic.
    """

    __slots__ = (
        "definition",
        "payload",
        "_offsets",
        "_sklens",
        "_base",
        "_cache",
        "_stats",
        "count",
    )

    def __init__(
        self,
        definition: IndexDefinition,
        payload: bytes,
        stats: Optional[DecodeStats] = None,
    ) -> None:
        self.definition = definition
        self.payload = payload
        self._stats = stats
        if payload[:4] != _BLOCK_MAGIC_V2:
            raise ValueError("data block lacks the v2 magic")
        (self.count,) = struct.unpack_from(">I", payload, 4)
        self._offsets = struct.unpack_from(f">{self.count}I", payload, 8)
        self._sklens = struct.unpack_from(
            f">{self.count}I", payload, 8 + 4 * self.count
        )
        self._base = 8 + 8 * self.count
        self._cache: Dict[int, IndexEntry] = {}

    def entry(self, index: int) -> IndexEntry:
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        if self._stats is not None:
            self._stats.entry_decodes += 1
        entry, _ = IndexEntry.from_bytes(
            self.definition, self.payload, self._base + self._offsets[index]
        )
        self._cache[index] = entry
        return entry

    # -- zero-decode accessors --------------------------------------------------

    def sort_key_at(self, index: int) -> bytes:
        """Raw sort key of entry ``index`` -- a payload slice."""
        if self._stats is not None:
            self._stats.raw_key_probes += 1
        start = self._base + self._offsets[index]
        return self.payload[start : start + self._sklens[index]]

    def key_bytes_at(self, index: int) -> bytes:
        """Raw user key (sort key minus the 8-byte beginTS suffix)."""
        if self._stats is not None:
            self._stats.raw_key_probes += 1
        start = self._base + self._offsets[index]
        return self.payload[start : start + self._sklens[index] - SORT_KEY_TS_BYTES]

    def begin_ts_at(self, index: int) -> int:
        """``beginTS`` of entry ``index`` from the fixed sort-key suffix."""
        return begin_ts_of_sort_key(self.sort_key_at(index))

    def entry_blob_at(self, index: int) -> bytes:
        """The raw serialized entry, verbatim (merge copy path)."""
        if self._stats is not None:
            self._stats.blob_copies += 1
        start = self._base + self._offsets[index]
        if index + 1 < self.count:
            return self.payload[start : self._base + self._offsets[index + 1]]
        return self.payload[start:]

    # -- decoded iteration ------------------------------------------------------

    def iter_from(self, start: int):
        for index in range(start, self.count):
            yield self.entry(index)

    def all_entries(self) -> List[IndexEntry]:
        return list(self.iter_from(0))


def decode_data_block(
    definition: IndexDefinition, payload: bytes
) -> List[IndexEntry]:
    """Fully materialize a data block (merges, tests)."""
    return DataBlockView(definition, payload).all_entries()


class IndexRun:
    """In-memory handle to one run: header metadata + block access.

    The handle holds only the header; data blocks are fetched through the
    storage hierarchy on demand (charging tier latency), with a small
    per-run decode cache so repeated touches within one query batch do not
    re-decode bytes.  Cached decodes are invalidated by nothing -- runs are
    immutable.
    """

    def __init__(
        self,
        definition: IndexDefinition,
        header: RunHeader,
        hierarchy: StorageHierarchy,
    ) -> None:
        self.definition = definition
        self.header = header
        self.hierarchy = hierarchy
        self._views: Dict[int, DataBlockView] = {}
        self._cumulative: Optional[List[int]] = None
        self._first_keys: Optional[List[bytes]] = None
        self._bloom = None  # decoded lazily from header.bloom_blob
        self._bloom_decoded = False

    # -- identity / metadata ----------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.header.run_id

    @property
    def zone(self) -> Zone:
        return self.header.zone

    @property
    def level(self) -> int:
        return self.header.level

    @property
    def entry_count(self) -> int:
        return self.header.entry_count

    @property
    def min_groomed_id(self) -> int:
        return self.header.min_groomed_id

    @property
    def max_groomed_id(self) -> int:
        return self.header.max_groomed_id

    @property
    def size_bytes(self) -> int:
        return self.header.data_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexRun({self.run_id} zone={self.zone.name} level={self.level} "
            f"gids=[{self.min_groomed_id},{self.max_groomed_id}] "
            f"entries={self.entry_count})"
        )

    # -- block access -------------------------------------------------------------

    def header_block_id(self) -> BlockId:
        return BlockId(self.run_id, HEADER_ORDINAL)

    def data_block_id(self, block_index: int) -> BlockId:
        return BlockId(self.run_id, block_index + 1)

    def all_block_ids(self) -> List[BlockId]:
        return [self.header_block_id()] + [
            self.data_block_id(i) for i in range(self.header.num_data_blocks)
        ]

    def block_view(
        self, block_index: int, intent: Optional[ReadIntent] = None
    ) -> DataBlockView:
        """Fetch one data block as a lazy view (cached per handle).

        The storage read (and its tier latency) happens once per block;
        entry decoding happens per *probed* entry, so binary-search probes
        stay cheap regardless of block size.

        ``intent`` is the cache-admission signal passed down to
        :meth:`StorageHierarchy.read` (``None`` resolves through the
        hierarchy's scoped default).  An *explicitly* MAINTENANCE-intent
        fetch additionally skips the per-handle view cache: the explicit
        intent is only passed by one-pass streams -- merges and streaming
        evolves touch each block exactly once, so memoizing their views
        would only retain dead payloads on a handle queries share.
        Scope-*inherited* maintenance reads (e.g. the post-groomer's point
        lookups under ``reading_as``) keep memoizing: binary-search probes
        revisit the same block many times, and re-fetching it per probe
        would multiply their I/O.
        """
        cached = self._views.get(block_index)
        if cached is not None:
            return cached
        effective = (
            intent
            if intent is not None
            else self.hierarchy.current_read_intent()
        )
        block = self.hierarchy.read(
            self.data_block_id(block_index), intent=effective
        )
        view = DataBlockView(
            self.definition, block.payload, stats=self.hierarchy.stats.decode
        )
        if intent is not ReadIntent.MAINTENANCE:
            self._views[block_index] = view
        return view

    def read_block(self, block_index: int) -> List[IndexEntry]:
        """Fetch and fully decode one data block (merges, tests)."""
        return self.block_view(block_index).all_entries()

    def drop_decode_cache(self) -> None:
        """Release decoded entries (used after purge, and by tests)."""
        self._views.clear()

    # -- global-ordinal navigation --------------------------------------------------

    def _cumulative_counts(self) -> List[int]:
        """``cum[i]`` = number of entries before data block ``i``."""
        if self._cumulative is None:
            cum = [0]
            for meta in self.header.block_meta:
                cum.append(cum[-1] + meta.entry_count)
            self._cumulative = cum
        return self._cumulative

    def locate(self, ordinal: int) -> Tuple[int, int]:
        """Map a global entry ordinal to ``(block_index, in_block_index)``."""
        if not 0 <= ordinal < self.entry_count:
            raise IndexError(f"ordinal {ordinal} out of range 0..{self.entry_count}")
        cum = self._cumulative_counts()
        lo, hi = 0, len(cum) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if cum[mid] <= ordinal:
                lo = mid
            else:
                hi = mid
        return lo, ordinal - cum[lo]

    def entry_at(self, ordinal: int) -> IndexEntry:
        block_index, in_block = self.locate(ordinal)
        return self.block_view(block_index).entry(in_block)

    def sort_key_at(self, ordinal: int) -> bytes:
        """Raw sort key at a global ordinal -- zero decode on v2 blocks."""
        block_index, in_block = self.locate(ordinal)
        return self.block_view(block_index).sort_key_at(in_block)

    def key_bytes_at(self, ordinal: int) -> bytes:
        """Raw user key (no beginTS suffix) at a global ordinal."""
        block_index, in_block = self.locate(ordinal)
        return self.block_view(block_index).key_bytes_at(in_block)

    def begin_ts_at(self, ordinal: int) -> int:
        """``beginTS`` at a global ordinal, from the raw sort-key suffix."""
        block_index, in_block = self.locate(ordinal)
        return self.block_view(block_index).begin_ts_at(in_block)

    def entry_blob_at(self, ordinal: int) -> bytes:
        """Raw serialized entry at a global ordinal (merge copy path)."""
        block_index, in_block = self.locate(ordinal)
        return self.block_view(block_index).entry_blob_at(in_block)

    def iter_entries(self, start_ordinal: int = 0):
        """Yield entries in sort-key order from ``start_ordinal`` onward."""
        if start_ordinal >= self.entry_count:
            return
        block_index, in_block = self.locate(start_ordinal)
        for bi in range(block_index, self.header.num_data_blocks):
            view = self.block_view(bi)
            start = in_block if bi == block_index else 0
            yield from view.iter_from(start)

    def iter_positions(
        self, start_ordinal: int = 0, intent: Optional[ReadIntent] = None
    ) -> Iterator[Tuple[DataBlockView, int]]:
        """Yield ``(block_view, in_block_index)`` in sort-key order.

        The raw-slice iteration primitive: callers probe
        ``view.sort_key_at(i)`` / ``view.begin_ts_at(i)`` and decode an
        entry only when they actually emit it.  ``intent`` flows to
        :meth:`block_view` (maintenance scans pass
        ``ReadIntent.MAINTENANCE`` so streamed blocks bypass cache
        admission).
        """
        if start_ordinal >= self.entry_count:
            return
        block_index, in_block = self.locate(start_ordinal)
        for bi in range(block_index, self.header.num_data_blocks):
            view = self.block_view(bi, intent=intent)
            start = in_block if bi == block_index else 0
            for i in range(start, view.count):
                yield view, i

    def iter_raw(
        self, start_ordinal: int = 0, intent: Optional[ReadIntent] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(sort_key, entry_blob)`` pairs in sort-key order.

        The zero-decode merge input: blobs stream out verbatim, keys are
        payload slices (on v2 blocks).
        """
        for view, i in self.iter_positions(start_ordinal, intent=intent):
            yield view.sort_key_at(i), view.entry_blob_at(i)

    def all_entries(self) -> List[IndexEntry]:
        """Materialize every entry (tests / merges; charges block reads)."""
        return list(self.iter_entries(0))

    # -- block-index narrowing ------------------------------------------------------

    def _block_first_keys(self) -> List[bytes]:
        if self._first_keys is None:
            self._first_keys = [m.first_sort_key for m in self.header.block_meta]
        return self._first_keys

    def key_position_bounds(self, target: bytes) -> Tuple[int, int]:
        """Ordinal bounds on ``first_geq(target)`` from the block index.

        Binary-searches the header's ``block_meta.first_sort_key`` table
        (no data-block I/O) and returns ``(lo, hi)`` such that the first
        ordinal whose sort key is ``>= target`` lies in ``[lo, hi]``.
        Probing within these fences means binary search never fetches data
        blocks outside the key range.
        """
        first_keys = self._block_first_keys()
        cum = self._cumulative_counts()
        # Blocks before b_lo end strictly below target (bisect_left keeps
        # duplicates of target on the safe side); blocks from b_hi on start
        # strictly above it.
        b_lo = max(0, bisect_left(first_keys, target) - 1)
        b_hi = bisect_right(first_keys, target)
        return cum[b_lo], cum[b_hi]

    # -- bloom membership (extension) -----------------------------------------------

    def may_contain_key(self, key_bytes: bytes) -> bool:
        """Bloom-filter membership test; ``True`` when no filter exists."""
        if not self._bloom_decoded:
            from repro.core.bloom import BloomFilter

            blob = self.header.bloom_blob
            self._bloom = BloomFilter.from_bytes(blob) if blob else None
            self._bloom_decoded = True
        if self._bloom is None:
            return True
        return self._bloom.might_contain(key_bytes)

    # -- covering test -----------------------------------------------------------------

    def is_covered_by_watermark(self, max_covered_groomed_id: int) -> bool:
        """Whether queries must ignore this groomed run (paper section 5.4).

        After an evolve advances the post-groomed watermark, any groomed run
        whose *end* groomed block id is <= the watermark is fully covered by
        post-groomed runs and "automatically ignored by queries".
        """
        return (
            self.zone is Zone.GROOMED
            and self.max_groomed_id <= max_covered_groomed_id
        )


__all__ = [
    "ColumnRange",
    "DataBlockView",
    "DataBlockMeta",
    "IndexRun",
    "RunHeader",
    "Synopsis",
    "block_checksum",
    "is_data_block",
    "decode_data_block",
    "encode_data_block",
    "encode_data_block_from_blobs",
    "HEADER_ORDINAL",
]
