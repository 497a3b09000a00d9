"""v2 data-block format: raw accessors, block-index narrowing, rejection
of non-v2 payloads.

The property suite (tests/properties/test_zero_decode_keys.py) covers
random shapes; these tests pin the concrete behaviours: a run whose block
lost the v2 magic refuses to be searched, probes stay zero-decode, and the
block-index fences bracket the true binary-search target.
"""

import pytest

from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.run import DataBlockView
from repro.core.search import batch_lookup_in_run, lookup_key_in_run, search_run
from repro.storage.block import Block
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries

DEF = i1_definition()


def build_run(keys, block_bytes=256, bloom_fpr=None):
    hierarchy = StorageHierarchy()
    builder = RunBuilder(DEF, hierarchy, data_block_bytes=block_bytes, bloom_fpr=bloom_fpr)
    entries = make_entries(DEF, keys)
    run = builder.build("r", entries, Zone.GROOMED, 0, 0, 0)
    return run, hierarchy, entries


def key_bytes_of(k):
    from repro.core.encoding import encode_composite, encode_uint64

    eq, sort = (k,), (k,)
    return encode_uint64(DEF.hash_of(eq)) + encode_composite(eq) + encode_composite(sort)


def rewrite_block(run, hierarchy, block_index, rewrite):
    """Replace one data block's payload with ``rewrite(payload)``."""
    block_id = run.data_block_id(block_index)
    payload = hierarchy.read(block_id).payload
    hierarchy.delete_everywhere(block_id)  # shared storage is immutable
    hierarchy.write_persisted(Block(block_id, rewrite(payload)))
    run.drop_decode_cache()


def strip_magic(payload):
    return b"\0\0\0\1" + payload[4:]


class TestNonV2Blocks:
    def test_search_over_non_v2_block_raises(self):
        run, hierarchy, _ = build_run(list(range(50)))
        rewrite_block(run, hierarchy, 0, strip_magic)
        with pytest.raises(ValueError):
            list(search_run(run, b"", b"", 1 << 40))

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda payload: b"",
            lambda payload: payload[:3],
            lambda payload: b"UMZI" + payload[4:],
            lambda payload: b"umb2" + payload[4:],
            lambda payload: payload[4:8] + payload[8:],
        ],
        ids=["empty", "truncated_magic", "header_magic", "lowercase_magic",
             "count_prefixed"],
    )
    def test_view_rejects_payload_without_v2_magic(self, rewrite):
        run, hierarchy, _ = build_run(list(range(50)))
        payload = hierarchy.read(run.data_block_id(0)).payload
        assert DataBlockView(DEF, payload).count > 0
        with pytest.raises(ValueError):
            DataBlockView(DEF, rewrite(payload))

    def test_point_lookup_refuses_only_the_non_v2_block(self):
        run, hierarchy, _ = build_run(list(range(50)))
        last_block = run.header.num_data_blocks - 1
        assert last_block > 0

        def key_in(block_index):
            payload = hierarchy.read(run.data_block_id(block_index)).payload
            return DataBlockView(DEF, payload).entry(0).equality_values[0]

        bad, good = key_in(0), key_in(last_block)
        rewrite_block(run, hierarchy, 0, strip_magic)
        with pytest.raises(ValueError):
            lookup_key_in_run(run, key_bytes_of(bad), 1 << 40,
                              DEF.hash_of((bad,)))
        hit = lookup_key_in_run(run, key_bytes_of(good), 1 << 40,
                                DEF.hash_of((good,)))
        assert hit is not None and hit.equality_values == (good,)

    def test_batch_lookup_over_non_v2_block_raises(self):
        keys = list(range(50))
        run, hierarchy, _ = build_run(keys)
        rewrite_block(run, hierarchy, 0, strip_magic)
        probe = sorted(
            ((key_bytes_of(k), DEF.hash_of((k,))) for k in keys),
            key=lambda pair: pair[0],
        )
        with pytest.raises(ValueError):
            batch_lookup_in_run(run, probe, 1 << 40)


class TestZeroDecodeAccounting:
    def test_point_lookup_decodes_only_the_emitted_entry(self):
        run, hierarchy, _ = build_run(list(range(200)), block_bytes=512)
        stats = hierarchy.stats.decode
        # Warm the block cache so only probe-side effects are measured.
        hit_key = key_bytes_of(123)
        lookup_key_in_run(run, hit_key, 1 << 40, DEF.hash_of((123,)))
        before = stats.snapshot()
        hit = lookup_key_in_run(run, hit_key, 1 << 40, DEF.hash_of((123,)))
        delta = stats.diff(before)
        assert hit is not None
        # The emitted entry was already decode-cached by the warmup, so the
        # steady-state probe decodes nothing at all.
        assert delta.entry_decodes == 0
        assert delta.raw_key_probes > 0

    def test_miss_decodes_nothing(self):
        run, hierarchy, _ = build_run(list(range(0, 200, 2)), block_bytes=512)
        stats = hierarchy.stats.decode
        miss_key = key_bytes_of(131)
        lookup_key_in_run(run, miss_key, 1 << 40, DEF.hash_of((131,)))
        before = stats.snapshot()
        assert lookup_key_in_run(run, miss_key, 1 << 40, DEF.hash_of((131,))) is None
        assert stats.diff(before).entry_decodes == 0

    def test_bloom_miss_skips_block_fetches(self):
        run, hierarchy, _ = build_run(list(range(0, 100, 2)), bloom_fpr=0.001)
        run.drop_decode_cache()
        before_reads = hierarchy.stats.tier("ssd").reads
        # Scan for a definitely-absent key: the bloom filter answers from
        # the header alone.
        misses = [
            lookup_key_in_run(run, key_bytes_of(k), 1 << 40, DEF.hash_of((k,)))
            for k in range(1001, 1101, 2)
        ]
        assert misses == [None] * len(misses)
        assert hierarchy.stats.tier("ssd").reads == before_reads

    def test_batch_cursor_keeps_bucket_fence(self):
        # Regression: a bucket entirely behind the monotone cursor used to
        # widen the search to (floor, entry_count); now the key is resolved
        # as absent without any probe.  Correctness check: present keys
        # still resolve identically to individual lookups.
        keys = list(range(0, 400, 4))
        run, _, _ = build_run(keys, block_bytes=512)
        probe = sorted(
            ((key_bytes_of(k), DEF.hash_of((k,))) for k in range(0, 400, 3)),
            key=lambda pair: pair[0],
        )
        results = batch_lookup_in_run(run, probe, 1 << 40)
        for (kb, h), got in zip(probe, results):
            assert got == lookup_key_in_run(run, kb, 1 << 40, h)


class TestBlockIndexNarrowing:
    def test_fences_bracket_first_geq(self):
        keys = list(range(300))
        run, _, _ = build_run(keys, block_bytes=512)
        for k in (0, 1, 150, 298, 299):
            target = key_bytes_of(k)
            lo, hi = run.key_position_bounds(target)
            true_first_geq = next(
                (
                    i
                    for i in range(run.entry_count)
                    if run.sort_key_at(i) >= target
                ),
                run.entry_count,
            )
            assert lo <= true_first_geq <= hi
