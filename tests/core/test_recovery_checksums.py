"""Checksum-based recovery: per-block CRC validation, rejection of runs
it cannot validate, and journal torn-write detection."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.index import UmziConfig, UmziIndex
from repro.core.journal import Checkpoint, MetadataJournal
from repro.core.levels import LevelConfig
from repro.core.run import RunHeader, block_checksum
from repro.storage.block import Block, BlockId
from repro.storage.hierarchy import StorageHierarchy

from tests.conftest import make_entries

DEF = i1_definition()


def build_index(name="ck", runs=2, keys_per_run=30):
    levels = LevelConfig(groomed_levels=3, post_groomed_levels=2,
                         max_runs_per_level=4, size_ratio=2)
    index = UmziIndex(DEF, config=UmziConfig(name=name, levels=levels,
                                             data_block_bytes=512))
    ts = 1
    for gid in range(runs):
        keys = range(gid * keys_per_run, (gid + 1) * keys_per_run)
        index.add_groomed_run(make_entries(DEF, keys, ts), gid, gid)
        ts += keys_per_run
    return index


def rewrite_shared(index, block_id, payload):
    index.hierarchy.shared.delete(block_id)
    index.hierarchy.shared.write(Block(block_id, payload))


def rewrite_run(index, run, payload_of, checksum_of):
    """Rewrite every data block of ``run`` as ``payload_of(payload)`` and
    record ``checksum_of(new_payload)`` in its header's block index."""
    new_metas = []
    for bi, meta in enumerate(run.header.block_meta):
        block_id = run.data_block_id(bi)
        payload = payload_of(index.hierarchy.shared.read(block_id).payload)
        new_metas.append(replace(
            meta, size_bytes=len(payload), checksum=checksum_of(payload)
        ))
        rewrite_shared(index, block_id, payload)
    header = replace(run.header, block_meta=tuple(new_metas))
    rewrite_shared(index, run.header_block_id(), header.to_bytes(DEF))
    run.drop_decode_cache()


class TestChecksumRecovery:
    def test_clean_recovery_is_zero_decode(self):
        index = build_index()
        total_blocks = sum(r.header.num_data_blocks for r in index.all_runs())
        index.hierarchy.crash_local_tiers()
        decode = index.hierarchy.stats.decode
        before = decode.snapshot()
        state = index.recover()
        delta = decode.diff(before)
        assert not state.corrupt_run_ids
        assert delta.entry_decodes == 0
        assert delta.checksum_validations >= total_blocks

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_is_caught(self, data):
        """Property: one flipped byte anywhere in any v2 data-block payload
        makes recovery drop exactly that run as corrupt."""
        index = build_index()
        runs = index.all_runs()
        victim = runs[data.draw(st.integers(0, len(runs) - 1), label="run")]
        bi = data.draw(
            st.integers(0, victim.header.num_data_blocks - 1), label="block"
        )
        block_id = victim.data_block_id(bi)
        payload = bytearray(index.hierarchy.shared.read(block_id).payload)
        pos = data.draw(st.integers(0, len(payload) - 1), label="byte")
        flip = data.draw(st.integers(1, 255), label="xor")
        payload[pos] ^= flip
        rewrite_shared(index, block_id, bytes(payload))
        index.hierarchy.crash_local_tiers()

        state = index.recover()
        assert state.corrupt_run_ids == [victim.run_id]
        assert victim.run_id not in index.hierarchy.shared.namespaces()
        survivors = {r.run_id for r in index.all_runs()}
        assert victim.run_id not in survivors
        assert survivors == {r.run_id for r in runs} - {victim.run_id}

    def test_run_without_checksums_is_dropped(self):
        """A header whose block index records no checksums cannot be
        validated, so recovery drops the run like any corrupt run."""
        index = build_index(runs=2, keys_per_run=20)
        victim, survivor = index.all_runs()
        rewrite_run(index, victim, lambda payload: payload, lambda _: None)
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert state.corrupt_run_ids == [victim.run_id]
        assert {r.run_id for r in index.all_runs()} == {survivor.run_id}

    def test_block_without_v2_magic_is_dropped(self):
        """A block that is not a v2 data block fails validation even when
        its header checksum matches the bytes."""
        index = build_index(runs=2, keys_per_run=20)
        victim, survivor = index.all_runs()
        rewrite_run(
            index, victim, lambda payload: b"\0\0\0\1" + payload[4:],
            block_checksum,
        )
        index.hierarchy.crash_local_tiers()
        decode = index.hierarchy.stats.decode
        before = decode.snapshot()
        state = index.recover()
        assert state.corrupt_run_ids == [victim.run_id]
        assert decode.diff(before).entry_decodes == 0
        assert {r.run_id for r in index.all_runs()} == {survivor.run_id}

    def test_one_block_without_checksum_drops_the_whole_run(self):
        index = build_index(runs=2, keys_per_run=30)
        victim, survivor = index.all_runs()
        last = victim.header.num_data_blocks - 1
        assert last > 0, "fixture must span several data blocks"
        metas = list(victim.header.block_meta)
        metas[last] = replace(metas[last], checksum=None)
        header = replace(victim.header, block_meta=tuple(metas))
        rewrite_shared(index, victim.header_block_id(), header.to_bytes(DEF))
        index.hierarchy.crash_local_tiers()
        state = index.recover()
        assert state.corrupt_run_ids == [victim.run_id]
        assert {r.run_id for r in index.all_runs()} == {survivor.run_id}

    @pytest.mark.parametrize(
        "payload_of, checksum_of",
        [
            (lambda payload: payload, lambda _: None),
            (lambda payload: b"\0\0\0\1" + payload[4:], block_checksum),
        ],
        ids=["no_checksum", "no_v2_magic"],
    )
    def test_dropped_run_is_deleted_and_survivor_still_answers(
        self, payload_of, checksum_of
    ):
        index = build_index(runs=2, keys_per_run=20)
        victim, survivor = index.all_runs()
        victim_keys = range(20) if victim.min_groomed_id == 0 else range(20, 40)
        survivor_keys = [k for k in range(40) if k not in victim_keys]
        rewrite_run(index, victim, payload_of, checksum_of)
        index.hierarchy.crash_local_tiers()
        index.recover()
        assert victim.run_id not in index.hierarchy.shared.namespaces()
        assert survivor.run_id in index.hierarchy.shared.namespaces()
        for k in survivor_keys:
            assert len(index.scan((k,), (k,), (k,))) == 1
        for k in victim_keys:
            assert index.scan((k,), (k,), (k,)) == []

    def test_header_roundtrip_preserves_checksums(self):
        index = build_index(runs=1)
        run = index.all_runs()[0]
        blob = run.header.to_bytes(DEF)
        decoded = RunHeader.from_bytes(DEF, blob)
        assert decoded.block_meta == run.header.block_meta
        for bi, meta in enumerate(decoded.block_meta):
            payload = index.hierarchy.read(run.data_block_id(bi)).payload
            assert meta.checksum == block_checksum(payload)


class TestJournalTornWrites:
    def test_torn_tail_falls_back_to_previous_checkpoint(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        journal.append(Checkpoint(indexed_psn=2, max_covered_groomed_id=7))
        ids = hierarchy.shared.namespace_block_ids("meta")
        newest = hierarchy.shared.read(ids[-1])
        # Torn write: the tail checkpoint lost its last bytes.
        hierarchy.shared.delete(ids[-1])
        hierarchy.shared.write(Block(ids[-1], newest.payload[:-6]))
        assert journal.latest() == Checkpoint(1, 3)

    def test_flipped_byte_in_checkpoint_is_caught(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        journal.append(Checkpoint(indexed_psn=2, max_covered_groomed_id=7))
        ids = hierarchy.shared.namespace_block_ids("meta")
        newest = hierarchy.shared.read(ids[-1])
        tampered = bytearray(newest.payload)
        tampered[5] ^= 0x10  # inside indexed_psn
        hierarchy.shared.delete(ids[-1])
        hierarchy.shared.write(Block(ids[-1], bytes(tampered)))
        assert journal.latest() == Checkpoint(1, 3)

    def test_all_checkpoints_torn_means_none(self):
        hierarchy = StorageHierarchy()
        journal = MetadataJournal(hierarchy, "meta")
        journal.append(Checkpoint(indexed_psn=1, max_covered_groomed_id=3))
        ids = hierarchy.shared.namespace_block_ids("meta")
        hierarchy.shared.delete(ids[-1])
        hierarchy.shared.write(Block(ids[-1], b"JUNKJUNK"))
        assert journal.latest() is None

    def test_pre_checksum_checkpoints_still_readable(self):
        import struct as _struct

        hierarchy = StorageHierarchy()
        # A checkpoint written by the old journal: magic + body, no CRC.
        legacy = b"UMZM" + _struct.pack(">QqQ", 5, 9, 0)
        hierarchy.shared.write(Block(BlockId("meta", 0), legacy))
        journal = MetadataJournal(hierarchy, "meta")
        assert journal.latest() == Checkpoint(5, 9)
