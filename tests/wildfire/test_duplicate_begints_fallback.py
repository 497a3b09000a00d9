"""Duplicate ``beginTS`` values must force the entry-rebuild evolve.

Streaming evolve keys its RID map by ``beginTS``; the groomer's
``cycle | order`` composition keeps those unique, but an alternative ingest
front-end might not (the ROADMAP edge case).  Duplicates collapse in the
published ``rid_by_begin_ts`` map, and splicing from a collapsed map would
silently point several index entries at one record.  The indexer must
detect the collapse (map smaller than the migrated record count) and fall
back to the per-index entry rebuild for that PSN.
"""

import pytest

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.wildfire.blockstore import BlockCatalog
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.indexer import IndexerDaemon
from repro.wildfire.postgroomer import PostGroomer
from repro.wildfire.record import Record
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(**overrides):
    schema = TableSchema(
        name="dup",
        columns=(ColumnSpec("k"), ColumnSpec("v")),
        primary_key=("k",),
        sharding_key=("k",),
    )
    spec = IndexSpec(("k",), (), ("v",))
    return WildfireShard(
        schema, spec, config=ShardConfig(**overrides)
    )


def groom_block_with_duplicate_ts(shard, rows, begin_ts_of):
    """Store one groomed block with caller-chosen (possibly duplicate)
    beginTS values -- standing in for a non-groomer ingest front-end --
    and build the index runs over it, as the groomer would."""
    records = [
        Record(values=row, begin_ts=begin_ts_of(i))
        for i, row in enumerate(rows)
    ]
    block = shard.catalog.store_groomed(records)
    shard.indexes.build_groomed_runs(block)
    return block


class TestDuplicateBeginTsFallback:
    def test_collapsed_map_forces_entry_rebuild(self):
        shard = make_shard()
        # Two distinct keys share beginTS=7: the rid_by_begin_ts map the
        # post-groomer publishes can only keep one of them.
        rows = [(1, 100), (2, 200), (3, 300)]
        groom_block_with_duplicate_ts(
            shard, rows, begin_ts_of=lambda i: 7 if i < 2 else 9
        )
        op = shard.post_groomer.post_groom()
        assert op is not None
        assert op.record_count == 3
        assert len(op.rid_by_begin_ts) == 2, "duplicates must collapse"

        result = shard.indexer.step()
        assert result is not None
        assert shard.indexer.streaming_fallbacks == 1
        # The rebuild indexed every record, duplicates included.
        assert result.evolve.new_run_entries == 3
        assert result.evolve.spliced_blobs == 0, (
            "fallback must not run the splice path"
        )
        # Every key resolves to its own post-groomed record -- no two index
        # entries were collapsed onto one RID.
        rids = set()
        for k, v in rows:
            entry = shard.index.lookup((k,))
            assert entry is not None
            assert entry.rid.zone is Zone.POST_GROOMED
            assert shard.catalog.fetch_record(entry.rid).values == (k, v)
            rids.add(entry.rid)
        assert len(rids) == 3

    def test_unique_ts_stays_on_streaming_path(self):
        shard = make_shard()
        rows = [(1, 100), (2, 200), (3, 300)]
        groom_block_with_duplicate_ts(shard, rows, begin_ts_of=lambda i: 5 + i)
        op = shard.post_groomer.post_groom()
        assert len(op.rid_by_begin_ts) == op.record_count == 3
        result = shard.indexer.step()
        assert result is not None
        assert shard.indexer.streaming_fallbacks == 0
        assert result.evolve.spliced_blobs == 3

    def test_real_groomer_never_needs_the_fallback(self):
        shard = make_shard(post_groom_every=2)
        for batch in range(4):
            shard.ingest([(k, batch * 10 + k) for k in range(5)])
            shard.tick()
        shard.run_cycles(2)
        assert shard.indexer.evolves_applied > 0
        assert shard.indexer.streaming_fallbacks == 0


class TestRebuildSelection:
    """The entry rebuild is selected by the collapsed map alone."""

    @pytest.mark.parametrize(
        "begin_ts_of, rebuilds",
        [
            (lambda i: 5 + i, 0),
            (lambda i: 7 if i < 2 else 9 + i, 1),
            (lambda i: 7, 1),
        ],
        ids=["unique", "one_shared_pair", "all_shared"],
    )
    def test_rebuild_runs_only_for_a_collapsed_map(
        self, monkeypatch, begin_ts_of, rebuilds
    ):
        calls = []
        rebuild = IndexerDaemon._rebuild_evolve

        def counted(shard_index, op, blocks):
            calls.append(shard_index.name)
            return rebuild(shard_index, op, blocks)

        monkeypatch.setattr(IndexerDaemon, "_rebuild_evolve",
                            staticmethod(counted))
        shard = make_shard()
        rows = [(k, k * 100) for k in range(1, 5)]
        groom_block_with_duplicate_ts(shard, rows, begin_ts_of)
        op = shard.post_groomer.post_groom()
        collapsed = len(op.rid_by_begin_ts) < op.record_count
        assert collapsed == bool(rebuilds)
        assert shard.indexer.step() is not None
        assert calls == ["primary"] * rebuilds
        assert shard.indexer.streaming_fallbacks == rebuilds
        for k, v in rows:
            entry = shard.index.lookup((k,))
            assert entry.rid.zone is Zone.POST_GROOMED
            assert shard.catalog.fetch_record(entry.rid).values == (k, v)

    def test_collapsed_map_rebuilds_every_index(self):
        shard = make_shard(
            secondary_indexes={"by_v": IndexSpec((), ("v",), ())}
        )
        rows = [(1, 100), (2, 200), (3, 300)]
        groom_block_with_duplicate_ts(shard, rows, begin_ts_of=lambda i: 7)
        shard.post_groomer.post_groom()
        result = shard.indexer.step()
        assert shard.indexer.streaming_fallbacks == 1
        assert len(result.secondary_evolves) == 1
        assert result.secondary_evolves[0].new_run_entries == 3
        assert result.secondary_evolves[0].spliced_blobs == 0
        rids = set()
        for k, v in rows:
            hits = shard.secondary_lookup("by_v", (), (v,))
            assert len(hits) == 1
            assert hits[0].rid.zone is Zone.POST_GROOMED
            assert shard.catalog.fetch_record(hits[0].rid).values == (k, v)
            rids.add(hits[0].rid)
        assert len(rids) == 3
