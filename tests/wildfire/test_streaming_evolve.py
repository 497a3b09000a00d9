"""End-to-end streaming evolve: the zero-decode indexer path must answer
every primary and secondary query with the newest record version, with
zero entry decodes during the evolve itself."""

from repro.core.definition import ColumnSpec
from repro.core.entry import Zone
from repro.wildfire.engine import ShardConfig, WildfireShard
from repro.wildfire.schema import IndexSpec, TableSchema


def make_shard(**overrides):
    schema = TableSchema(
        name="iot",
        columns=(ColumnSpec("device"), ColumnSpec("msg"), ColumnSpec("reading")),
        primary_key=("device", "msg"),
        sharding_key=("device",),
        partition_key=("msg",),
    )
    spec = IndexSpec(("device",), ("msg",), ("reading",))
    config = ShardConfig(
        secondary_indexes={"by_reading": IndexSpec((), ("reading",), ())},
        **overrides,
    )
    return WildfireShard(schema, spec, config=config)


def run_workload(shard):
    for batch in range(6):
        shard.ingest([(d, m, batch * 100 + d * 10 + m)
                      for d in range(3) for m in range(4)])
        shard.tick()
    shard.run_cycles(4)


class TestStreamingEvolveEndToEnd:
    def test_answers_match_newest_versions(self):
        shard = make_shard(post_groom_every=2)
        run_workload(shard)
        assert shard.indexer.evolves_applied > 0
        assert shard.indexer.streaming_fallbacks == 0
        last = 5 * 100  # readings written by the final ingest batch
        for d in range(3):
            for m in range(4):
                reading = last + d * 10 + m
                entry = shard.index.lookup((d,), (m,))
                assert entry is not None
                assert entry.include_values == (reading,)
                assert shard.point_query((d,), (m,)).values == (d, m, reading)
        # The secondary index evolved in lockstep: reading 512 is exactly
        # one live record, and its RID resolves to that record.
        hits = shard.secondary_lookup("by_reading", (), (512,))
        assert [shard.catalog.fetch_record(e.rid).values for e in hits] == [
            (1, 2, 512)
        ]

    def test_streaming_evolve_is_zero_decode(self):
        shard = make_shard(post_groom_every=100)
        for batch in range(3):
            shard.ingest([(d, m, batch + d + m) for d in range(2) for m in range(3)])
            shard.groomer.groom()
        decode = shard.hierarchy.stats.decode
        before = decode.snapshot()
        op = shard.post_groomer.post_groom()
        assert op is not None and op.rid_by_begin_ts
        result = shard.indexer.step()
        delta = decode.diff(before)
        assert result is not None
        assert result.evolve.spliced_blobs == op.record_count
        assert delta.evolve_blob_splices >= op.record_count
        assert delta.entry_decodes == 0, (
            "streaming evolve must not materialize entries"
        )
        # Entries now point into the post-groomed zone.
        hit = shard.index.lookup((1,), (1,))
        assert hit is not None and hit.rid.zone is Zone.POST_GROOMED
