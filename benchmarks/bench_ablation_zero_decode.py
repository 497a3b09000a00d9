"""Ablation A8: zero-decode raw-key hot path (v2 block format).

Paper section 4.2 stores all ordering columns "in lexicographically
comparable formats ... so that keys can be compared by simply using memory
compare operations".  The v2 data-block format makes the reproduction
actually do that: binary-search probes, batched lookups, and K-way merges
compare raw sort-key slices and decode an ``IndexEntry`` only for entries
they emit.  This ablation reports entry-decodes-per-lookup on the raw-key
path, plus the decode count of the blob-level merge (which must be zero).
The decode-per-probe arm it once compared against is retired with the
search path it measured; its numbers stay in the committed
``BENCH_ablation_a8.json``.
"""

import heapq

from repro.bench.fixtures import build_single_run, entries_for_keys
from repro.bench.harness import ExperimentResult, Series
from repro.core.builder import RunBuilder
from repro.core.definition import i1_definition
from repro.core.entry import Zone
from repro.core.merge import merge_entry_blob_streams, merge_entry_streams
from repro.core.query import QueryExecutor
from repro.core.run import Synopsis
from repro.storage.hierarchy import StorageHierarchy
from repro.workloads.generator import KeyGenerator, KeyMapper, KeyMode
from repro.workloads.queries import QueryBatchGenerator

RUN_SIZE = 20_000
BATCH = 300
MERGE_RUN_SIZE = 5_000


def test_ablation_zero_decode(benchmark, reporter):
    definition = i1_definition()
    mapper = KeyMapper(definition)
    run, hierarchy = build_single_run(definition, RUN_SIZE, mapper)
    batch = QueryBatchGenerator(mapper, RUN_SIZE, seed=29).random_batch(BATCH)
    executor = QueryExecutor(definition, lambda: [run])
    decode = hierarchy.stats.decode

    # Decode accounting on a cold decode cache (one clean pass).
    run.drop_decode_cache()
    before = decode.snapshot()
    raw_results = executor.batch_lookup(batch)
    raw_delta = decode.diff(before)

    hits = sum(1 for e in raw_results if e is not None)
    # Duplicate keys in the random batch emit the same (memoized) entry,
    # so the decode floor is the number of *distinct* emitted entries.
    distinct_hits = len({e.rid for e in raw_results if e is not None})
    raw_dpl = raw_delta.entry_decodes / BATCH

    # The acceptance bar: the raw path decodes only the entries it emits.
    assert hits > 0
    assert raw_delta.entry_decodes == distinct_hits, (
        f"raw path decoded {raw_delta.entry_decodes} entries for "
        f"{distinct_hits} distinct hits; probes must be zero-decode"
    )
    assert raw_delta.raw_key_probes > 0

    result = ExperimentResult(
        figure="Ablation A8",
        title="Zero-decode raw-key probes",
        x_label="metric",
        y_label="value",
        series=[
            Series("raw memcmp slices", [
                ("decodes/lookup", raw_dpl),
                ("raw key probes/lookup", raw_delta.raw_key_probes / BATCH),
            ]),
        ],
        notes=(
            f"single {RUN_SIZE}-entry run, {BATCH} random point lookups; "
            f"raw={raw_delta.entry_decodes} decodes "
            f"({raw_dpl:.2f}/lookup, = emitted hits)"
        ),
    )
    reporter(result)

    benchmark(lambda: (run.drop_decode_cache(), executor.batch_lookup(batch)))


def test_merge_path_is_zero_decode(reporter):
    definition = i1_definition()
    hierarchy = StorageHierarchy()
    builder = RunBuilder(definition, hierarchy, data_block_bytes=4096)
    mapper = KeyMapper(definition)
    generator = KeyGenerator(KeyMode.RANDOM, seed=5, key_space=MERGE_RUN_SIZE * 4)
    runs = []
    for i in range(2):
        keys = generator.next_batch(MERGE_RUN_SIZE)
        entries = entries_for_keys(
            definition, keys, mapper, ts_start=1 + i * MERGE_RUN_SIZE, block_id=i
        )
        runs.append(
            builder.build(f"in{i}", entries, Zone.GROOMED, 0, i, i)
        )
    decode = hierarchy.stats.decode

    # Legacy merge (the seed's implementation): decode every input entry,
    # re-encode its sort key for heap ordering, re-serialize to build.
    def legacy_merge():
        def stream(run, recency):
            for entry in run.iter_entries():
                yield entry.sort_key(definition), recency, entry

        previous = None
        for sort_key, _recency, entry in heapq.merge(
            *[stream(r, i) for i, r in enumerate(runs)]
        ):
            if sort_key == previous:
                continue
            previous = sort_key
            yield entry

    before = decode.snapshot()
    legacy_entries = list(legacy_merge())
    builder.build("legacy-out", legacy_entries, Zone.GROOMED, 1, 0, 1, presorted=True)
    legacy_decodes = decode.diff(before).entry_decodes

    for run in runs:
        run.drop_decode_cache()

    # Blob merge: entry bytes stream through verbatim.
    before = decode.snapshot()
    merged = list(merge_entry_blob_streams(definition, runs))
    blob_run = builder.build_from_blobs(
        "blob-out",
        merged,
        Synopsis.union([r.header.synopsis for r in runs]),
        Zone.GROOMED,
        1,
        0,
        1,
    )
    blob_delta = decode.diff(before)

    assert blob_delta.entry_decodes == 0, (
        f"blob merge decoded {blob_delta.entry_decodes} entries; "
        "the K-way merge must be zero-decode"
    )
    assert blob_delta.blob_copies == len(merged)
    assert legacy_decodes >= len(legacy_entries)
    assert blob_run.entry_count == len(legacy_entries)
    # Byte-identical output entries either way.
    assert [blob for _sk, blob in merged] == [
        e.to_bytes(definition) for e in legacy_entries
    ]

    result = ExperimentResult(
        figure="Ablation A8b",
        title="K-way merge entry decodes: blob streaming vs decode+re-encode",
        x_label="merge path",
        y_label="entry decodes",
        series=[
            Series("legacy entry merge", [("decodes", float(legacy_decodes))]),
            Series("blob merge", [("decodes", float(blob_delta.entry_decodes))]),
        ],
        notes=(
            f"2 runs x {MERGE_RUN_SIZE} entries; blob path forwards "
            f"{blob_delta.blob_copies} pre-serialized blobs untouched"
        ),
    )
    reporter(result)
