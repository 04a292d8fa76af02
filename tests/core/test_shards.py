"""Unit tests for the epoch-range shard store machinery.

Equivalence properties (sharded == monolithic) live in
``tests/property/test_shard_equivalence.py``; this file covers the
store's durability contract — manifest validation in
:meth:`ShardStore.open`, builder lifecycle errors, accounting fixes
(``memory_bytes`` including packed columns and splits), and the
shard-specific timing/observability surface.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.epoching import EpochGrid
from repro.core.sessions import SessionTable
from repro.core.shards import (
    STORE_MANIFEST,
    ShardInfo,
    ShardStore,
    ShardStoreBuilder,
    analyze_shards,
    build_shard_store,
    sweep_shards,
)
from repro.core.substrate import AnalysisSubstrate
from tests.property.test_parallel_equivalence import SMALL_CONFIG, build_table


def small_table():
    return build_table(
        [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3) for a in range(30)]
    )


@pytest.fixture
def store(tmp_path):
    return build_shard_store(small_table(), tmp_path / "s", n_shards=3)


class TestShardStoreOpen:
    def test_round_trip(self, store):
        reopened = ShardStore.open(store.path)
        assert reopened.grid == store.grid
        assert reopened.shards == store.shards
        assert reopened.total_sessions == store.total_sessions
        assert reopened.schema_digest == store.schema_digest

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="not a shard store"):
            ShardStore.open(tmp_path / "empty")

    def test_corrupt_manifest(self, store):
        (store.path / STORE_MANIFEST).write_text("{not json")
        with pytest.raises(ValueError, match="corrupted"):
            ShardStore.open(store.path)

    def test_wrong_kind(self, store):
        manifest = store.manifest_dict()
        manifest["kind"] = "something-else"
        (store.path / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="not a shard-store manifest"):
            ShardStore.open(store.path)

    def test_wrong_version(self, store):
        manifest = store.manifest_dict()
        manifest["version"] = 99
        (store.path / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported shard-store version"):
            ShardStore.open(store.path)

    def test_version_2_store_is_refused(self, store):
        """Version-2 stores hold snapshots of the older format; they are
        rebuilt, never read."""
        manifest = store.manifest_dict()
        manifest["version"] = 2
        (store.path / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="rebuild"):
            ShardStore.open(store.path)

    def test_missing_field(self, store):
        manifest = store.manifest_dict()
        del manifest["total_sessions"]
        (store.path / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="malformed"):
            ShardStore.open(store.path)

    def test_non_contiguous_shards(self, store):
        manifest = store.manifest_dict()
        manifest["shards"][1]["epoch_lo"] -= 1  # overlaps shard 0
        (store.path / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="must abut"):
            ShardStore.open(store.path)

    def test_incomplete_coverage(self, store):
        manifest = store.manifest_dict()
        manifest["shards"].pop()  # last epochs uncovered
        (store.path / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="grid has"):
            ShardStore.open(store.path)

    def test_missing_shard_file(self, store):
        store.shard_path(1).unlink()
        with pytest.raises(ValueError, match="missing shard file"):
            ShardStore.open(store.path)

    def test_empty_shard_range_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ShardInfo(
                file="x.sub", epoch_lo=3, epoch_hi=3, sessions=0, split_sha256="0" * 64
            )

    def test_a_split_digest_is_required(self):
        with pytest.raises(ValueError, match="SHA-256 hex digest"):
            ShardInfo(file="x.sub", epoch_lo=0, epoch_hi=1, sessions=0, split_sha256="")


class TestShardStoreContents:
    def test_shard_grid_is_range_restriction(self, store):
        for i, shard in enumerate(store.shards):
            grid = store.shard_grid(i)
            assert grid.n_epochs == shard.n_epochs
            assert grid.origin == store.grid.epoch_start(shard.epoch_lo)
            assert grid.epoch_seconds == store.grid.epoch_seconds

    def test_rows_outside_the_shard_range_raise(self, store):
        """A shard file whose sessions lie outside its manifest range
        fails loudly instead of losing those sessions."""
        first = store.shards[0]
        mismatched = ShardStore(
            path=store.path,
            grid=store.grid,
            schema=store.schema,
            shards=[
                first,
                ShardInfo(file=first.file, epoch_lo=first.epoch_hi,
                          epoch_hi=store.grid.n_epochs, sessions=first.sessions,
                          split_sha256=first.split_sha256),
            ],
            total_sessions=2 * first.sessions,
        )
        assert len(mismatched.load_shard(0)) == first.sessions
        with pytest.raises(ValueError, match="outside the shard's store epochs"):
            mismatched.load_shard(1)

    def test_a_split_other_than_the_manifest_records_raises(self, store):
        """The result cache keys on the manifest's split digest, so a
        shard whose rows split otherwise is refused, not analysed."""
        first = store.shards[0]
        assert first.split_sha256
        tampered = ShardStore(
            path=store.path,
            grid=store.grid,
            schema=store.schema,
            shards=[dataclasses.replace(first, split_sha256="0" * 64)]
            + list(store.shards[1:]),
            total_sessions=store.total_sessions,
        )
        with pytest.raises(ValueError, match="split into epochs other than"):
            tampered.load_shard(0)

    def test_load_shard_mmaps_substrate(self, store):
        substrate = store.load_shard(0)
        assert isinstance(substrate, AnalysisSubstrate)
        assert len(substrate.table) == store.shards[0].sessions

    def test_session_counts_sum(self, store):
        assert sum(s.sessions for s in store.shards) == store.total_sessions


class TestWriter:
    """Both builders hand their parts to one writer, which stores each
    shard's table and nothing derived from it."""

    def test_writing_a_store_builds_no_index(self, tmp_path, tiny_trace):
        from repro.obs import MetricsRegistry, use_metrics

        table = tiny_trace.table
        grid = EpochGrid.covering(table, epoch_seconds=3600.0)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            batch = build_shard_store(table, tmp_path / "b", epochs_per_shard=8)
            builder = ShardStoreBuilder(tmp_path / "s", epochs_per_shard=8)
            epochs = grid.epoch_of(table.start_time)
            for epoch in reversed(range(grid.n_epochs)):
                builder.append(table.select(epochs == epoch))
            streamed = builder.finalize()
        counters = metrics.as_dict()["counters"]
        assert counters.get("index.builds", 0) == 0
        assert counters["shards.stores_built"] == 2
        assert [s.sessions for s in streamed.shards] == [
            s.sessions for s in batch.shards
        ]

    def test_an_unpackable_table_writes_no_manifest(self, tmp_path):
        from tests.core.test_packing_limit import wide_table

        with pytest.raises(ValueError, match="63 bits"):
            build_shard_store(wide_table(n_last=257), tmp_path / "w", n_shards=2)
        assert not (tmp_path / "w" / STORE_MANIFEST).exists()


class TestBuilder:
    def test_append_after_finalize_raises(self, tmp_path):
        builder = ShardStoreBuilder(tmp_path / "s", epochs_per_shard=2)
        builder.append(small_table())
        builder.finalize()
        with pytest.raises(ValueError, match="finalized"):
            builder.append(small_table())
        with pytest.raises(ValueError, match="finalized"):
            builder.finalize()

    def test_finalize_without_appends_yields_empty_store(self, tmp_path):
        store = ShardStoreBuilder(tmp_path / "s").finalize()
        assert store.shards == ()
        assert store.grid.n_epochs == 0
        assert ShardStore.open(store.path).total_sessions == 0

    def test_gap_epochs_get_empty_shards(self, tmp_path):
        rows = [(0, 0, 0, True)] * 10 + [(5, 1, 1, False)] * 10
        builder = ShardStoreBuilder(tmp_path / "s", epochs_per_shard=2)
        builder.append(build_table(rows))
        store = builder.finalize()
        assert store.grid.n_epochs == 6
        assert [s.sessions for s in store.shards] == [10, 0, 10]
        reopened = ShardStore.open(store.path)
        assert reopened.shards == store.shards


class TestAnalyzeShards:
    def test_epoch_seconds_mismatch_rejected(self, store):
        import dataclasses

        bad = dataclasses.replace(SMALL_CONFIG, epoch_seconds=60.0)
        with pytest.raises(ValueError, match="epoch_seconds"):
            sweep_shards(store, [bad])

    def test_timings_expose_load_and_merge_phases(self, store):
        analysis = analyze_shards(store, config=SMALL_CONFIG)
        d = analysis.timings.as_dict()
        assert d["load_s"] > 0.0
        assert d["merge_s"] > 0.0
        rendered = analysis.timings.render()
        assert "shard snapshot load" in rendered
        assert "shard merge" in rendered

    def test_monolithic_timings_omit_shard_lines(self):
        from repro.core.pipeline import analyze_trace

        analysis = analyze_trace(small_table(), config=SMALL_CONFIG)
        rendered = analysis.timings.render()
        assert "shard snapshot load" not in rendered
        assert "shard merge" not in rendered

    def test_observability_surface(self, store):
        from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

        tracer, metrics = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            analyze_shards(store, config=SMALL_CONFIG)
        counters = metrics.as_dict()["counters"]
        assert counters["shards.analyses"] == 1
        assert counters["shards.shards_analyzed"] == len(store.shards)
        spans = {s.name for s in tracer.finish().walk()}
        assert "analyze_shards" in spans
        assert "shard" in spans


class TestMemoryBytesAccounting:
    def test_substrate_includes_table_and_index(self):
        table = small_table()
        substrate = AnalysisSubstrate.build(table)
        # packed columns alone exceed the index-only figure the old
        # accounting reported
        assert substrate.memory_bytes() > substrate.index.memory_bytes()
        assert substrate.memory_bytes() >= table.start_time.nbytes

    def test_substrate_counts_cached_splits(self):
        substrate = AnalysisSubstrate.build(small_table())
        before = substrate.memory_bytes()
        grid = EpochGrid.covering(substrate.table, epoch_seconds=3600.0)
        substrate.epoch_rows(grid)
        assert substrate.memory_bytes() > before

    def test_streaming_includes_table_and_epoch_rows(self):
        streaming = AnalysisSubstrate.build(SessionTable.empty())
        streaming.append(small_table())
        total = streaming.memory_bytes()
        assert total > streaming.index.memory_bytes()
        assert total >= streaming.table.start_time.nbytes
        grid = EpochGrid.covering(streaming.table, epoch_seconds=3600.0)
        split = streaming.epoch_rows(grid)
        assert streaming.memory_bytes() == total + sum(r.nbytes for r in split)
