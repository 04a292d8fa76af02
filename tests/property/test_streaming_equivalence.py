"""Streaming-equivalence properties of the append engine.

The streaming path must be a pure re-ordering of work, never a
different computation:

* ``SessionTable.extend`` over any chunking is bit-identical to
  building the table from all rows at once (same vocabularies in
  first-appearance order, same codes, same metric columns);
* ``AnalysisSubstrate.append`` extends the table and drops the index;
  the index the next read builds — codec, leaf universe, row -> leaf
  inverse, metric masks warmed after the appends — and its byte
  footprint are bit-identical to a from-scratch ``build`` over the
  concatenated table, including across vocabulary growth that changes
  the packed key widths, and every epoch's view over it has the same
  cluster keys and counts as the batch index's. A stream of appends
  builds no index until it is read, then one;
* an ``AnalysisSubstrate`` grown by ``append`` from epoch-sized (or
  arbitrary) chunks yields the same analysis as batch ``analyze_trace``;
* substrate snapshots round-trip exactly, and corrupted or
  version-mismatched files are rejected with ``ValueError``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregation import KeyCodec
from repro.core.epoching import EpochGrid, split_into_epochs
from repro.core.index import TraceClusterIndex
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE, MetricThresholds
from repro.core.pipeline import analyze_trace
from repro.core.sessions import METRIC_COLUMNS, SessionTable
from repro.core.substrate import AnalysisSubstrate
from repro.io.snapshot import MAGIC, load_substrate, save_substrate
from repro.obs import MetricsRegistry, use_metrics
from tests.property.test_parallel_equivalence import (
    ALL_METRICS_CONFIG,
    SMALL_CONFIG,
    assert_equal_analyses,
    build_table,
    session_rows,
)


def assert_equal_tables(a: SessionTable, b: SessionTable) -> None:
    """Bit-identical columnar content (NaN-aware float compares)."""
    assert a.schema.names == b.schema.names
    assert a.vocabs == b.vocabs
    assert np.array_equal(a.codes, b.codes)
    for name in METRIC_COLUMNS:
        ca, cb = getattr(a, name), getattr(b, name)
        assert ca.dtype == cb.dtype
        assert np.array_equal(ca, cb, equal_nan=ca.dtype.kind == "f"), name


def assert_equal_indexes(a: TraceClusterIndex, b: TraceClusterIndex) -> None:
    """Bit-identical leaf-level state, and the same lattice per epoch:
    every hourly epoch's view has identical cluster keys (grouped by
    mask), session counts and problem counts on both indexes."""
    assert_equal_tables(a.table, b.table)
    assert np.array_equal(a.codec.widths, b.codec.widths)
    assert np.array_equal(a.codec.offsets, b.codec.offsets)
    assert np.array_equal(a.leaf_keys, b.leaf_keys)
    assert np.array_equal(a.row_to_leaf, b.row_to_leaf)
    assert a.row_to_leaf.dtype == b.row_to_leaf.dtype
    if not len(a.table):
        return
    _, per_epoch = split_into_epochs(
        a.table, EpochGrid.covering(a.table, epoch_seconds=3600.0)
    )
    for epoch, rows in enumerate(per_epoch):
        agg_a = a.epoch_view(rows, epoch).aggregate(JOIN_FAILURE)
        agg_b = b.epoch_view(rows, epoch).aggregate(JOIN_FAILURE)
        assert np.array_equal(agg_a.lattice.starts, agg_b.lattice.starts), epoch
        assert np.array_equal(agg_a.lattice.keys, agg_b.lattice.keys), epoch
        assert np.array_equal(agg_a.sessions, agg_b.sessions), epoch
        assert np.array_equal(agg_a.problems, agg_b.problems), epoch


def chunked_tables(rows, n_chunks: int) -> list[SessionTable]:
    """The trace as ``n_chunks`` contiguous sub-tables (some may be empty)."""
    full = build_table(rows)
    bounds = np.linspace(0, len(full), n_chunks + 1).astype(int)
    return [
        full.select(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
    ]


chunk_counts = st.integers(1, 5)


# ---------------------------------------------------------------------------
# SessionTable.extend == from_sessions over everything
# ---------------------------------------------------------------------------
@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, chunk_counts)
def test_extend_equals_batch_build(rows, n_chunks):
    batch = build_table(rows)
    streamed = SessionTable.empty(batch.schema)
    for chunk in chunked_tables(rows, n_chunks):
        added = streamed.extend(chunk)
        assert added.size == len(chunk)
    assert_equal_tables(batch, streamed)


def test_extend_accepts_session_iterables(tiny_trace):
    sessions = list(tiny_trace.table.rows())[:64]
    batch = SessionTable.from_sessions(sessions)
    streamed = SessionTable.empty(batch.schema)
    streamed.extend(sessions[:20])
    streamed.extend(sessions[20:])
    assert_equal_tables(batch, streamed)


# ---------------------------------------------------------------------------
# The index after AnalysisSubstrate.append == build over the concatenation
# ---------------------------------------------------------------------------
@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, chunk_counts)
def test_index_append_equals_fresh_build(rows, n_chunks):
    stream = AnalysisSubstrate.build(SessionTable.empty())
    for chunk in chunked_tables(rows, n_chunks):
        stream.append(chunk)
    incremental = stream.index
    batch = TraceClusterIndex.build(build_table(rows))
    assert_equal_indexes(incremental, batch)
    # masks warmed after the appends equal a cold recomputation on the
    # batch index
    thresholds = MetricThresholds()
    incremental.warm_metric_masks([JOIN_FAILURE], thresholds)
    assert np.array_equal(
        incremental.valid_mask(JOIN_FAILURE), batch.valid_mask(JOIN_FAILURE)
    )
    assert np.array_equal(
        incremental.problem_mask(JOIN_FAILURE, thresholds),
        batch.problem_mask(JOIN_FAILURE, thresholds),
    )


def test_index_append_across_width_growth():
    """Appends that push a vocabulary past a power of two change the
    packed key widths; the index built after each append re-keys."""
    stream = AnalysisSubstrate.build(SessionTable.empty())
    tables = []
    from tests.conftest import make_session

    for wave in range(6):
        # 4 new ASNs per wave: vocab sizes 4, 8, 12, ... cross the
        # 2-bit, 3-bit and 4-bit width boundaries along the way.
        chunk = SessionTable.from_sessions(
            make_session(
                start_time=wave * 3600.0 + 60.0 * i,
                asn=f"AS{wave}-{i % 4}",
                join_failed=(i + wave) % 3 == 0,
            )
            for i in range(12)
        )
        tables.append(chunk)
        stream.append(chunk)
        assert np.array_equal(
            stream.codec.widths, KeyCodec.from_table(stream.table).widths
        )
    batch = TraceClusterIndex.build(SessionTable.concat(tables))
    assert_equal_indexes(stream.index, batch)


def test_index_append_label_only_chunk_rekeys(tmp_path):
    """A row-less chunk still merges its labels (a ``select`` shares its
    parent's vocabularies); when they widen a field the next index
    re-keys, so its codec always matches the vocabularies — which is
    what a snapshot load checks."""
    wide = build_table([(0, a, a % 2, a % 3 == 0) for a in range(6)])
    narrow = wide.select(np.arange(2))
    assert narrow.vocabs == wide.vocabs
    substrate = AnalysisSubstrate.build(
        build_table([(0, a, 0, False) for a in range(2)])
    )
    widths = substrate.codec.widths.tolist()
    substrate.append(narrow.select(np.arange(0)))
    index = substrate.index
    assert index.codec.widths.tolist() != widths
    assert np.array_equal(
        index.codec.widths, KeyCodec.from_table(index.table).widths
    )
    loaded = load_substrate(save_substrate(substrate, tmp_path / "s.sub"))
    assert_equal_indexes(index, loaded.index)
    assert_equal_indexes(index, TraceClusterIndex.build(index.table))


def test_index_append_single_sessions():
    """Degenerate chunking: one session per append."""
    rows = [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(2)
            for a in range(15)]
    full = build_table(rows)
    stream = AnalysisSubstrate.build(SessionTable.empty())
    for i in range(len(full)):
        stream.append(full.select(np.array([i])))
    assert_equal_indexes(stream.index, TraceClusterIndex.build(full))


@pytest.mark.parametrize("n_chunks", [1, 3, 7])
def test_streamed_index_memory_equals_fresh_build(n_chunks):
    """Appends keep no state a fresh build lacks: the footprint of an
    index streamed over N chunks equals a build over the same table."""
    rows = [(e, a % 5, a % 3, (a + e) % 4 == 0) for e in range(3)
            for a in range(60)]
    stream = AnalysisSubstrate.build(SessionTable.empty())
    for chunk in chunked_tables(rows, n_chunks):
        stream.append(chunk)
    incremental = stream.index
    incremental.warm_metric_masks(ALL_METRICS, MetricThresholds())
    batch = TraceClusterIndex.build(build_table(rows))
    batch.warm_metric_masks(ALL_METRICS, MetricThresholds())
    assert incremental.memory_bytes() == batch.memory_bytes()
    assert incremental.memory_bytes() == (
        batch.leaf_keys.nbytes
        + batch.row_to_leaf.nbytes
        + 2 * len(ALL_METRICS) * len(batch.table)  # valid + problem masks
    )


def test_streaming_substrate_memory_counts_everything(tiny_trace):
    """Table columns, index and epoch splits: the streamed substrate
    reports exactly what a batch substrate holding the same state does."""
    table, grid = tiny_trace.table, tiny_trace.grid
    stream = AnalysisSubstrate.build(SessionTable.empty(table.schema))
    epoch_of = np.floor(table.start_time / grid.epoch_seconds).astype(np.int64)
    for epoch in np.unique(epoch_of):
        stream.append(table.select(np.flatnonzero(epoch_of == epoch)))
    stream.index.warm_metric_masks([JOIN_FAILURE], MetricThresholds())
    stream.epoch_rows(grid)
    batch = AnalysisSubstrate.build(table)
    batch.index.warm_metric_masks([JOIN_FAILURE], MetricThresholds())
    batch.epoch_rows(grid)
    assert stream.memory_bytes() == batch.memory_bytes()


def test_append_drops_cached_splits():
    """Splits are derived per grid from the table: an append after a
    split was cached re-derives it over the grown table."""
    rows = [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3)
            for a in range(20)]
    full = build_table(rows)
    grid = EpochGrid.covering(full, epoch_seconds=3600.0)
    stream = AnalysisSubstrate.build(full.select(np.arange(30)))
    before = stream.epoch_rows(grid)
    stream.append(full.select(np.arange(30, len(full))))
    after = stream.epoch_rows(grid)
    assert after is not before
    _, expected = split_into_epochs(full, grid)
    assert [r.tolist() for r in after] == [r.tolist() for r in expected]


def test_index_append_empty_chunk_is_noop():
    table = build_table([(0, 0, 0, True)] * 8)
    substrate = AnalysisSubstrate.build(table)
    leaf_keys = substrate.index.leaf_keys.copy()
    rows = substrate.append(SessionTable.empty(table.schema))
    assert rows.size == 0
    assert np.array_equal(substrate.index.leaf_keys, leaf_keys)
    assert len(substrate.table) == 8


def test_stream_builds_the_index_once(tiny_trace):
    """Appends and ``len`` build no index; the analysis after them
    builds exactly one, over every appended row."""
    table = tiny_trace.table
    registry = MetricsRegistry()
    with use_metrics(registry):
        stream = AnalysisSubstrate.build(SessionTable.empty(table.schema))
        builds = registry.get("index.builds")
        epoch_of = np.floor(
            table.start_time / tiny_trace.grid.epoch_seconds
        ).astype(np.int64)
        for epoch in np.unique(epoch_of):
            stream.append(table.select(np.flatnonzero(epoch_of == epoch)))
        assert len(stream) == len(table)
        assert registry.get("index.builds") == builds
        analysis = stream.analyze(config=SMALL_CONFIG)
        assert registry.get("index.builds") == builds + 1
    assert_equal_analyses(
        analyze_trace(stream.table, config=SMALL_CONFIG), analysis
    )


def test_append_after_an_analysis_reindexes_every_row():
    rows = [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3)
            for a in range(20)]
    full = build_table(rows)
    stream = AnalysisSubstrate.build(full.select(np.arange(30)))
    stream.analyze(config=SMALL_CONFIG)
    index = stream.index
    stream.append(full.select(np.arange(30, len(full))))
    assert stream.index is not index
    assert stream.index.row_to_leaf.size == len(full)
    assert_equal_analyses(
        AnalysisSubstrate.build(full).analyze(config=SMALL_CONFIG),
        stream.analyze(config=SMALL_CONFIG),
    )


# ---------------------------------------------------------------------------
# AnalysisSubstrate.append chunks == batch analyze_trace
# ---------------------------------------------------------------------------
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, chunk_counts)
def test_streamed_analysis_equals_batch(rows, n_chunks):
    chunks = chunked_tables(rows, n_chunks)
    stream = AnalysisSubstrate.build(SessionTable.empty())
    for chunk in chunks:
        stream.append(chunk)
    batch_table = build_table(rows)
    assert len(stream.table) == len(batch_table)
    assert_equal_analyses(
        analyze_trace(batch_table, config=SMALL_CONFIG),
        stream.analyze(config=SMALL_CONFIG),
    )


def test_streamed_epoch_chunks_all_metrics(tiny_trace):
    """Epoch-sized chunks of a generated trace, all four metrics."""
    table, grid = tiny_trace.table, tiny_trace.grid
    stream = AnalysisSubstrate.build(SessionTable.empty(table.schema))
    epoch_of = np.floor(table.start_time / grid.epoch_seconds).astype(np.int64)
    for epoch in np.unique(epoch_of):
        stream.append(table.select(np.flatnonzero(epoch_of == epoch)))
    assert EpochGrid.covering(
        stream.table, epoch_seconds=grid.epoch_seconds
    ) == grid
    assert_equal_analyses(
        analyze_trace(table, config=ALL_METRICS_CONFIG, grid=grid),
        stream.analyze(config=ALL_METRICS_CONFIG),
    )


def test_streamed_sweep_equals_batch_sweep():
    import dataclasses

    rows = [(e, a % 3, a % 2, (a * 3 + e) % 4 == 0) for e in range(3)
            for a in range(40)]
    configs = [
        SMALL_CONFIG,
        dataclasses.replace(
            SMALL_CONFIG, thresholds=MetricThresholds().scaled(0.5)
        ),
    ]
    stream = AnalysisSubstrate.build(SessionTable.empty())
    for chunk in chunked_tables(rows, 3):
        stream.append(chunk)
    for config, got in zip(configs, stream.sweep(configs)):
        assert_equal_analyses(
            analyze_trace(build_table(rows), config=config), got
        )


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
@pytest.fixture()
def small_substrate():
    rows = [(e, a % 3, a % 2, (a + 2 * e) % 4 == 0) for e in range(3)
            for a in range(50)]
    substrate = AnalysisSubstrate.build(build_table(rows))
    substrate.index.warm_metric_masks(ALL_METRICS, MetricThresholds())
    return substrate


def test_snapshot_round_trip(tmp_path, small_substrate):
    """A snapshot holds the table alone: loading builds no index, and
    the first read of ``loaded.index`` is an ordinary build."""
    path = save_substrate(small_substrate, tmp_path / "trace.sub")
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        loaded = load_substrate(path)
    assert metrics.get("index.builds") == 0
    assert_equal_tables(small_substrate.table, loaded.table)
    assert_equal_indexes(loaded.index, TraceClusterIndex.build(loaded.table))
    assert_equal_analyses(
        small_substrate.analyze(config=SMALL_CONFIG),
        loaded.analyze(config=SMALL_CONFIG),
    )


def test_snapshot_is_appendable(tmp_path, small_substrate):
    """A loaded snapshot's read-only mmap views must not block growth."""
    path = save_substrate(small_substrate, tmp_path / "trace.sub")
    loaded = load_substrate(path)
    extra = build_table([(3, a % 3, a % 2, a % 5 == 0) for a in range(30)])
    loaded.append(extra)
    combined = SessionTable.empty()
    combined.extend(small_substrate.table)
    combined.extend(extra)
    assert_equal_indexes(loaded.index, TraceClusterIndex.build(combined))


def test_snapshot_rejects_bad_magic(tmp_path, small_substrate):
    path = save_substrate(small_substrate, tmp_path / "trace.sub")
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTASNAP"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="bad magic"):
        load_substrate(path)


def test_snapshot_rejects_truncation(tmp_path, small_substrate):
    path = save_substrate(small_substrate, tmp_path / "trace.sub")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_substrate(path)
    path.write_bytes(data[:10])
    with pytest.raises(ValueError, match="not a substrate snapshot"):
        load_substrate(path)


def test_snapshot_rejects_version_mismatch(tmp_path, small_substrate):
    """The magic is the version: a file of the previous format is
    refused, never migrated."""
    path = save_substrate(small_substrate, tmp_path / "trace.sub")
    data = path.read_bytes()
    assert data.startswith(MAGIC)
    path.write_bytes(b"RPROSUB1" + data[8:])
    with pytest.raises(ValueError, match="rebuilt, not migrated"):
        load_substrate(path)


def test_snapshot_rejects_corrupt_manifest(tmp_path, small_substrate):
    path = save_substrate(small_substrate, tmp_path / "trace.sub")
    data = bytearray(path.read_bytes())
    data[20] = 0xFF  # stomp a byte inside the JSON manifest
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="corrupted|truncated"):
        load_substrate(path)


def test_snapshot_magic_is_stable():
    assert MAGIC == b"RPROSUB2"
