"""Shard-equivalence properties of the out-of-core analysis engine.

The shard store partitions a trace into epoch-range shards that are
analyzed independently and merged exactly; the merged
:class:`TraceAnalysis` must be bit-identical to the monolithic
``analyze_trace`` result — identical per-epoch problem/critical cluster
dicts, identical epoch series, identical cluster timelines, and streaks
that coalesce across shard boundaries. These tests pin that invariant
across shard counts 1–7, ragged last shards, streaming (chunked,
shuffled) ingestion, parallel map workers, and multi-config sweeps,
plus the merge's streak algebra and its range check on synthetic
per-shard results.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregation import ClusterStats
from repro.core.attributes import DEFAULT_SCHEMA
from repro.core.clusters import ClusterKey
from repro.core.epoching import EpochGrid
from repro.core.metrics import JOIN_FAILURE
from repro.core.pipeline import (
    AnalysisConfig,
    EpochAnalysis,
    MetricAnalysis,
    TraceAnalysis,
    analyze_trace,
)
from repro.core.shards import (
    ShardInfo,
    ShardStore,
    ShardStoreBuilder,
    analyze_shards,
    build_shard_store,
    merge_shard_analyses,
    shard_boundaries,
    split_sha256,
    sweep_shards,
)
from repro.core.streaks import ClusterTimeline, Streak
from tests.conftest import make_session
from tests.property.test_parallel_equivalence import (
    ALL_METRICS_CONFIG,
    SMALL_CONFIG,
    assert_equal_analyses,
    build_table,
    session_rows,
)


def assert_equal_timelines(a, b):
    """Problem and critical timelines (and their streaks) match exactly,
    keys in the same order."""
    for name in a.metric_names:
        for kind in ("problem_timelines", "critical_timelines"):
            ta = getattr(a[name], kind)()
            tb = getattr(b[name], kind)()
            assert list(ta) == list(tb)
            for key, tl in ta.items():
                assert tl.n_epochs_total == tb[key].n_epochs_total
                assert np.array_equal(tl.epochs, tb[key].epochs)
                assert tl.streaks() == tb[key].streaks()


def assert_sharded_equals_monolithic(sharded, monolithic):
    assert_equal_analyses(monolithic, sharded)
    assert_equal_timelines(monolithic, sharded)
    for name in monolithic.metric_names:
        assert np.array_equal(
            monolithic[name].problem_ratio_series,
            sharded[name].problem_ratio_series,
        )


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, st.integers(1, 7))
def test_sharded_equals_monolithic_on_random_traces(rows, n_shards):
    table = build_table(rows)
    monolithic = analyze_trace(table, config=SMALL_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_shard_store(table, tmp, n_shards=n_shards)
        sharded = analyze_shards(store, config=SMALL_CONFIG)
    assert_sharded_equals_monolithic(sharded, monolithic)


@pytest.mark.parametrize("epochs_per_shard", [5, 7, 24, 100])
def test_ragged_last_shard_on_generated_trace(
    tmp_path, tiny_trace, epochs_per_shard
):
    """Fixed-width shards with a ragged tail over all four metrics."""
    monolithic = analyze_trace(tiny_trace.table, grid=tiny_trace.grid)
    store = build_shard_store(
        tiny_trace.table,
        tmp_path / "s",
        epochs_per_shard=epochs_per_shard,
        grid=tiny_trace.grid,
    )
    widths = {s.n_epochs for s in store.shards}
    if epochs_per_shard < tiny_trace.grid.n_epochs:
        assert len(widths) > 1  # the tail really is ragged
    sharded = analyze_shards(store)
    assert_sharded_equals_monolithic(sharded, monolithic)
    # planted structure exists, so equality is not vacuous
    assert any(
        e.n_critical_clusters
        for ma in sharded.metrics.values()
        for e in ma.epochs
    )


def test_boundary_spanning_streak_coalesces(tmp_path):
    """A problem persisting across a shard boundary merges into ONE
    streak — the regression the merge algebra exists to prevent."""
    rows = []
    for epoch in range(6):
        rows += [(epoch, 0, 0, True)] * 10  # AS0 always failing
        rows += [(epoch, a, 1, False) for a in (1, 2) for _ in range(10)]
    table = build_table(rows)
    monolithic = analyze_trace(table, config=SMALL_CONFIG)
    store = build_shard_store(table, tmp_path / "s", n_shards=2)
    assert [(s.epoch_lo, s.epoch_hi) for s in store.shards] == [(0, 3), (3, 6)]
    sharded = analyze_shards(store, config=SMALL_CONFIG)
    assert_sharded_equals_monolithic(sharded, monolithic)
    timelines = sharded["join_failure"].problem_timelines()
    spanning = [
        tl for tl in timelines.values() if tl.streaks() == [Streak(0, 6)]
    ]
    assert spanning, "expected a single streak spanning the shard boundary"


def test_streaming_builder_equals_monolithic(tmp_path):
    """Out-of-order chunked ingestion builds an equivalent store."""
    rows = [
        (e, (a * 3 + e) % 4, a % 2, (a + 2 * e) % 5 == 0)
        for e in range(3)
        for a in range(40)
    ]
    table = build_table(rows)
    monolithic = analyze_trace(table, config=ALL_METRICS_CONFIG)

    builder = ShardStoreBuilder(tmp_path / "s", epochs_per_shard=2)
    order = np.random.RandomState(7).permutation(len(table))
    for i in range(0, len(order), 17):  # ragged, shuffled chunks
        builder.append(table.select(np.sort(order[i:i + 17])))
    store = builder.finalize()
    sharded = analyze_shards(store, config=ALL_METRICS_CONFIG)
    assert_sharded_equals_monolithic(sharded, monolithic)


#: Epoch lengths that are not exact in binary, each with a base that
#: puts epoch edges where rounding bites, plus one exact length.
INEXACT_GRIDS = [
    (123.456, math.floor((1e6 + 0.1) / 123.456) * 123.456),
    (0.1, 0.0),
    (0.3, math.floor(354.2 / 0.3) * 0.3),
    (7.7, 0.0),
    (3600.0, 0.0),
]


@pytest.mark.parametrize("builder", ["batch", "stream"])
@pytest.mark.parametrize("epoch_seconds,base", INEXACT_GRIDS)
def test_stores_keep_every_session_at_inexact_epoch_lengths(
    tmp_path, tiny_trace, builder, epoch_seconds, base
):
    """Every session re-timed onto an epoch edge, ``base + epoch * s``:
    both store builders give the monolithic analysis and drop no
    session. Shards that re-derived epochs from their own shifted
    origin lost sessions here (1,724 of 16,707 at s = 123.456 on
    ``tiny`` seed 42), and the streaming builder's last block got an
    empty range at s = 0.3."""
    table = tiny_trace.table.select(np.arange(len(tiny_trace.table)))
    epochs = tiny_trace.grid.epoch_of(table.start_time)
    table.start_time = base + epochs * epoch_seconds
    config = AnalysisConfig(metrics=(JOIN_FAILURE,), epoch_seconds=epoch_seconds)
    monolithic = analyze_trace(table, config=config)
    assert sum(e.total_sessions for e in monolithic["join_failure"].epochs) == (
        len(table)
    )
    if builder == "batch":
        store = build_shard_store(
            table, tmp_path / "s", epochs_per_shard=3, epoch_seconds=epoch_seconds
        )
    else:
        stream = ShardStoreBuilder(
            tmp_path / "s", epoch_seconds=epoch_seconds, epochs_per_shard=3
        )
        order = np.random.RandomState(3).permutation(len(table))
        for i in range(0, len(order), 4001):
            stream.append(table.select(np.sort(order[i : i + 4001])))
        store = stream.finalize()
    assert store.grid == monolithic.grid
    assert store.total_sessions == len(table)
    assert_sharded_equals_monolithic(analyze_shards(store, config=config), monolithic)


def test_parallel_map_equals_serial(tmp_path):
    rows = [
        (e, a % 3, a % 2, (a * 7 + e) % 5 == 0)
        for e in range(4)
        for a in range(35)
    ]
    table = build_table(rows)
    store = build_shard_store(table, tmp_path / "s", n_shards=4)
    serial = analyze_shards(store, config=SMALL_CONFIG, workers=0)
    parallel = analyze_shards(store, config=SMALL_CONFIG, workers=2)
    assert_sharded_equals_monolithic(parallel, serial)
    assert_sharded_equals_monolithic(
        serial, analyze_trace(table, config=SMALL_CONFIG)
    )


def test_sweep_shards_equals_per_config_monolithic(tmp_path):
    import dataclasses

    from repro.core.problems import ProblemClusterConfig

    rows = [
        (e, a % 4, a % 2, (a + e) % 4 == 0) for e in range(3) for a in range(50)
    ]
    table = build_table(rows)
    configs = [
        SMALL_CONFIG,
        dataclasses.replace(
            SMALL_CONFIG,
            problem_config=ProblemClusterConfig(
                min_sessions=5, min_problems=2, significance_sigmas=0.0,
                ratio_multiplier=1.5,
            ),
        ),
    ]
    store = build_shard_store(table, tmp_path / "s", epochs_per_shard=2)
    sharded = sweep_shards(store, configs)
    for config, analysis in zip(configs, sharded):
        assert_sharded_equals_monolithic(
            analysis, analyze_trace(table, config=config)
        )


def test_empty_trace_store(tmp_path):
    from repro.core.sessions import SessionTable

    table = SessionTable.empty()
    store = build_shard_store(table, tmp_path / "s", n_shards=3)
    assert store.shards == ()
    sharded = analyze_shards(store, config=SMALL_CONFIG)
    assert_equal_analyses(analyze_trace(table, config=SMALL_CONFIG), sharded)


def test_single_session_single_shard(tmp_path):
    table = build_table([(0, 0, 0, True)])
    store = build_shard_store(table, tmp_path / "s", epochs_per_shard=10)
    assert len(store.shards) == 1
    assert_sharded_equals_monolithic(
        analyze_shards(store, config=SMALL_CONFIG),
        analyze_trace(table, config=SMALL_CONFIG),
    )


KEY = ClusterKey.from_mapping({"cdn": "c"})
ONE_METRIC = AnalysisConfig(metrics=(JOIN_FAILURE,))


def in_memory_store(bounds) -> ShardStore:
    """A store over the abutting ``(lo, hi)`` epoch ranges; no files."""
    return ShardStore(
        path="in-memory",
        grid=EpochGrid(n_epochs=bounds[-1][1]),
        schema=DEFAULT_SCHEMA,
        shards=[
            ShardInfo(
                file=f"{lo}",
                epoch_lo=lo,
                epoch_hi=hi,
                sessions=0,
                split_sha256=split_sha256(np.empty(0, dtype=np.int64)),
            )
            for lo, hi in bounds
        ],
        total_sessions=0,
    )


def part_analysis(grid, local_epochs, flagged) -> TraceAnalysis:
    """A synthetic shard result over ``local_epochs`` that flags ``KEY``
    as a problem cluster in the ``flagged`` ones."""
    epochs = [
        EpochAnalysis(
            epoch=e,
            total_sessions=10,
            total_problems=5,
            min_sessions=1,
            problem_cluster_coverage=1.0 if e in flagged else 0.0,
            problem_clusters={KEY: ClusterStats(10, 5)} if e in flagged else {},
            critical_clusters={},
        )
        for e in local_epochs
    ]
    return TraceAnalysis(
        grid=grid,
        config=ONE_METRIC,
        metrics={JOIN_FAILURE.name: MetricAnalysis(JOIN_FAILURE, grid, epochs)},
    )


def merged_timelines(bounds, epochs):
    """Problem timelines of the merge of one synthetic part per range of
    ``bounds``, together flagging ``KEY`` at the global ``epochs``."""
    store = in_memory_store(bounds)
    parts = [
        part_analysis(
            store.shard_grid(i),
            range(hi - lo),
            {e - lo for e in epochs if lo <= e < hi},
        )
        for i, (lo, hi) in enumerate(bounds)
    ]
    merged = merge_shard_analyses(store, ONE_METRIC, parts)
    return merged[JOIN_FAILURE.name].problem_timelines()


class TestStreakAlgebra:
    """`merge_shard_analyses` over an in-memory store and synthetic
    per-shard results, against the monolithic `ClusterTimeline.streaks()`
    ground truth."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(0, 29), min_size=1),
        st.lists(st.integers(1, 29), min_size=1, max_size=4, unique=True),
    )
    def test_coalesce_split_streaks_equals_monolithic(self, epochs, cuts):
        n_total = 30
        whole = ClusterTimeline("k", np.array(sorted(epochs)), n_total)
        edges = [0] + sorted(cuts) + [n_total]
        merged = merged_timelines(list(zip(edges[:-1], edges[1:])), epochs)
        assert merged[KEY].streaks() == whole.streaks()

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(0, 29), min_size=1),
        st.integers(1, 29),
    )
    def test_merge_timelines_equals_monolithic(self, epochs, cut):
        n_total = 30
        whole = ClusterTimeline("k", np.array(sorted(epochs)), n_total)
        merged = merged_timelines([(0, cut), (cut, n_total)], epochs)
        assert set(merged) == {KEY}
        assert merged[KEY].n_epochs_total == n_total
        assert np.array_equal(merged[KEY].epochs, whole.epochs)
        assert merged[KEY].streaks() == whole.streaks()

    def test_coalesce_rejects_overlap(self):
        # A part that runs past its shard's range, or is numbered from
        # the wrong epoch, would land in a neighbour's epoch slots.
        store = in_memory_store([(0, 2), (2, 4)])
        fits = part_analysis(store.shard_grid(1), range(2), {0, 1})
        for local in (range(3), range(1), range(1, 3)):
            wrong = part_analysis(store.shard_grid(0), local, {0})
            with pytest.raises(ValueError, match="expected exactly its 2"):
                merge_shard_analyses(store, ONE_METRIC, [wrong, fits])

    def test_shift_streaks(self):
        # A shard's local streaks land at its epoch offset.
        merged = merged_timelines([(0, 10), (10, 15)], {10, 11, 14})
        assert merged[KEY].streaks() == [Streak(10, 2), Streak(14, 1)]

    def test_abutting_runs_join(self):
        merged = merged_timelines([(0, 3), (3, 5)], {0, 1, 2, 3, 4})
        assert merged[KEY].streaks() == [Streak(0, 5)]


class TestShardBoundaries:
    def test_fixed_width_ragged_tail(self):
        assert shard_boundaries(10, epochs_per_shard=4) == [
            (0, 4), (4, 8), (8, 10),
        ]

    def test_n_shards_clamped_and_covering(self):
        for n_epochs in (1, 5, 24, 100):
            for k in (1, 2, 3, 7, 200):
                bounds = shard_boundaries(n_epochs, n_shards=k)
                assert bounds[0][0] == 0 and bounds[-1][1] == n_epochs
                assert all(lo < hi for lo, hi in bounds)
                assert all(
                    a[1] == b[0] for a, b in zip(bounds, bounds[1:])
                )
                assert len(bounds) == min(k, n_epochs)

    def test_empty_grid(self):
        assert shard_boundaries(0, n_shards=3) == []

    def test_exactly_one_of(self):
        with pytest.raises(ValueError):
            shard_boundaries(10)
        with pytest.raises(ValueError):
            shard_boundaries(10, epochs_per_shard=2, n_shards=2)
