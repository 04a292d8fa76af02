"""Equivalence properties of the analysis pipeline.

``analyze_trace`` must return indistinguishable results serially and
over a process pool (``workers``), and both must equal a naive
reference (:func:`reference_analysis`): per (epoch, metric), the direct
``aggregate_epoch`` (no index) -> ``find_problem_clusters`` ->
``find_critical_clusters``. Identical means the same per-epoch
problem-cluster dicts (same :class:`ClusterKey` -> same stats) and the
same critical-cluster attribution, for every metric. These tests pin
that on generated traces and on the edge cases the executor
special-cases (empty epochs, single epoch, empty trace).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.critical import find_critical_clusters
from repro.core.epoching import EpochGrid, split_into_epochs
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE
from repro.core.pipeline import (
    AnalysisConfig,
    EpochAnalysis,
    PipelineTimings,
    TraceAnalysis,
    analyze_trace,
    assemble_trace_analysis,
    resolve_worker_count,
)
from repro.core.problems import ProblemClusterConfig, find_problem_clusters
from repro.core.sessions import SessionTable
from tests.conftest import make_session
from tests.core.direct_aggregate import aggregate_epoch

#: Permissive significance knobs so tiny random traces produce clusters.
SMALL_CONFIG = AnalysisConfig(
    metrics=(JOIN_FAILURE,),
    problem_config=ProblemClusterConfig(
        min_sessions=5, min_problems=2, significance_sigmas=0.0
    ),
)

#: Same knobs over all four paper metrics (equivalence to the reference
#: must hold for every metric's validity pattern, not just join failure).
ALL_METRICS_CONFIG = dataclasses.replace(SMALL_CONFIG, metrics=ALL_METRICS)


def reference_epoch(table, rows, metric, epoch, config) -> EpochAnalysis:
    """One (epoch, metric) unit the direct way: pack the epoch's valid
    rows, detect problem clusters, run the critical-cluster search."""
    agg = aggregate_epoch(
        table, rows, metric, epoch=epoch, thresholds=config.thresholds
    )
    problems = find_problem_clusters(agg, config.problem_config)
    critical = find_critical_clusters(problems)
    return EpochAnalysis(
        epoch=epoch,
        total_sessions=agg.total_sessions,
        total_problems=agg.total_problems,
        min_sessions=problems.min_sessions,
        problem_cluster_coverage=problems.coverage,
        problem_clusters={
            agg.codec.decode(mask, packed): stats
            for mask, packed, stats in problems.iter_clusters()
        },
        critical_clusters=critical.decoded(),
    )


def reference_analysis(
    table: SessionTable, config: AnalysisConfig, grid: EpochGrid | None = None
) -> TraceAnalysis:
    """The test oracle: every (epoch, metric) unit through
    :func:`reference_epoch`, with no index and no pool."""
    if grid is None:
        grid = EpochGrid.covering(table, epoch_seconds=config.epoch_seconds)
    grid, per_epoch_rows = split_into_epochs(table, grid)
    per_epoch = [
        [reference_epoch(table, rows, m, epoch, config) for m in config.metrics]
        for epoch, rows in enumerate(per_epoch_rows)
    ]
    return assemble_trace_analysis(grid, config, per_epoch, PipelineTimings())


def assert_equal_analyses(a, b):
    """Exact structural equality of two TraceAnalysis results."""
    assert a.metric_names == b.metric_names
    assert a.grid == b.grid
    for name in a.metric_names:
        epochs_a = a[name].epochs
        epochs_b = b[name].epochs
        assert len(epochs_a) == len(epochs_b)
        for ea, eb in zip(epochs_a, epochs_b):
            assert ea.epoch == eb.epoch
            assert ea.problem_clusters == eb.problem_clusters
            assert ea.critical_clusters == eb.critical_clusters
            assert ea == eb  # all remaining counters/coverages


# Random small traces over three epochs; attribute values collide enough
# for clusters to form, and epochs may be empty.
session_rows = st.lists(
    st.tuples(
        st.integers(0, 2),  # epoch
        st.integers(0, 2),  # asn
        st.integers(0, 1),  # cdn
        st.booleans(),  # join failed
    ),
    min_size=1,
    max_size=80,
)


def build_table(rows) -> SessionTable:
    return SessionTable.from_sessions(
        make_session(
            start_time=epoch * 3600.0 + 60.0 * (i % 50),
            asn=f"AS{a}",
            cdn=f"c{c}",
            join_failed=failed,
        )
        for i, (epoch, a, c, failed) in enumerate(rows)
    )


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows)
def test_parallel_equals_serial_on_random_traces(rows):
    table = build_table(rows)
    serial = analyze_trace(table, config=SMALL_CONFIG, workers=0)
    parallel = analyze_trace(table, config=SMALL_CONFIG, workers=2)
    assert_equal_analyses(serial, parallel)


def test_parallel_equals_serial_on_generated_trace(tiny_trace, tiny_analysis):
    """Full four-metric equality on a generated trace with planted events."""
    parallel = analyze_trace(
        tiny_trace.table, grid=tiny_trace.grid, workers=2
    )
    assert_equal_analyses(tiny_analysis, parallel)
    # the planted structure actually exists, so equality is not vacuous
    assert any(
        e.n_critical_clusters
        for ma in parallel.metrics.values()
        for e in ma.epochs
    )


def test_empty_middle_epoch():
    rows = [(0, 0, 0, True)] * 20 + [(2, 1, 1, False)] * 20
    table = build_table(rows)
    serial = analyze_trace(table, config=SMALL_CONFIG, workers=0)
    parallel = analyze_trace(table, config=SMALL_CONFIG, workers=2)
    assert serial.grid.n_epochs == 3
    assert serial["join_failure"].epochs[1].total_sessions == 0
    assert_equal_analyses(serial, parallel)


def test_single_epoch_trace():
    table = build_table([(0, a % 3, a % 2, a % 4 == 0) for a in range(40)])
    serial = analyze_trace(table, config=SMALL_CONFIG, workers=0)
    parallel = analyze_trace(table, config=SMALL_CONFIG, workers=4)
    assert serial.grid.n_epochs == 1
    assert_equal_analyses(serial, parallel)


def test_empty_trace():
    table = SessionTable.empty()
    serial = analyze_trace(table, config=SMALL_CONFIG, workers=0)
    parallel = analyze_trace(table, config=SMALL_CONFIG, workers=2)
    assert serial.grid.n_epochs == 0
    assert_equal_analyses(serial, parallel)


class TestIndexedEngineEquivalence:
    """The production engine (the trace-global index, serial or over a
    pool) must be output-identical to the naive reference."""

    @staticmethod
    def assert_matches_reference(table, config, grid=None):
        expected = reference_analysis(table, config, grid=grid)
        for workers in (0, 2):
            got = analyze_trace(table, config=config, grid=grid, workers=workers)
            assert_equal_analyses(expected, got)
        return expected

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(session_rows)
    def test_indexed_equals_oracle_on_random_traces(self, rows):
        self.assert_matches_reference(build_table(rows), SMALL_CONFIG)

    def test_indexed_equals_oracle_on_generated_trace(self, tiny_trace, tiny_analysis):
        """Full four-metric equality on a trace with planted events."""
        expected = reference_analysis(
            tiny_trace.table, AnalysisConfig(), grid=tiny_trace.grid
        )
        assert_equal_analyses(expected, tiny_analysis)
        assert any(
            e.n_critical_clusters
            for ma in expected.metrics.values()
            for e in ma.epochs
        )

    def test_all_metrics_validity_patterns(self):
        """Every metric's valid-session subset reduces identically —
        the index keeps zero-valid leaves the direct path drops, which
        must never show in the output."""
        rows = [
            (e, a % 3, a % 2, (a + e) % 4 == 0)
            for e in range(3)
            for a in range(40)
        ]
        expected = self.assert_matches_reference(
            build_table(rows), ALL_METRICS_CONFIG
        )
        assert expected.metric_names == [m.name for m in ALL_METRICS]

    def test_empty_middle_epoch(self):
        rows = [(0, 0, 0, True)] * 20 + [(2, 1, 1, False)] * 20
        expected = self.assert_matches_reference(build_table(rows), SMALL_CONFIG)
        assert expected["join_failure"].epochs[1].total_sessions == 0

    def test_single_epoch_trace(self):
        table = build_table([(0, a % 3, a % 2, a % 4 == 0) for a in range(40)])
        expected = self.assert_matches_reference(table, SMALL_CONFIG)
        assert expected.grid.n_epochs == 1

    def test_empty_trace(self):
        expected = self.assert_matches_reference(SessionTable.empty(), SMALL_CONFIG)
        assert expected.grid.n_epochs == 0

    def test_indexed_parallel_equals_oracle(self):
        """All four metrics over a process pool."""
        rows = [
            (e, a % 3, a % 2, (a * 7 + e) % 5 == 0)
            for e in range(3)
            for a in range(35)
        ]
        table = build_table(rows)
        assert_equal_analyses(
            reference_analysis(table, ALL_METRICS_CONFIG),
            analyze_trace(table, config=ALL_METRICS_CONFIG, workers=2),
        )


class TestResolveWorkerCount:
    def test_serial_values(self):
        assert resolve_worker_count(None) == 0
        assert resolve_worker_count(0) == 0
        assert resolve_worker_count(1) == 1

    def test_auto_uses_cpus(self):
        import os

        assert resolve_worker_count("auto") == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_worker_count(7) == 7

    @pytest.mark.parametrize("bad", [-1, True, False, "many", 2.5])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_worker_count(bad)

    def test_config_validates_workers(self):
        """``workers`` is a call argument, validated where it is used;
        the config no longer carries it."""
        with pytest.raises(TypeError):
            AnalysisConfig(workers=2)
        with pytest.raises(ValueError):
            analyze_trace(SessionTable.empty(), workers=-3)
