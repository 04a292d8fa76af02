"""Sweep-equivalence properties of the analysis substrate.

``analyze_sweep`` must be a pure amortization: for any list of configs
its per-config results are bit-identical to independent
``analyze_trace`` calls — same problem-cluster dicts, same critical
attribution, same grid — regardless of how configs share or differ in
thresholds, problem knobs, epoch lengths, metrics or worker counts.
These tests pin that invariant on randomized config lists
and on the executor edge cases (empty trace, single epoch, duplicate
configs).
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.metrics import ALL_METRICS, MetricThresholds
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.problems import ProblemClusterConfig
from repro.core.sessions import SessionTable
from repro.core.substrate import AnalysisSubstrate, analyze_sweep
from tests.property.test_parallel_equivalence import (
    SMALL_CONFIG,
    assert_equal_analyses,
    build_table,
    session_rows,
)

#: All four metrics with the permissive knobs of SMALL_CONFIG.
ALL_METRICS_SMALL = dataclasses.replace(SMALL_CONFIG, metrics=ALL_METRICS)


def config_variant(
    base: AnalysisConfig,
    threshold_scale: float,
    ratio_multiplier: float,
    epoch_seconds: float,
) -> AnalysisConfig:
    return dataclasses.replace(
        base,
        thresholds=MetricThresholds().scaled(threshold_scale),
        problem_config=ProblemClusterConfig(
            ratio_multiplier=ratio_multiplier,
            min_sessions=5,
            min_problems=2,
            significance_sigmas=0.0,
        ),
        epoch_seconds=epoch_seconds,
    )


# Randomized config lists: every config varies thresholds, the ratio
# multiplier and the epoch length independently, so sweeps mix configs
# that share aggregates with configs that need their own grid.
config_lists = st.lists(
    st.builds(
        config_variant,
        st.just(ALL_METRICS_SMALL),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([1.25, 1.5, 2.0]),
        st.sampled_from([1800.0, 3600.0]),
    ),
    min_size=1,
    max_size=4,
)


def assert_sweep_matches_independent_runs(table: SessionTable, configs):
    sweep = analyze_sweep(table, configs)
    assert len(sweep) == len(configs)
    for config, got in zip(configs, sweep):
        assert_equal_analyses(analyze_trace(table, config=config), got)


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, config_lists)
def test_sweep_equals_independent_runs_on_random_traces(rows, configs):
    assert_sweep_matches_independent_runs(build_table(rows), configs)


def test_sweep_all_four_metrics_on_generated_trace(tiny_trace):
    """Every metric's validity pattern survives aggregate sharing."""
    configs = [
        ALL_METRICS_SMALL,
        dataclasses.replace(
            ALL_METRICS_SMALL, thresholds=MetricThresholds().scaled(0.5)
        ),
        dataclasses.replace(
            ALL_METRICS_SMALL,
            problem_config=ProblemClusterConfig(
                ratio_multiplier=2.0,
                min_sessions=5,
                min_problems=2,
                significance_sigmas=0.0,
            ),
        ),
    ]
    sweep = analyze_sweep(tiny_trace.table, configs, grid=tiny_trace.grid)
    for config, got in zip(configs, sweep):
        ref = analyze_trace(tiny_trace.table, config=config, grid=tiny_trace.grid)
        assert_equal_analyses(ref, got)
    # the planted structure exists, so equality is not vacuous
    assert any(
        e.n_critical_clusters
        for analysis in sweep
        for ma in analysis.metrics.values()
        for e in ma.epochs
    )


def test_empty_trace_sweep():
    table = SessionTable.empty()
    configs = [SMALL_CONFIG, dataclasses.replace(SMALL_CONFIG, epoch_seconds=1800.0)]
    assert_sweep_matches_independent_runs(table, configs)


def test_single_epoch_sweep():
    table = build_table([(0, a % 3, a % 2, a % 4 == 0) for a in range(40)])
    configs = [
        SMALL_CONFIG,
        dataclasses.replace(SMALL_CONFIG, thresholds=MetricThresholds().scaled(2.0)),
    ]
    assert_sweep_matches_independent_runs(table, configs)


def test_duplicate_configs_share_everything():
    table = build_table(
        [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3) for a in range(40)]
    )
    sweep = analyze_sweep(table, [SMALL_CONFIG, SMALL_CONFIG, SMALL_CONFIG])
    ref = analyze_trace(table, config=SMALL_CONFIG)
    for got in sweep:
        assert_equal_analyses(ref, got)


def test_empty_config_list():
    assert analyze_sweep(build_table([(0, 0, 0, True)]), []) == []


def test_sweep_timings_attributed_per_config():
    """Shared costs divide across configs; per-config phases measured."""
    table = build_table(
        [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3) for a in range(40)]
    )
    configs = [SMALL_CONFIG, dataclasses.replace(SMALL_CONFIG, epoch_seconds=1800.0)]
    sweep = analyze_sweep(table, configs)
    for analysis in sweep:
        t = analysis.timings
        assert t.n_epochs == analysis.grid.n_epochs
        assert t.n_units == analysis.grid.n_epochs * len(analysis.metric_names)
        assert t.wall_s > 0


class TestSubstrateReuse:
    def test_prebuilt_substrate_matches(self):
        table = build_table(
            [(e, a % 3, a % 2, a % 3 == 0) for e in range(3) for a in range(40)]
        )
        substrate = AnalysisSubstrate.build(table)
        direct = analyze_sweep(table, [SMALL_CONFIG])
        via_substrate = substrate.sweep([SMALL_CONFIG])
        assert_equal_analyses(direct[0], via_substrate[0])

    def test_substrate_analyze_single_config(self):
        table = build_table(
            [(e, a % 3, a % 2, a % 3 == 0) for e in range(3) for a in range(40)]
        )
        substrate = AnalysisSubstrate.build(table)
        assert_equal_analyses(
            analyze_trace(table, config=SMALL_CONFIG),
            substrate.analyze(config=SMALL_CONFIG),
        )

    def test_epoch_split_cache_reused(self):
        table = build_table(
            [(e, a % 3, a % 2, a % 3 == 0) for e in range(2) for a in range(30)]
        )
        substrate = AnalysisSubstrate.build(table)
        grid = substrate.grid_covering(3600.0)
        first = substrate.epoch_rows(grid)
        assert substrate.epoch_rows(grid) is first


class TestParallelSweep:
    def test_workers_do_not_change_results(self):
        table = build_table(
            [(e, a % 3, a % 2, (a * 7 + e) % 5 == 0) for e in range(3)
             for a in range(35)]
        )
        configs = [
            ALL_METRICS_SMALL,
            dataclasses.replace(
                ALL_METRICS_SMALL, thresholds=MetricThresholds().scaled(0.5)
            ),
            dataclasses.replace(ALL_METRICS_SMALL, epoch_seconds=1800.0),
        ]
        serial = analyze_sweep(table, configs)
        parallel = analyze_sweep(table, configs, workers=2)
        for a, b in zip(serial, parallel):
            assert_equal_analyses(a, b)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(session_rows)
    def test_parallel_sweep_on_random_traces(self, rows):
        table = build_table(rows)
        configs = [
            SMALL_CONFIG,
            dataclasses.replace(
                SMALL_CONFIG, thresholds=MetricThresholds().scaled(2.0)
            ),
        ]
        serial = analyze_sweep(table, configs)
        parallel = analyze_sweep(table, configs, workers=2)
        for a, b in zip(serial, parallel):
            assert_equal_analyses(a, b)
