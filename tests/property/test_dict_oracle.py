"""The columnar results against the dict path they replaced.

Every analysis path — serial and 2-worker ``analyze_trace``, 5-config
sweeps, cold and warm sharded runs, ``restrict_epochs`` — must give
exactly the decoded epochs, ordered timelines, streak values and
attribution totals that the dict-building path of
``tests/core/dict_results.py`` gives on the same epochs.
"""

import dataclasses

import pytest

from repro.core.metrics import MetricThresholds
from repro.core.pipeline import AnalysisConfig, analyze_trace, restrict_epochs
from repro.core.problems import ProblemClusterConfig
from repro.core.resultcache import ResultCache
from repro.core.shards import analyze_shards, build_shard_store
from repro.core.substrate import analyze_sweep
from repro.trace import StandardWorkloads, generate_trace
from tests.core.dict_results import (
    assert_analysis_matches_dicts,
    assert_matches_dicts,
    dict_sweep,
    restrict,
)

#: The e2e ``sweep`` workload's five variants; the fourth is the default
#: config.
CONFIGS = [
    AnalysisConfig(problem_config=ProblemClusterConfig(ratio_multiplier=1.25)),
    AnalysisConfig(problem_config=ProblemClusterConfig(ratio_multiplier=2.0)),
    *(
        dataclasses.replace(AnalysisConfig(), thresholds=MetricThresholds().scaled(f))
        for f in (0.5, 1.0, 2.0)
    ),
]


@pytest.fixture(scope="module")
def tiny_dicts(tiny_trace):
    return dict_sweep(tiny_trace.table, CONFIGS, grid=tiny_trace.grid)


@pytest.mark.parametrize("workers", [0, 2])
def test_analyze_trace_matches_dicts(tiny_trace, tiny_dicts, workers):
    default = CONFIGS[3]
    analysis = analyze_trace(
        tiny_trace.table, config=default, grid=tiny_trace.grid, workers=workers
    )
    assert_analysis_matches_dicts(analysis, tiny_dicts[3])


def test_tiny_sweep_matches_dicts(tiny_trace, tiny_dicts):
    analyses = analyze_sweep(tiny_trace.table, CONFIGS, grid=tiny_trace.grid)
    for analysis, want in zip(analyses, tiny_dicts):
        assert_analysis_matches_dicts(analysis, want)


@pytest.mark.parametrize("seed", [42, 7])
def test_small_sweep_matches_dicts(seed):
    trace = generate_trace(StandardWorkloads.small(seed=seed))
    analyses = analyze_sweep(trace.table, CONFIGS, grid=trace.grid)
    for analysis, want in zip(analyses, dict_sweep(trace.table, CONFIGS, trace.grid)):
        assert_analysis_matches_dicts(analysis, want)


def test_sharded_cold_and_warm_match_dicts(tiny_trace, tiny_dicts, tmp_path):
    store = build_shard_store(
        tiny_trace.table, tmp_path / "s", epochs_per_shard=7, grid=tiny_trace.grid
    )
    cache = ResultCache(tmp_path / "rc")
    for _ in ("cold", "warm"):
        merged = analyze_shards(store, config=CONFIGS[3], result_cache=cache)
        assert_analysis_matches_dicts(merged, tiny_dicts[3])


@pytest.mark.parametrize(
    "chosen", [[0], [3, 1, 2], "all", [], [5, 5], [-1, 0], range(12, 24)]
)
def test_restrict_epochs_matches_dicts(tiny_analysis, tiny_dicts, chosen):
    for name, ma in tiny_analysis.metrics.items():
        want = tiny_dicts[3][name]
        if chosen == "all":
            chosen = range(len(want))
        assert_matches_dicts(restrict_epochs(ma, chosen), restrict(want, list(chosen)))
