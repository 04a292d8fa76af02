"""Tests for the end-to-end analysis pipeline."""

import numpy as np
import pytest

from repro.core.metrics import JOIN_FAILURE
from repro.core.pipeline import (
    AnalysisConfig,
    analyze_trace,
    restrict_epochs,
)
from repro.core.problems import ProblemClusterConfig
from repro.core.sessions import SessionTable
from tests.conftest import make_session


@pytest.fixture(scope="module")
def two_epoch_analysis():
    """Epoch 0: cdn_bad fails heavily; epoch 1: healthy."""
    rng = np.random.default_rng(3)
    sessions = []
    for epoch, bad_p in ((0, 0.5), (1, 0.05)):
        for _ in range(2000):
            cdn = "cdn_bad" if rng.random() < 0.3 else f"cdn_{rng.integers(0, 2)}"
            fail_p = bad_p if cdn == "cdn_bad" else 0.05
            sessions.append(
                make_session(
                    start_time=epoch * 3600.0 + float(rng.uniform(0, 3600)),
                    join_failed=bool(rng.random() < fail_p),
                    cdn=cdn,
                    asn=f"AS{rng.integers(0, 4)}",
                )
            )
    table = SessionTable.from_sessions(sessions)
    config = AnalysisConfig(
        metrics=(JOIN_FAILURE,),
        problem_config=ProblemClusterConfig(
            min_sessions=50, min_problems=3, significance_sigmas=0.0
        ),
    )
    return analyze_trace(table, config=config)


class TestAnalyzeTrace:
    def test_epoch_count(self, two_epoch_analysis):
        assert two_epoch_analysis.grid.n_epochs == 2
        ma = two_epoch_analysis["join_failure"]
        assert len(ma.epochs) == 2

    def test_problem_found_only_in_bad_epoch(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        keys0 = {k.label() for k in ma.epochs[0].critical_clusters}
        keys1 = {k.label() for k in ma.epochs[1].critical_clusters}
        assert "[cdn=cdn_bad]" in keys0
        assert "[cdn=cdn_bad]" not in keys1

    def test_problem_ratio_series(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        series = ma.problem_ratio_series
        assert series.shape == (2,)
        assert series[0] > series[1]

    def test_counts_series(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        assert ma.problem_cluster_counts[0] >= 1
        assert ma.critical_cluster_counts[0] >= 1

    def test_timelines(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        timelines = ma.critical_timelines()
        bad = [tl for k, tl in timelines.items() if k.label() == "[cdn=cdn_bad]"]
        assert len(bad) == 1
        assert bad[0].prevalence == pytest.approx(0.5)

    def test_attribution_totals(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        totals = ma.critical_attribution_totals()
        best = max(totals.items(), key=lambda kv: kv[1])
        assert best[0].label() == "[cdn=cdn_bad]"

    def test_attribution_totals_are_memoised(self, tiny_analysis):
        ma = tiny_analysis["buffering_ratio"]
        totals = ma.critical_attribution_totals()
        assert ma.critical_attribution_totals() is totals
        fresh = {}
        for epoch in ma.epochs:
            for key, att in epoch.critical_clusters.items():
                fresh[key] = fresh.get(key, 0.0) + att.attributed_problems
        assert list(totals.items()) == list(fresh.items())
        # A view over other epochs is another analysis with its own totals.
        view = restrict_epochs(ma, [0])
        assert view.critical_attribution_totals() == {
            key: att.attributed_problems
            for key, att in ma.epochs[0].critical_clusters.items()
        }

    def test_metric_names(self, two_epoch_analysis):
        assert two_epoch_analysis.metric_names == ["join_failure"]

    def test_progress_callback(self):
        table = SessionTable.from_sessions(
            [make_session(start_time=t * 3600.0) for t in range(3)]
        )
        calls = []
        analyze_trace(
            table,
            config=AnalysisConfig(metrics=(JOIN_FAILURE,)),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_epoch_analysis_invariants(self, two_epoch_analysis):
        for epoch in two_epoch_analysis["join_failure"].epochs:
            assert 0 <= epoch.problem_cluster_coverage <= 1
            assert 0 <= epoch.critical_cluster_coverage <= 1 + 1e-9
            assert epoch.total_problems <= epoch.total_sessions
            # critical clusters explain at most what problem clusters hold
            assert (
                epoch.critical_cluster_coverage
                <= epoch.problem_cluster_coverage + 1e-9
            )


class TestRestrictEpochs:
    def test_subset_and_renumbering(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        view = restrict_epochs(ma, [1])
        assert len(view.epochs) == 1
        assert view.epochs[0].epoch == 0  # renumbered
        assert view.grid.n_epochs == 1
        assert view.epochs[0].total_sessions == ma.epochs[1].total_sessions

    def test_preserves_cluster_content(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        view = restrict_epochs(ma, [0, 1])
        assert view.total_problem_sessions == ma.total_problem_sessions


class TestTinyTraceIntegration:
    """Integration: the full pipeline over a generated trace."""

    def test_all_four_metrics_analyzed(self, tiny_analysis):
        assert set(tiny_analysis.metric_names) == {
            "buffering_ratio",
            "bitrate",
            "join_time",
            "join_failure",
        }

    def test_epochs_match_grid(self, tiny_analysis, tiny_trace):
        assert tiny_analysis.grid.n_epochs == tiny_trace.spec.n_epochs
        for ma in tiny_analysis.metrics.values():
            assert len(ma.epochs) == tiny_trace.spec.n_epochs

    def test_some_structure_found(self, tiny_analysis):
        for name, ma in tiny_analysis.metrics.items():
            assert ma.mean_problem_clusters > 0, name
            assert ma.mean_critical_clusters > 0, name
            assert ma.mean_critical_cluster_coverage > 0.1, name

    def test_critical_coverage_never_exceeds_problem_coverage(self, tiny_analysis):
        for ma in tiny_analysis.metrics.values():
            for epoch in ma.epochs:
                assert (
                    epoch.critical_cluster_coverage
                    <= epoch.problem_cluster_coverage + 1e-9
                )

    def test_critical_counts_below_problem_counts(self, tiny_analysis):
        for ma in tiny_analysis.metrics.values():
            assert ma.mean_critical_clusters <= ma.mean_problem_clusters


class TestRestrictEpochsOrigin:
    """The subset view must report true trace timestamps, not epoch-0's."""

    def test_origin_moves_to_first_chosen_epoch(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        view = restrict_epochs(ma, [1])
        assert view.grid.origin == ma.grid.epoch_start(1)
        assert view.grid.epoch_start(0) == ma.grid.epoch_start(1)

    def test_full_subset_keeps_origin(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        view = restrict_epochs(ma, [0, 1])
        assert view.grid.origin == ma.grid.origin

    def test_empty_subset_keeps_origin(self, two_epoch_analysis):
        ma = two_epoch_analysis["join_failure"]
        view = restrict_epochs(ma, [])
        assert view.grid.origin == ma.grid.origin
        assert view.grid.n_epochs == 0


class TestPipelineTimings:
    def test_timings_populated(self, two_epoch_analysis):
        t = two_epoch_analysis.timings
        assert t.n_epochs == 2
        assert t.n_units == 2  # 2 epochs x 1 metric
        assert t.pack_s > 0
        assert t.index_build_s > 0  # one trace-global index build
        assert t.aggregate_s > 0
        assert t.problems_s > 0
        assert t.critical_s > 0
        assert t.wall_s > 0

    def test_timings_render_mentions_phases(self, two_epoch_analysis):
        text = two_epoch_analysis.timings.render()
        for word in ("pack", "aggregate", "problem", "critical", "wall"):
            assert word in text

    def test_as_dict_roundtrips_fields(self, two_epoch_analysis):
        d = two_epoch_analysis.timings.as_dict()
        assert d["n_epochs"] == 2
        assert set(d) >= {"pack_s", "index_build_s", "aggregate_s",
                          "problems_s", "critical_s", "wall_s"}


class TestConfigDigest:
    """The digest keys the result cache: it must cover exactly the
    result-determining knobs and nothing about execution strategy."""

    def test_stable_and_hex(self):
        digest = AnalysisConfig().config_digest()
        assert digest == AnalysisConfig().config_digest()
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_execution_knobs_never_change_the_digest(self):
        """Execution knobs are call arguments, not config fields, so no
        config can carry (and hash) one."""
        import dataclasses

        for knob, value in (("workers", 2), ("engine", "epoch"),
                            ("transport", "pickle")):
            with pytest.raises(TypeError):
                dataclasses.replace(AnalysisConfig(), **{knob: value})

    def test_fields_are_exactly_the_digest_keys(self):
        import dataclasses

        fields = {f.name for f in dataclasses.fields(AnalysisConfig)}
        spec = AnalysisConfig().digest_spec()
        assert set(spec) - {"digest_version"} == fields

    @pytest.mark.parametrize(
        "override",
        [
            lambda cfg: {"metrics": (JOIN_FAILURE,)},
            lambda cfg: {"thresholds": cfg.thresholds.scaled(2.0)},
            lambda cfg: {
                "problem_config": ProblemClusterConfig(ratio_multiplier=2.0)
            },
            lambda cfg: {"epoch_seconds": 1800.0},
        ],
    )
    def test_every_result_knob_changes_the_digest(self, override):
        import dataclasses

        base = AnalysisConfig()
        varied = dataclasses.replace(base, **override(base))
        assert varied.config_digest() != base.config_digest()

    def test_registered_custom_metric_is_addressable_by_name(self):
        import dataclasses

        from repro.core.metrics import (
            JOIN_TIME,
            metric_by_name,
            register_metric,
            unregister_metric,
        )

        custom = dataclasses.replace(
            JOIN_TIME, name="join_time_alt", paper_name="join time (alt)"
        )
        register_metric(custom)
        try:
            base = AnalysisConfig()
            varied = dataclasses.replace(base, metrics=(custom,))
            assert varied.config_digest() != base.config_digest()
            assert metric_by_name("join_time_alt") is custom
        finally:
            unregister_metric("join_time_alt")

    def test_unregistered_metric_has_no_identity(self):
        import dataclasses

        from repro.core.metrics import JOIN_TIME

        rogue = dataclasses.replace(JOIN_TIME, name="never_registered")
        config = AnalysisConfig(metrics=(rogue,))
        with pytest.raises(ValueError, match="not registered"):
            config.config_digest()


class TestTimelineOrder:
    def test_key_order_does_not_depend_on_hash_seed(self):
        # Timelines list keys in order of first appearance over the
        # epochs, so two processes with different string hashing list
        # them identically.
        import subprocess
        import sys

        from tests.test_cli import _cli_env

        code = (
            "import dataclasses\n"
            "from repro.core.pipeline import analyze_trace\n"
            "from repro.trace import StandardWorkloads, generate_trace\n"
            "spec = dataclasses.replace(StandardWorkloads.tiny(seed=3), n_epochs=4)\n"
            "analysis = analyze_trace(generate_trace(spec).table)\n"
            "for ma in analysis.metrics.values():\n"
            "    for timelines in (ma.problem_timelines(), ma.critical_timelines()):\n"
            "        print([key.label() for key in timelines])\n"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(_cli_env(), PYTHONHASHSEED=seed),
                check=True, capture_output=True, text=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0].count("=") > 8  # many keys, so the order is tested
        assert outs[0] == outs[1]

