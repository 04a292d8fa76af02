"""Tests for the experiment registry and runners.

Every registered experiment must run on the tiny context and produce
printable text plus structurally sane data. Shape assertions against
the paper's findings run at this scale only loosely; the week-scale
numbers live in EXPERIMENTS.md.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.runners import METRIC_ORDER, run_ablation_engines

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

PAPER_IDS = (
    "fig1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "tab1", "tab2", "tab3", "tab4", "tab5",
)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        for experiment_id in PAPER_IDS:
            assert experiment_id in EXPERIMENTS

    def test_ablations_registered(self):
        for experiment_id in ("abl-threshold", "abl-hhh", "abl-engine",
                              "abl-scale", "abl-parallel", "validation"):
            assert experiment_id in EXPERIMENTS

    def test_get_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_metadata(self):
        experiment = get_experiment("tab1")
        assert experiment.paper_ref == "Table 1"
        assert experiment.workload == "week"


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs(tiny_ctx, experiment_id):
    result = run_experiment(experiment_id, tiny_ctx)
    assert result.experiment_id == experiment_id
    assert result.text.strip()
    assert isinstance(result.data, dict)


class TestFig1:
    def test_cdf_monotone(self, tiny_ctx):
        data = run_experiment("fig1", tiny_ctx).data
        for metric in ("buffering_ratio", "bitrate", "join_time"):
            cdf = data[metric]["cdf"]
            assert all(b >= a for a, b in zip(cdf, cdf[1:]))
            assert 0 <= cdf[0] and cdf[-1] <= 1


class TestFig2:
    def test_ratio_series_full_length(self, tiny_ctx):
        data = run_experiment("fig2", tiny_ctx).data
        n = tiny_ctx.n_epochs
        for ratios in data["ratios"].values():
            assert len(ratios) == n


class TestFig7And8:
    def test_inverse_cdfs_decreasing(self, tiny_ctx):
        data = run_experiment("fig7", tiny_ctx).data
        for curve in data["curves"].values():
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        data8 = run_experiment("fig8", tiny_ctx).data
        for which in ("median", "max"):
            for curve in data8[which].values():
                assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_persistence_structure(self, tiny_ctx):
        """Problem clusters persist: a visible share lasts >= 2h."""
        data = run_experiment("fig8", tiny_ctx).data
        some_persistent = [
            stats["frac_median_ge_2h"] for stats in data["stats"].values()
        ]
        assert max(some_persistent) > 0.1


class TestTab1:
    def test_paper_shape(self, tiny_ctx):
        data = run_experiment("tab1", tiny_ctx).data
        for metric in METRIC_ORDER:
            row = data[metric]
            assert row["mean_critical_clusters"] <= row["mean_problem_clusters"]
            assert row["critical_fraction"] < 1.0
            assert row["critical_cluster_coverage"] > 0.1


class TestFig11:
    def test_more_clusters_more_improvement(self, tiny_ctx):
        data = run_experiment("fig11", tiny_ctx).data
        for ranking in ("prevalence", "persistence", "coverage"):
            for metric in METRIC_ORDER:
                imp = data[ranking][metric]["improvement"]
                assert all(b >= a - 1e-12 for a, b in zip(imp, imp[1:]))


class TestTab4:
    def test_proactive_tracks_potential(self, tiny_ctx):
        # "Potential" ranks the test window's clusters by *attributed*
        # problem sessions (the paper's coverage ranking), which is not
        # exactly the optimal *alleviation* set — so the history-based
        # choice can nose ahead by a small margin. It must still be in
        # the same ballpark, never wildly above.
        data = run_experiment("tab4", tiny_ctx).data
        for split in data.values():
            for row in split.values():
                assert 0.0 <= row["new"] <= row["potential"] + 0.05


class TestTab5:
    def test_reactive_below_potential(self, tiny_ctx):
        data = run_experiment("tab5", tiny_ctx).data
        for row in data.values():
            assert 0 <= row["new"] <= row["potential"] + 1e-9


class TestFig13:
    def test_series_consistency(self, tiny_ctx):
        data = run_experiment("fig13", tiny_ctx).data
        original = np.array(data["original"])
        after = np.array(data["after"])
        unattributed = np.array(data["unattributed"])
        assert (after <= original + 1e-9).all()
        assert (unattributed <= original + 1e-9).all()
        # Reactive repair cannot beat the unattributed floor.
        assert (after >= unattributed - 1e-6).all()


class TestValidationExperiment:
    def test_detector_finds_detectable_events(self, tiny_ctx):
        data = run_experiment("validation", tiny_ctx).data
        recalls = [row["detectable_event_recall"] for row in data.values()]
        assert np.mean(recalls) > 0.4


class TestAblations:
    def test_threshold_ablation_monotonicity(self, tiny_ctx):
        data = run_experiment("abl-threshold", tiny_ctx).data
        # A stricter ratio multiplier yields fewer problem clusters.
        for metric in ("buffering_ratio", "join_failure"):
            loose = data["ratio x1.25"][metric]["problem_clusters"]
            strict = data["ratio x2.0"][metric]["problem_clusters"]
            assert strict <= loose + 1e-9

    def test_hhh_ablation_counts(self, tiny_ctx):
        data = run_experiment("abl-hhh", tiny_ctx).data
        for metric_data in data.values():
            assert metric_data["critical"]["mean_reported"] >= 0
            assert metric_data["hhh"]["mean_reported"] >= 0

    def test_engine_ablation_same_ballpark(self, tiny_ctx):
        data = run_experiment("abl-engine", tiny_ctx).data
        mech = data["mechanistic"]
        stat = data["statistical"]
        assert abs(
            mech["frac_buffering_ratio_gt_5pct"]
            - stat["frac_buffering_ratio_gt_5pct"]
        ) < 0.30

    def test_engine_ablation_matches_committed_result(self, tiny_ctx):
        """The committed ``abl-engine`` table (EXPERIMENTS.md quotes it)
        is what the runner prints today; its traces are fixed-seed
        workloads of their own, so any change to how either engine draws
        its trace must regenerate the file."""
        committed = (RESULTS_DIR / "abl-engine.txt").read_text(encoding="utf-8")
        assert run_ablation_engines(tiny_ctx).text + "\n" == committed

    def test_scale_ablation_reports_throughput(self, tiny_ctx):
        data = run_experiment("abl-scale", tiny_ctx).data
        assert set(data) == {500, 2000, 8000, 32000}
        for row in data.values():
            assert row["sessions_per_second"] > 0
            assert row["clusters_per_epoch"] > 0
            assert 0 < row["kept_clusters_per_epoch"] <= row["clusters_per_epoch"]
            for phase in ("pack_s", "aggregate_s", "problems_s", "critical_s"):
                assert row[phase] > 0
