"""Run diffs: verdict thresholds, added/removed phases, baselines."""

import pytest

from repro.obs.diff import (
    ADDED,
    IMPROVED,
    NEUTRAL,
    REGRESSED,
    REMOVED,
    DiffThresholds,
    classify,
    diff_against_baseline,
    diff_records,
    record_from_trace,
)
from repro.obs.journal import RunJournal

from .test_journal import make_manifest, make_trace


def record(run_id="r1", phases=None, duration=10.0, rss=None, counters=None):
    return {
        "run_id": run_id,
        "command": "analyze",
        "duration_s": duration,
        "peak_rss_bytes": rss,
        "phases": {
            name: {"count": 1, "total_s": total, "self_s": total,
                   "max_s": total}
            for name, total in (phases or {}).items()
        },
        "metrics": {"counters": counters or {}, "gauges": {},
                    "histograms": {}},
    }


class TestClassify:
    def test_needs_both_gates(self):
        # Big relative change, tiny absolute: a microsecond phase that
        # doubled is still noise.
        assert classify(0.001, 0.01, rel=0.25, abs_floor=0.25) == NEUTRAL
        # Big absolute change, small relative: scheduler noise on a
        # long phase.
        assert classify(100.0, 101.0, rel=0.25, abs_floor=0.25) == NEUTRAL
        # Both cleared: a real regression.
        assert classify(1.0, 2.0, rel=0.25, abs_floor=0.25) == REGRESSED

    def test_improvement(self):
        assert classify(2.0, 1.0, rel=0.25, abs_floor=0.25) == IMPROVED

    def test_exact_thresholds_stay_neutral(self):
        assert classify(1.0, 1.25, rel=0.25, abs_floor=0.1) == NEUTRAL
        assert classify(1.0, 1.25, rel=0.1, abs_floor=0.25) == NEUTRAL

    def test_zero_before_regresses_past_floor(self):
        assert classify(0.0, 1.0, rel=0.25, abs_floor=0.25) == REGRESSED
        assert classify(0.0, 0.1, rel=0.25, abs_floor=0.25) == NEUTRAL

    def test_higher_is_better_flips(self):
        assert (
            classify(1.0, 2.0, rel=0.25, abs_floor=0.25,
                     higher_is_worse=False)
            == IMPROVED
        )

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DiffThresholds(rel=-0.1)
        with pytest.raises(ValueError):
            DiffThresholds(abs_s=-1.0)


class TestDiffRecords:
    def test_identical_runs_have_no_regressions(self):
        a = record("r1", {"ingest": 1.0, "epochs": 5.0})
        b = record("r2", {"ingest": 1.0, "epochs": 5.0})
        result = diff_records(a, b)
        assert not result.has_regressions
        assert result.n_improved == 0
        assert "0 regressed" in result.summary()

    def test_phase_regression_and_improvement(self):
        a = record("r1", {"epochs": 5.0, "ingest": 2.0}, duration=10.0)
        b = record("r2", {"epochs": 8.0, "ingest": 1.0}, duration=10.0)
        result = diff_records(a, b)
        by_name = {v.name: v.verdict for v in result.verdicts
                   if v.kind == "phase"}
        assert by_name["epochs"] == REGRESSED
        assert by_name["ingest"] == IMPROVED

    def test_added_and_removed_phases(self):
        a = record("r1", {"old_phase": 1.0})
        b = record("r2", {"new_phase": 1.0})
        verdicts = {
            v.name: v.verdict
            for v in diff_records(a, b).verdicts
            if v.kind == "phase"
        }
        assert verdicts["old_phase"] == REMOVED
        assert verdicts["new_phase"] == ADDED

    def test_rss_uses_byte_floor(self):
        floor = DiffThresholds().abs_bytes
        a = record("r1", rss=100 * floor)
        b_noise = record("r2", rss=100 * floor + floor // 2)
        b_real = record("r3", rss=200 * floor)
        rss = lambda result: next(
            v for v in result.verdicts if v.name == "peak_rss_bytes"
        )
        assert rss(diff_records(a, b_noise)).verdict == NEUTRAL
        assert rss(diff_records(a, b_real)).verdict == REGRESSED

    def test_degraded_counters_regress_outright(self):
        a = record("r1", counters={"degraded.parallel_to_serial": 0})
        b = record("r2", counters={"degraded.parallel_to_serial": 1})
        result = diff_records(a, b)
        degraded = next(v for v in result.verdicts if v.kind == "counter")
        assert degraded.verdict == REGRESSED
        # And recovering is an improvement, not noise.
        assert (
            next(
                v for v in diff_records(b, a).verdicts
                if v.kind == "counter"
            ).verdict
            == IMPROVED
        )

    def test_other_counters_report_neutral_and_unchanged_skip(self):
        a = record("r1", counters={"cache.hit": 5, "same": 1})
        b = record("r2", counters={"cache.hit": 9, "same": 1})
        counters = [
            v for v in diff_records(a, b).verdicts if v.kind == "counter"
        ]
        assert [v.name for v in counters] == ["cache.hit"]
        assert counters[0].verdict == NEUTRAL

    def test_custom_thresholds(self):
        a = record("r1", {"epochs": 1.0})
        b = record("r2", {"epochs": 1.1})
        strict = DiffThresholds(rel=0.05, abs_s=0.01)
        assert diff_records(a, b, strict).has_regressions
        assert not diff_records(a, b).has_regressions

    def test_render_mentions_runs_and_verdicts(self):
        a = record("r1", {"epochs": 1.0})
        b = record("r2", {"epochs": 9.0})
        text = diff_records(a, b).render()
        assert "r1" in text and "r2" in text
        assert "regressed" in text


class TestRecordFromTrace:
    def test_phases_from_tree_manifest_optional(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trace": make_trace()}))
        rec = record_from_trace(path)
        assert rec["command"] == "analyze"
        assert "epochs" in rec["phases"]
        assert rec["peak_rss_bytes"] is None

    def test_manifest_enriches(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trace": make_trace()}))
        (tmp_path / "run.manifest.json").write_text(
            json.dumps(
                {"command": "analyze", "peak_rss_bytes": 123,
                 "duration_s": 4.5}
            )
        )
        rec = record_from_trace(path)
        assert rec["peak_rss_bytes"] == 123
        assert rec["duration_s"] == 4.5


class TestBaselineDiff:
    def test_none_without_history(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        only = journal.ingest(make_manifest())
        assert diff_against_baseline(journal, only) is None

    def test_steady_history_diffs_neutral(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        for _ in range(3):
            journal.ingest(make_manifest(duration=1.0), trace=make_trace())
        newest = journal.latest()
        result = diff_against_baseline(journal, newest, k=2)
        assert result is not None
        assert not result.has_regressions
        assert result.before_id == "baseline[2]"
