"""The journal-backed bench gate: flattening, verdicts, CLI."""

import json

import pytest

from repro.obs.gate import (
    BENCH_COMMAND,
    PIPELINE_GATES,
    evaluate_latest,
    evaluate_record,
    flatten_payload,
    ingest_payload,
    main as gate_main,
)
from repro.obs.journal import RunJournal


def make_bench_payload(workload="week (first 24 h)", sweep_speedup=3.0,
                       profiler_overhead=0.5):
    return {
        "workload": workload,
        "cpus": 4,
        "speedup": 1.2,
        "generated_at_unix": 1700000000.0,
        "sweep": {"sweep_speedup": sweep_speedup},
        "observability": {"overhead_pct": 0.1},
        "streaming": {"append_detect_speedup": 4.0,
                      "snapshot_load_speedup": 9.0},
        "sharding": {
            "parent_peak_rss_ratio": 0.3,
            "analyze_speedup_vs_indexed": 1.5,
            "gates_enforced": {"parent_peak_rss_ratio_max_0.5": True,
                               "analyze_speedup_min_1.3": False},
        },
        "mechanistic": {"speedup": 20.0,
                        "gates_enforced": {"batch_speedup_min_10": True}},
        "result_cache": {"warm_speedup": 12.0,
                         "gates_enforced": {"warm_speedup_min_5": True}},
        "profiling": {"overhead_pct": profiler_overhead,
                      "gates_enforced": {"overhead_max_3pct": True}},
    }


class TestFlatten:
    def test_gauges_and_enforcement_flags(self):
        gauges = flatten_payload(make_bench_payload())
        assert gauges["bench.sweep.sweep_speedup"] == 3.0
        assert gauges["bench.profiling.overhead_pct"] == 0.5
        assert gauges["bench.gate.sweep_speedup_min_2.enforced"] == 1.0
        assert gauges["bench.gate.shard_analyze_speedup_min_1.3.enforced"] \
            == 0.0
        assert not any("parallel_speedup" in name for name in gauges)
        # Retired gates: a payload that still carries their numbers is
        # flattened without them.
        assert not any("observability" in name for name in gauges)
        assert not any("mechanistic" in name for name in gauges)
        assert "bench.streaming.append_detect_speedup" not in gauges
        assert gauges["bench.streaming.snapshot_load_speedup"] == 9.0

    def test_tiny_workload_disarms_week_gates(self):
        gauges = flatten_payload(make_bench_payload(workload="tiny"))
        assert gauges["bench.gate.sweep_speedup_min_2.enforced"] == 0.0
        assert gauges["bench.gate.profiler_overhead_max_3pct.enforced"] \
            == 1.0  # section-local flag, not workload-derived

    def test_missing_sections_omit_gauges(self):
        gauges = flatten_payload({"workload": "week"})
        assert "bench.sweep.sweep_speedup" not in gauges
        # Flags still present so evaluation is self-contained.
        assert "bench.gate.sweep_speedup_min_2.enforced" in gauges


class TestEvaluate:
    def test_every_gate_evaluated_from_record_alone(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        record = ingest_payload(journal, make_bench_payload())
        assert record["command"] == BENCH_COMMAND
        verdicts = evaluate_record(record)
        assert len(verdicts) == len(PIPELINE_GATES)
        assert all(v.passed for v in verdicts)
        # The record round-trips through the journal file.
        assert evaluate_record(journal.latest(command=BENCH_COMMAND)) \
            == verdicts

    def test_enforced_failure(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        record = ingest_payload(
            journal, make_bench_payload(sweep_speedup=1.1)
        )
        failed = [v for v in evaluate_record(record)
                  if v.enforced and not v.passed]
        assert [v.name for v in failed] == ["sweep_speedup_min_2"]

    def test_unenforced_failure_passes(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        record = ingest_payload(
            journal, make_bench_payload(workload="tiny", sweep_speedup=1.1)
        )
        verdict = next(
            v for v in evaluate_record(record)
            if v.name == "sweep_speedup_min_2"
        )
        assert not verdict.enforced and verdict.passed

    def test_missing_gauge_fails_only_when_enforced(self):
        bare = {"metrics": {"gauges": {
            "bench.gate.sweep_speedup_min_2.enforced": 1.0,
        }}}
        by_name = {v.name: v for v in evaluate_record(bare)}
        assert not by_name["sweep_speedup_min_2"].passed
        assert by_name["cache_warm_speedup_min_5"].passed

    def test_evaluate_latest_requires_bench_records(self, tmp_path):
        with pytest.raises(ValueError, match=BENCH_COMMAND):
            evaluate_latest(RunJournal(tmp_path / "j"))


class TestCli:
    def write_results(self, tmp_path, **kwargs):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(make_bench_payload(**kwargs)))
        return path

    def test_ingest_and_pass(self, tmp_path, capsys):
        results = self.write_results(tmp_path)
        journal_dir = tmp_path / "j"
        assert gate_main([str(results), "--journal", str(journal_dir)]) == 0
        out = capsys.readouterr().out
        assert "ENFORCED" in out and "0 failed" in out
        assert RunJournal(journal_dir).latest() is not None

    def test_enforced_failure_exits_1_report_only_0(self, tmp_path, capsys):
        results = self.write_results(tmp_path, sweep_speedup=0.5)
        journal = str(tmp_path / "j")
        assert gate_main([str(results), "--journal", journal]) == 1
        assert gate_main(
            [str(results), "--journal", journal, "--report-only"]
        ) == 0
        assert "report-only mode" in capsys.readouterr().out

    def test_no_ingest_reads_journal_only(self, tmp_path, capsys):
        results = self.write_results(tmp_path)
        journal_dir = tmp_path / "j"
        gate_main([str(results), "--journal", str(journal_dir)])
        before = (RunJournal(journal_dir).file).read_text()
        assert gate_main(
            [str(results), "--journal", str(journal_dir), "--no-ingest"]
        ) == 0
        assert (RunJournal(journal_dir).file).read_text() == before

    def test_empty_journal_is_error(self, tmp_path, capsys):
        assert gate_main(["--journal", str(tmp_path / "empty")]) == 2
        assert "error" in capsys.readouterr().err
