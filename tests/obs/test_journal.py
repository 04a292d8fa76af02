"""The append-only run journal: ingest, tolerance, baselines."""

import json
import logging

import pytest

from repro.obs import Tracer, build_run_manifest
from repro.obs.journal import (
    JOURNAL_VERSION,
    RunJournal,
    config_digest,
    git_sha,
)


def make_manifest(command="analyze", args=None, duration=1.0, exit_code=0):
    return {
        "command": command,
        "argv": [command, "t.jsonl"],
        "args": args or {"workers": 2, "trace": "t.jsonl"},
        "started_unix": 1700000000.0,
        "duration_s": duration,
        "exit_code": exit_code,
        "host": "box",
        "python": "3.x",
        "peak_rss_bytes": 50_000_000,
        "degradations": [],
        "metrics": {"counters": {"c": 1}, "gauges": {}, "histograms": {}},
    }


def make_trace(epoch_s=0.5):
    return {
        "name": "analyze",
        "duration_s": 1.0,
        "attrs": {},
        "children": [
            {"name": "ingest", "duration_s": 0.2, "attrs": {},
             "children": []},
            {"name": "epochs", "duration_s": epoch_s, "attrs": {},
             "children": []},
        ],
    }


class TestConfigDigest:
    def test_observability_args_excluded(self):
        base = {"workers": 2, "trace": "t.jsonl"}
        noisy = dict(
            base, trace_out="a.json", journal=".j", timings=True, output="x"
        )
        assert config_digest("analyze", base) == config_digest(
            "analyze", noisy
        )

    @pytest.mark.parametrize("argv", [
        ["analyze", "t.jsonl"],
        ["analyze", "t.jsonl", "--trace-out", "r.json", "--journal",
         "--timings"],
    ])
    def test_cli_digest_matches_older_journals(self, argv):
        # The digest older CLI versions recorded for `analyze t.jsonl`:
        # `obs diff --baseline` matches new runs against such records
        # only while the argument set a run digests stays the same.
        from repro.cli import _build_parser

        args = vars(_build_parser().parse_args(argv))
        command = args.pop("command")
        assert config_digest(command, args) == (
            "c2f5c6d66f2f4dfdda7b68c03a0a06d6dbb4e2bdd3aee7605df8b7f0af3ab3fc"
        )

    def test_computation_args_matter(self):
        assert config_digest("analyze", {"workers": 2}) != config_digest(
            "analyze", {"workers": 4}
        )
        assert config_digest("analyze", {}) != config_digest("sweep", {})

    def test_git_sha_in_this_repo(self):
        sha = git_sha()
        # We test from inside a git checkout; outside one, None is fine.
        if sha is not None:
            assert len(sha) == 40

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None


class TestIngest:
    def test_manifest_round_trip(self, tmp_path):
        tracer = Tracer(name="analyze")
        with tracer.span("ingest"):
            pass
        with tracer.span("epochs"):
            pass
        manifest = build_run_manifest(
            "analyze", ["analyze", "t.jsonl"], tracer,
            args={"workers": 2}, exit_code=0,
        )
        journal = RunJournal(tmp_path / "j")
        record = journal.ingest(manifest, trace=tracer.as_dict())

        assert record["run_id"].startswith("r00001-")
        loaded = journal.get(record["run_id"])
        assert loaded is not None
        assert loaded["command"] == "analyze"
        assert loaded["config_digest"] == config_digest(
            "analyze", {"workers": 2}
        )
        assert set(loaded["phases"]) >= {"analyze", "ingest", "epochs"}
        assert loaded["critical_path"][0]["name"] == "analyze"
        assert loaded["exit_code"] == 0
        assert loaded["peak_rss_bytes"] == manifest["peak_rss_bytes"]

    def test_failed_runs_are_journaled_too(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        record = journal.ingest(make_manifest(exit_code=2))
        assert journal.get(record["run_id"])["exit_code"] == 2

    def test_manifest_without_command_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="command"):
            RunJournal(tmp_path / "j").ingest({"args": {}})

    def test_run_ids_are_sequential_and_unique(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        ids = [
            journal.ingest(make_manifest())["run_id"] for _ in range(3)
        ]
        assert len(set(ids)) == 3
        assert [i.split("-")[0] for i in ids] == ["r00001", "r00002",
                                                 "r00003"]


class TestReadTolerance:
    def test_corrupt_line_skipped_with_warning(self, tmp_path, caplog):
        journal = RunJournal(tmp_path / "j")
        first = journal.ingest(make_manifest())
        with open(journal.file, "a", encoding="utf-8") as fh:
            fh.write("{truncated garbage\n")
            fh.write("[1, 2, 3]\n")  # valid JSON, not a record
        second = journal.ingest(make_manifest())

        with caplog.at_level(logging.WARNING, logger="repro.obs.journal"):
            records = journal.records()
        assert [r["run_id"] for r in records] == [
            first["run_id"], second["run_id"],
        ]
        assert caplog.text.count("corrupt record skipped") == 2

    def test_version_mismatch_rejected_with_warning(self, tmp_path, caplog):
        journal = RunJournal(tmp_path / "j")
        kept = journal.ingest(make_manifest())
        alien = dict(make_manifest(), journal_version=JOURNAL_VERSION + 1,
                     run_id="r-alien")
        with open(journal.file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(alien) + "\n")

        with caplog.at_level(logging.WARNING, logger="repro.obs.journal"):
            records = journal.records()
        assert [r["run_id"] for r in records] == [kept["run_id"]]
        assert "version" in caplog.text and "rejected" in caplog.text

    def test_missing_file_is_empty(self, tmp_path):
        journal = RunJournal(tmp_path / "never-written")
        assert journal.records() == []
        assert journal.latest() is None
        assert journal.get("r00001") is None


class TestQueries:
    def test_filters_and_last(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        journal.ingest(make_manifest("analyze"))
        journal.ingest(make_manifest("sweep"))
        journal.ingest(make_manifest("analyze"))
        assert len(journal.records(command="analyze")) == 2
        assert len(journal.records(last=1)) == 1
        assert journal.latest(command="sweep")["command"] == "sweep"

    def test_get_by_unique_prefix(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        record = journal.ingest(make_manifest())
        assert journal.get(record["run_id"][:9]) == record
        # 'r0000' prefixes every run id once there are two records.
        journal.ingest(make_manifest())
        assert journal.get("r0000") is None


class TestBaseline:
    def test_mean_of_last_k_matching(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        for duration in (1.0, 2.0, 3.0):
            journal.ingest(
                make_manifest(duration=duration),
                trace=make_trace(epoch_s=duration / 2),
            )
        newest = journal.latest()
        baseline = journal.baseline(newest, k=2)
        assert baseline is not None
        # Excludes the record itself: mean of the first two runs.
        assert baseline["duration_s"] == pytest.approx(1.5)
        assert baseline["phases"]["epochs"]["total_s"] == pytest.approx(0.75)
        assert baseline["run_id"] == "baseline[2]"
        assert len(baseline["baseline_of"]) == 2

    def test_none_without_matching_history(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        only = journal.ingest(make_manifest())
        assert journal.baseline(only) is None
        # A different config digest never matches.
        other = journal.ingest(
            make_manifest(args={"workers": 99, "trace": "t.jsonl"})
        )
        assert journal.baseline(other) is None
