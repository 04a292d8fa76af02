"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerate:
    def test_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["generate", "--workload", "tiny", "--seed", "3",
                   "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["generate", "--workload", "tiny", "-o", str(out)]) == 0
        assert out.exists()

    def test_bad_extension(self, tmp_path, capsys):
        assert main(["generate", "-o", str(tmp_path / "trace.parquet")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestAnalyze:
    def test_analyze_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["generate", "--workload", "tiny", "--seed", "3", "-o", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "join_failure" in text
        assert "Critical clusters" in text

    def test_unsupported_extension(self, capsys):
        assert main(["analyze", "trace.parquet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unsupported trace extension" in err

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        for experiment_id in ("fig1", "tab1", "fig11", "tab5", "validation"):
            assert experiment_id in text


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "tab1", "--workload", "tiny",
                     "--seed", "5"]) == 0
        text = capsys.readouterr().out
        assert "Table 1" in text

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiment", "fig99", "--workload", "tiny"])


class TestValidate:
    def test_validate(self, capsys):
        assert main(["validate", "--workload", "tiny", "--seed", "5"]) == 0
        assert "Ground-truth validation" in capsys.readouterr().out


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_workload_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--workload", "galaxy",
                  "-o", str(tmp_path / "x.jsonl")])


class TestWorkersFlag:
    def test_analyze_parallel_with_timings(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["generate", "--workload", "tiny", "--seed", "3", "-o", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out), "--workers", "2",
                     "--timings"]) == 0
        text = capsys.readouterr().out
        assert "Pipeline timings" in text

    def test_analyze_serial_timings(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["generate", "--workload", "tiny", "--seed", "3", "-o", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out), "--timings"]) == 0
        assert "Pipeline timings" in capsys.readouterr().out

    def test_bad_workers_value_exits(self, tmp_path):
        out = tmp_path / "t.jsonl"
        main(["generate", "--workload", "tiny", "--seed", "3", "-o", str(out)])
        with pytest.raises(SystemExit):
            main(["analyze", str(out), "--workers", "lots"])

    def test_auto_workers_accepted(self, tmp_path):
        out = tmp_path / "t.jsonl"
        main(["generate", "--workload", "tiny", "--seed", "3", "-o", str(out)])
        assert main(["analyze", str(out), "--workers", "auto"]) == 0

    @pytest.mark.parametrize("flag", [["--engine", "epoch"],
                                      ["--transport", "shm"]])
    def test_removed_execution_flags_exit_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(tmp_path / "t.jsonl"), *flag])
        assert exc.value.code == 2


class TestSubstrateCache:
    def test_analyze_builds_then_loads_cache(self, tmp_path, capsys):
        trace = tmp_path / "trace.npz"
        cache = tmp_path / "trace.sub"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        capsys.readouterr()

        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        first = capsys.readouterr().out
        assert "built and saved" in first
        assert cache.exists()

        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        second = capsys.readouterr().out
        assert "loaded" in second
        # identical analysis either way (strip the one-line cache note)
        strip = lambda text: "\n".join(
            line for line in text.splitlines()
            if not line.startswith("substrate cache:")
        )
        assert strip(first) == strip(second)

    def test_sweep_uses_cache(self, tmp_path, capsys):
        trace = tmp_path / "trace.npz"
        cache = tmp_path / "trace.sub"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        main(["analyze", str(trace), "--substrate-cache", str(cache)])
        capsys.readouterr()
        assert main(["sweep", str(trace), "--threshold-scales", "0.5,1.0",
                     "--substrate-cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out
        assert "Config sweep" in out

    def test_report_rebuilds_stale_cache(self, tmp_path, capsys):
        cache = tmp_path / "trace.sub"
        report = tmp_path / "report.md"
        assert main(["report", "--workload", "tiny", "--seed", "3",
                     "-o", str(report), "--substrate-cache", str(cache)]) == 0
        capsys.readouterr()
        # different seed -> different trace -> cached substrate must not
        # be silently reused
        assert main(["report", "--workload", "tiny", "--seed", "4",
                     "-o", str(report), "--substrate-cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "does not match" in out
        assert "built and saved" in out

    def test_corrupt_cache_is_rebuilt_not_fatal(self, tmp_path, capsys):
        trace = tmp_path / "trace.npz"
        cache = tmp_path / "trace.sub"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        capsys.readouterr()
        # Corrupt the data section (manifest still parses) and pin the
        # trace mtime so only corruption — not staleness — triggers.
        raw = bytearray(cache.read_bytes())
        cache.write_bytes(bytes(raw[: len(raw) // 2]))
        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "rebuilding" in out
        assert "built and saved" in out
        # The overwritten snapshot is healthy again.
        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        assert "loaded" in capsys.readouterr().out

    def test_source_mtime_drift_rebuilds_cache(self, tmp_path, capsys):
        import os

        trace = tmp_path / "trace.npz"
        cache = tmp_path / "trace.sub"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        capsys.readouterr()
        os.utime(trace, ns=(1, 1))
        assert main(["analyze", str(trace),
                     "--substrate-cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "does not match" in out
        assert "built and saved" in out


class TestTraceOut:
    def _span_names(self, node, names=None):
        names = set() if names is None else names
        names.add(node["name"])
        for child in node.get("children", ()):
            self._span_names(child, names)
        return names

    def test_analyze_writes_trace_and_manifest(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "run.json"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        assert main(["analyze", str(trace), "--workers", "2",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()

        data = json.loads(out.read_text())
        names = self._span_names(data["trace"])
        for expected in ("ingest", "analyze_trace", "index_build",
                         "fanout", "worker", "aggregate"):
            assert expected in names, f"span {expected!r} missing"
        counters = data["metrics"]["counters"]
        assert counters["pipeline.runs"] == 1
        assert counters["ingest.rows"] > 0

        manifest = json.loads(
            (tmp_path / "run.manifest.json").read_text()
        )
        assert manifest["command"] == "analyze"
        assert manifest["exit_code"] == 0
        assert manifest["degradations"] == []
        assert "analyze_trace" in manifest["span_names"]

    def test_worker_spans_carry_pids_and_bytes(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "run.json"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        assert main(["analyze", str(trace), "--workers", "2",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()

        data = json.loads(out.read_text())

        def find(node, name, hits):
            if node["name"] == name:
                hits.append(node)
            for child in node.get("children", ()):
                find(child, name, hits)
            return hits

        workers = find(data["trace"], "worker", [])
        assert workers
        assert all(w["attrs"]["pid"] > 0 for w in workers)
        assert all(w["attrs"]["tasks"] > 0 for w in workers)

    def test_sweep_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "run.json"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        assert main(["sweep", str(trace), "--threshold-scales", "0.5,1.0",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()
        names = self._span_names(json.loads(out.read_text())["trace"])
        assert "analyze_sweep" in names
        assert "substrate.build" in names

    def test_trace_out_written_even_on_failure(self, tmp_path, capsys):
        import json

        out = tmp_path / "run.json"
        assert main(["analyze", str(tmp_path / "missing.jsonl"),
                     "--trace-out", str(out)]) == 2
        capsys.readouterr()
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["exit_code"] == 2


class TestShardCLI:
    def _trace(self, tmp_path):
        out = tmp_path / "trace.npz"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(out)])
        return out

    def test_build_info_analyze_round_trip(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        store = tmp_path / "trace.shards"
        assert main(["shard", "build", str(trace), "-o", str(store),
                     "--epochs-per-shard", "7"]) == 0
        assert (store / "manifest.json").is_file()
        assert main(["shard", "info", str(store)]) == 0
        capsys.readouterr()

        assert main(["analyze", "--shard-dir", str(store),
                     "--timings"]) == 0
        sharded = capsys.readouterr().out
        assert "shard snapshot load" in sharded
        assert "peak RSS" in sharded
        assert main(["analyze", str(trace)]) == 0
        monolithic = capsys.readouterr().out
        # identical metric tables (headers differ only in the source name)
        strip = lambda text: [
            line for line in text.splitlines()
            if line and not line.startswith(("Analysis of", "Pipeline",
                                            "  ", "shard"))
        ]
        assert strip(sharded)[:6] == strip(monolithic)[:6]

    def test_build_n_shards_flag(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        store = tmp_path / "s"
        assert main(["shard", "build", str(trace), "-o", str(store),
                     "--shards", "3"]) == 0
        assert "3 shards" in capsys.readouterr().out

    def test_build_rejects_both_split_flags(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["shard", "build", str(trace), "-o", str(tmp_path / "s"),
                     "--shards", "3", "--epochs-per-shard", "4"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_sweep_shard_dir(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        store = tmp_path / "s"
        main(["shard", "build", str(trace), "-o", str(store)])
        assert main(["sweep", "--shard-dir", str(store),
                     "--ratio-multipliers", "1,1.5"]) == 0
        assert "2 variants" in capsys.readouterr().out

    def test_analyze_requires_trace_or_shard_dir(self, capsys):
        assert main(["analyze"]) == 2
        assert "trace path or --shard-dir" in capsys.readouterr().err

    def test_analyze_rejects_trace_plus_shard_dir(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        store = tmp_path / "s"
        main(["shard", "build", str(trace), "-o", str(store)])
        assert main(["analyze", str(trace), "--shard-dir", str(store)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_shard_dir_rejects_substrate_cache(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        store = tmp_path / "s"
        main(["shard", "build", str(trace), "-o", str(store)])
        assert main(["analyze", "--shard-dir", str(store),
                     "--substrate-cache", str(tmp_path / "c.sub")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_analyze_rejects_non_store_dir(self, tmp_path, capsys):
        assert main(["analyze", "--shard-dir", str(tmp_path)]) == 2
        assert "not a shard store" in capsys.readouterr().err

    def test_report_shard_dir_builds_then_reuses(self, tmp_path, capsys):
        store = tmp_path / "s"
        assert main(["report", "--workload", "tiny", "--seed", "3",
                     "-o", str(tmp_path / "r.md"),
                     "--shard-dir", str(store)]) == 0
        assert "built" in capsys.readouterr().out
        assert main(["report", "--workload", "tiny", "--seed", "3",
                     "-o", str(tmp_path / "r2.md"),
                     "--shard-dir", str(store)]) == 0
        assert "built" not in capsys.readouterr().out

    def test_analyze_shard_dir_trace_out(self, tmp_path, capsys):
        import json

        trace = self._trace(tmp_path)
        store = tmp_path / "s"
        out = tmp_path / "run.json"
        main(["shard", "build", str(trace), "-o", str(store),
              "--epochs-per-shard", "7"])
        assert main(["analyze", "--shard-dir", str(store), "--workers", "2",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())

        def names(span, acc):
            acc.add(span["name"])
            for child in span.get("children", []):
                names(child, acc)
            return acc

        assert {"analyze_shards", "fanout", "shard"} <= names(
            data["trace"], set()
        )
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["peak_rss_bytes"] > 0


class TestResultCacheCLI:
    def _store(self, tmp_path):
        trace = tmp_path / "trace.npz"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        store = tmp_path / "trace.shards"
        main(["shard", "build", str(trace), "-o", str(store),
              "--epochs-per-shard", "8"])
        return store

    def test_cold_then_warm_analyze(self, tmp_path, capsys):
        import json

        store = self._store(tmp_path)
        cache = tmp_path / "rc"
        capsys.readouterr()

        assert main(["analyze", "--shard-dir", str(store),
                     "--result-cache", str(cache),
                     "--trace-out", str(tmp_path / "cold.json")]) == 0
        cold_out = capsys.readouterr().out
        assert main(["analyze", "--shard-dir", str(store),
                     "--result-cache", str(cache),
                     "--trace-out", str(tmp_path / "warm.json")]) == 0
        warm_out = capsys.readouterr().out

        # identical analysis tables (only the trace-out line differs)
        table = lambda text: [l for l in text.splitlines()
                              if "wrote trace" not in l]
        assert table(cold_out) == table(warm_out)

        cold = json.loads((tmp_path / "cold.manifest.json").read_text())
        warm = json.loads((tmp_path / "warm.manifest.json").read_text())
        assert cold["metrics"]["counters"]["cache.miss"] == 3
        assert "cache.hit" not in cold["metrics"]["counters"]
        assert warm["metrics"]["counters"]["cache.hit"] == 3
        assert "cache.miss" not in warm["metrics"]["counters"]

    def test_result_cache_requires_shard_dir(self, tmp_path, capsys):
        trace = tmp_path / "trace.npz"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        assert main(["analyze", str(trace),
                     "--result-cache", str(tmp_path / "rc")]) == 2
        assert "requires --shard-dir" in capsys.readouterr().err
        assert main(["sweep", str(trace),
                     "--result-cache", str(tmp_path / "rc")]) == 2
        assert "requires --shard-dir" in capsys.readouterr().err
        assert main(["report", "--workload", "tiny", "--seed", "3",
                     "-o", str(tmp_path / "r.md"),
                     "--result-cache", str(tmp_path / "rc")]) == 2
        assert "requires --shard-dir" in capsys.readouterr().err

    def test_cache_info_and_prune(self, tmp_path, capsys):
        store = self._store(tmp_path)
        cache = tmp_path / "rc"
        main(["analyze", "--shard-dir", str(store),
              "--result-cache", str(cache)])
        capsys.readouterr()

        assert main(["cache", "info", str(cache)]) == 0
        info = capsys.readouterr().out
        assert "3 entries" in info

        assert main(["cache", "prune", str(cache), "--max-bytes", "0"]) == 0
        pruned = capsys.readouterr().out
        assert "evicted 3 entries" in pruned
        assert main(["cache", "info", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_prune_accepts_size_suffixes(self, tmp_path, capsys):
        cache = tmp_path / "rc"
        cache.mkdir()
        assert main(["cache", "prune", str(cache),
                     "--max-bytes", "1M"]) == 0
        assert "cap 1.0 MiB" in capsys.readouterr().out

    def test_cache_prune_rejects_bad_size(self, tmp_path):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["cache", "prune", str(tmp_path), "--max-bytes", "lots"])

    def test_shard_info_shows_bytes(self, tmp_path, capsys):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["shard", "info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Bytes" in out
        assert "on disk" in out
        assert "MiB" in out or "KiB" in out

    def test_sweep_shares_cache_across_runs(self, tmp_path, capsys):
        import json

        store = self._store(tmp_path)
        cache = tmp_path / "rc"
        main(["sweep", "--shard-dir", str(store),
              "--result-cache", str(cache),
              "--threshold-scales", "1.0"])
        capsys.readouterr()
        assert main(["sweep", "--shard-dir", str(store),
                     "--result-cache", str(cache),
                     "--threshold-scales", "1.0,2.0",
                     "--trace-out", str(tmp_path / "run.json")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        counters = manifest["metrics"]["counters"]
        assert counters["cache.hit"] == 3   # x1.0 entries reused
        assert counters["cache.miss"] == 3  # x2.0 computed fresh


class TestObsCli:
    """The obs command family and the --journal / --profile flags."""

    def _analyze(self, tmp_path, name="run.json", journal=None,
                 extra=()):
        trace = tmp_path / "trace.jsonl"
        if not trace.exists():
            main(["generate", "--workload", "tiny", "--seed", "3",
                  "-o", str(trace)])
        argv = ["analyze", str(trace), "--trace-out",
                str(tmp_path / name)]
        if journal is not None:
            argv += ["--journal", str(journal)]
        argv += list(extra)
        assert main(argv) == 0
        return tmp_path / name

    def test_journal_records_run(self, tmp_path, capsys):
        journal = tmp_path / "j"
        self._analyze(tmp_path, journal=journal)
        out = capsys.readouterr().out
        assert "journal: recorded r00001-" in out
        assert (journal / "journal.jsonl").exists()

    def test_obs_view(self, tmp_path, capsys):
        run = self._analyze(tmp_path)
        capsys.readouterr()
        assert main(["obs", "view", str(run)]) == 0
        out = capsys.readouterr().out
        assert "analyze_trace" in out
        assert "Critical path" in out or "critical path" in out

    def test_obs_view_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["obs", "view", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_obs_diff_identical_runs_all_neutral(self, tmp_path, capsys):
        a = self._analyze(tmp_path, "a.json")
        b = self._analyze(tmp_path, "b.json")
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

    def test_obs_diff_fail_on_regression(self, tmp_path, capsys):
        import json

        slow = {"trace": {"name": "analyze", "duration_s": 9.0,
                          "attrs": {},
                          "children": [{"name": "epochs",
                                        "duration_s": 8.0, "attrs": {},
                                        "children": []}]}}
        fast = json.loads(json.dumps(slow))
        fast["trace"]["duration_s"] = 1.0
        fast["trace"]["children"][0]["duration_s"] = 0.5
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(fast))
        b.write_text(json.dumps(slow))
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert main(["obs", "diff", str(a), str(b),
                     "--fail-on-regression"]) == 3
        out = capsys.readouterr().out
        assert "regressed" in out

    def test_obs_diff_against_baseline(self, tmp_path, capsys):
        journal = tmp_path / "j"
        self._analyze(tmp_path, "a.json", journal=journal)
        self._analyze(tmp_path, "b.json", journal=journal)
        capsys.readouterr()
        assert main(["obs", "diff", "latest", "--baseline", "1",
                     "--journal", str(journal)]) == 0
        assert "baseline[1]" in capsys.readouterr().out

    def test_obs_journal_list_show_trend(self, tmp_path, capsys):
        journal = tmp_path / "j"
        self._analyze(tmp_path, "a.json", journal=journal)
        self._analyze(tmp_path, "b.json", journal=journal)
        capsys.readouterr()

        assert main(["obs", "journal", "list",
                     "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "r00001-" in out and "r00002-" in out

        assert main(["obs", "journal", "show", "latest",
                     "--journal", str(journal)]) == 0
        import json

        record = json.loads(capsys.readouterr().out)
        assert record["run_id"].startswith("r00002-")

        assert main(["obs", "journal", "trend", "--command", "analyze",
                     "--journal", str(journal)]) == 0
        assert "r00002-" in capsys.readouterr().out

    def test_obs_journal_unknown_run_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "j"
        self._analyze(tmp_path, journal=journal)
        assert main(["obs", "journal", "show", "r99999",
                     "--journal", str(journal)]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_writes_flamegraph(self, tmp_path, capsys):
        from repro.obs.profile import profiler_available, read_collapsed

        if not profiler_available():
            pytest.skip("no SIGPROF on this platform")
        run = self._analyze(tmp_path, extra=["--profile", "400"])
        out = capsys.readouterr().out
        flame = tmp_path / "run.flame.txt"
        assert flame.exists()
        assert "wrote profile to" in out
        read_collapsed(flame)  # parses cleanly (may be empty on tiny)

        capsys.readouterr()
        assert main(["obs", "flame", str(flame)]) == 0

    def test_profile_requires_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["generate", "--workload", "tiny", "-o", str(trace)])
        capsys.readouterr()
        assert main(["analyze", str(trace), "--profile"]) == 2
        assert "--trace-out" in capsys.readouterr().err
        assert main(["analyze", str(trace), "--profile", "0",
                     "--trace-out", str(tmp_path / "r.json")]) == 2

    def test_obs_export_prom(self, tmp_path, capsys):
        run = self._analyze(tmp_path)
        capsys.readouterr()
        assert main(["obs", "export-prom", str(run)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_pipeline_runs counter" in out
        assert "repro_ingest_rows" in out

    def test_cache_prune_trace_out(self, tmp_path, capsys):
        import json

        cache = tmp_path / "rc"
        cache.mkdir()
        out = tmp_path / "prune.json"
        assert main(["cache", "prune", str(cache), "--max-bytes", "1",
                     "--trace-out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["trace"]["name"] == "cache"
        manifest = json.loads(
            (tmp_path / "prune.manifest.json").read_text()
        )
        assert manifest["command"] == "cache"

    def test_shard_build_timings(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["generate", "--workload", "tiny", "--seed", "3",
              "-o", str(trace)])
        capsys.readouterr()
        assert main(["shard", "build", str(trace),
                     "-o", str(tmp_path / "store"), "--timings"]) == 0
        assert "shard" in capsys.readouterr().out
