"""The observability subsystem: spans, metrics, sinks, degradations."""

import json
import logging

import pytest

from repro.obs import (
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Tracer,
    current_metrics,
    current_tracer,
    degradation_reasons,
    manifest_path_for,
    peak_rss_bytes,
    record_degradation,
    render_tree,
    use_metrics,
    use_tracer,
    write_run_manifest,
    write_trace_json,
)


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer", kind="x"):
            with tracer.span("inner") as inner:
                inner.set(rows=5)
        root = tracer.finish()
        assert [c.name for c in root.children] == ["outer"]
        outer = root.children[0]
        assert outer.attrs["kind"] == "x"
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].attrs["rows"] == 5
        assert root.duration_s >= outer.duration_s >= 0.0

    def test_exception_annotates_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span = tracer.find("doomed")[0]
        assert span.attrs["error"] == "RuntimeError: boom"

    def test_record_and_event(self):
        tracer = Tracer()
        tracer.record("worker", duration_s=1.5, pid=42)
        tracer.event("degraded", kind="k", reason="r")
        assert tracer.find("worker")[0].duration_s == 1.5
        assert tracer.find("degraded")[0].attrs["kind"] == "k"

    def test_as_dict_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("phase", bytes=1024):
            pass
        data = json.loads(json.dumps(tracer.as_dict()))
        assert data["children"][0]["name"] == "phase"
        assert data["children"][0]["attrs"]["bytes"] == 1024

    def test_render_is_indented_tree(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        text = render_tree(tracer.as_dict())
        lines = text.splitlines()
        assert any(line.lstrip().startswith("a") for line in lines)
        assert any(line.startswith("    b") for line in lines)

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("x", attr=1) as span:
            span.set(more=2)
        tracer.event("e")
        tracer.record("r", duration_s=9.0)
        assert tracer.find("x") == []
        assert not tracer.enabled


class TestMetrics:
    def test_counters_gauges_histograms(self):
        m = MetricsRegistry()
        m.inc("hits")
        m.inc("hits", 2)
        m.gauge("size", 7.5)
        m.observe("latency", 1.0)
        m.observe("latency", 3.0)
        data = m.as_dict()
        assert data["counters"]["hits"] == 3
        assert data["gauges"]["size"] == 7.5
        hist = data["histograms"]["latency"]
        assert hist["count"] == 2
        assert hist["min"] == 1.0 and hist["max"] == 3.0

    def test_null_metrics_is_inert(self):
        m = NullMetrics()
        m.inc("x")
        m.gauge("y", 1.0)
        m.observe("z", 2.0)
        assert not m.enabled


class TestInstallation:
    def test_use_tracer_restores_previous(self):
        before = current_tracer()
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_use_metrics_restores_on_error(self):
        before = current_metrics()
        with pytest.raises(RuntimeError):
            with use_metrics(MetricsRegistry()):
                raise RuntimeError
        assert current_metrics() is before

    def test_record_degradation_reaches_all_sinks(self, caplog):
        tracer, metrics = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                record_degradation("parallel_to_serial", "because reasons")
        assert "because reasons" in caplog.text
        assert metrics.get("degraded.parallel_to_serial") == 1
        reasons = degradation_reasons(tracer)
        assert reasons == [
            {"kind": "parallel_to_serial", "reason": "because reasons"}
        ]

    def test_record_degradation_without_collectors_only_logs(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            record_degradation("parallel_to_serial", "quietly degraded")
        assert "quietly degraded" in caplog.text


class TestSinks:
    def test_write_trace_json(self, tmp_path):
        tracer, metrics = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            with tracer.span("work"):
                metrics.inc("things", 3)
        path = write_trace_json(tmp_path / "trace.json", tracer, metrics)
        data = json.loads(path.read_text())
        assert data["trace"]["children"][0]["name"] == "work"
        assert data["metrics"]["counters"]["things"] == 3

    def test_write_run_manifest(self, tmp_path):
        tracer, metrics = Tracer(), MetricsRegistry()
        with use_tracer(tracer):
            with tracer.span("work"):
                record_degradation("snapshot_rebuild", "corrupt")
        path = write_run_manifest(
            tmp_path / "run.manifest.json",
            command="analyze",
            argv=["analyze", "t.jsonl"],
            tracer=tracer,
            metrics=metrics,
            args={"workers": 2},
            outputs=["trace.json"],
            exit_code=0,
        )
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "analyze"
        assert manifest["exit_code"] == 0
        assert manifest["peak_rss_bytes"] == pytest.approx(
            peak_rss_bytes(), rel=0.5
        )
        assert manifest["args"]["workers"] == 2
        assert manifest["degradations"][0]["kind"] == "snapshot_rebuild"
        assert "work" in manifest["span_names"]
        assert manifest["duration_s"] >= 0.0

    def test_manifest_path_for(self):
        assert (
            manifest_path_for("out/trace.json").name == "trace.manifest.json"
        )

    def test_peak_rss_bytes_is_plausible(self):
        peak = peak_rss_bytes()
        # rusage is always available on the POSIX platforms we test on;
        # a Python process comfortably exceeds 1 MB and a high-water
        # mark can only grow.
        assert peak is not None
        assert peak > 1_000_000
        assert peak_rss_bytes() >= peak


class TestHistogramQuantiles:
    def test_as_dict_carries_quantile_keys(self):
        m = MetricsRegistry()
        for v in range(1, 101):
            m.observe("latency", float(v))
        hist = m.as_dict()["histograms"]["latency"]
        assert set(hist) >= {"p50", "p95", "p99", "count", "sum", "min",
                             "max", "mean"}
        # 100 uniform values fit the reservoir whole: exact quantiles.
        assert hist["p50"] == pytest.approx(50.5)
        assert hist["p95"] == pytest.approx(95.05)
        assert hist["p99"] == pytest.approx(99.01)

    def test_quantiles_deterministic_across_registries(self):
        # Vitter's reservoir is seeded from the histogram name, so two
        # runs observing the same 10k-value series (more than the
        # reservoir holds) report identical estimates — no diff flap.
        def run():
            m = MetricsRegistry()
            for i in range(10_000):
                m.observe("epoch.seconds", float(i % 997))
            return m.as_dict()["histograms"]["epoch.seconds"]

        assert run() == run()

    def test_different_names_seed_differently(self):
        m = MetricsRegistry()
        for i in range(10_000):
            m.observe("a", float(i % 997))
            m.observe("b", float(i % 997))
        hists = m.as_dict()["histograms"]
        # Same series, different reservoirs (seeded per name).
        assert hists["a"] != hists["b"]

    def test_quantile_validation_and_empty(self):
        from repro.obs.metrics import HistogramSummary

        hist = HistogramSummary()
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(-0.1)

    def test_render_histograms(self):
        from repro.obs.metrics import render_histograms

        m = MetricsRegistry()
        assert render_histograms(m) == ""
        for v in (1.0, 2.0, 3.0):
            m.observe("queue.wait", v)
        text = render_histograms(m)
        assert "queue.wait" in text
        assert "p95" in text and "count" in text


class TestAtomicWrites:
    def test_trace_write_is_atomic_under_failure(self, tmp_path,
                                                 monkeypatch):
        import os

        import repro.obs.sinks as sinks

        target = tmp_path / "trace.json"
        target.write_text('{"trace": {"name": "old"}}')

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", exploding_replace)
        tracer = Tracer()
        with pytest.raises(OSError):
            write_trace_json(target, tracer)
        # Old content intact, no tmp litter.
        assert json.loads(target.read_text())["trace"]["name"] == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_no_tmp_left_after_success(self, tmp_path):
        tracer = Tracer()
        write_trace_json(tmp_path / "trace.json", tracer)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
