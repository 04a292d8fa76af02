"""Tests of the end-to-end benchmark's harness (not of the program).

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from harness import (
    BENCH_DIR,
    E2E_METRICS,
    PER_LAYER_METRICS,
    RESULTS_DIR,
    ROOT,
    analysis_rows,
    detector_rows,
    exceeds_bound,
    fingerprint,
    rows_mismatch,
    tail_percentile,
    worsening,
)
from run import RUN_SECONDS, WORKLOAD_NAMES
from tracing import PATCH_POINTS, patched, resolve, self_times, span_name
from workloads import WORKLOADS


# -- percentile rule ------------------------------------------------------
@pytest.mark.parametrize(
    "n, percentile",
    [(72, 85.0), (100, 90.0), (20, 50.0), (200, 95.0), (2000, 99.0), (11, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = [float(i) for i in range(1, n + 1)]
    tail = tail_percentile(samples)
    if percentile is None:
        assert tail is None
        return
    p, value = tail
    assert p == percentile
    assert sum(s > value for s in samples) >= 10


def test_tail_value_is_nearest_rank():
    samples = list(np.random.default_rng(3).permutation(72).astype(float))
    p, value = tail_percentile(samples)
    assert (p, value) == (85.0, 61.0)  # rank ceil(0.85 * 72) = 62


# -- digests --------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_prefix():
    """Four epochs of the tiny trace: the batch analysis and the online
    detectors' view of the same sessions."""
    from repro.core import online, pipeline
    from repro.core.epoching import EpochGrid, split_into_epochs
    from repro.core.metrics import ALL_METRICS
    from repro.trace import StandardWorkloads, generate_trace

    trace = generate_trace(StandardWorkloads.tiny(seed=5))
    _, per_epoch = split_into_epochs(trace.table, trace.grid)
    n = 4
    prefix = trace.table.select(np.sort(np.concatenate(per_epoch[:n])))
    grid = EpochGrid(origin=trace.grid.origin, n_epochs=n)
    batch = pipeline.analyze_trace(prefix, grid=grid, workers=0)
    detectors = [online.OnlineDetector(m) for m in ALL_METRICS]
    for rows in per_epoch[:n]:
        chunk = trace.table.select(rows)
        for detector in detectors:
            detector.observe_epoch(chunk)
    return batch, detectors


def test_online_and_batch_digests_agree(tiny_prefix):
    batch, detectors = tiny_prefix
    expected, got = analysis_rows(batch), detector_rows(detectors)
    assert rows_mismatch(expected, got) is None
    assert fingerprint(expected) == fingerprint(got)
    assert any(row[4] for row in expected), "no critical cluster to compare"


def test_digest_detects_a_changed_answer(tiny_prefix):
    batch, _ = tiny_prefix
    rows = analysis_rows(batch)
    i = next(i for i, row in enumerate(rows) if row[4])
    dropped = list(rows)
    dropped[i] = rows[i][:4] + (rows[i][4][1:],)
    recounted = list(rows)
    recounted[i] = rows[i][:3] + (rows[i][3] + 1,) + rows[i][4:]
    for changed in (dropped, recounted, rows[1:]):
        assert rows_mismatch(rows, changed) is not None
        assert fingerprint(rows) != fingerprint(changed)
    assert f"epoch {rows[i][1]}" in rows_mismatch(rows, dropped)


# -- bound check ------------------------------------------------------------
def test_bound_check_is_relative_and_directional():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert exceeds_bound(100.0, 111.0, "lower", 0.10)
    assert not exceeds_bound(100.0, 109.0, "lower", 0.10)
    assert exceeds_bound(100.0, 89.0, "higher", 0.10)
    assert not exceeds_bound(100.0, 200.0, "higher", 0.10)
    with pytest.raises(ValueError):
        worsening(1.0, 2.0, "smaller")


# -- tracing -----------------------------------------------------------------
def test_patch_and_restore_leaves_every_entry_point_identical():
    from repro.obs import Tracer, use_tracer

    originals = [resolve(m, p) for m, p in PATCH_POINTS]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in originals]
    tracer = Tracer("test")
    with use_tracer(tracer), patched():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    with pytest.raises(RuntimeError), patched():
        raise RuntimeError("a failing round must still restore")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_patched_entry_points_record_spans():
    from repro.obs import Tracer, use_tracer
    from repro.trace import StandardWorkloads, generator

    tracer = Tracer("test")
    with use_tracer(tracer), patched():
        generator.generate_trace(StandardWorkloads.tiny(seed=1))
    (span,) = tracer.find(span_name("generate_trace"))
    assert {c.name for c in span.children} >= {"generate.world", "generate.qoe"}


def test_self_times_sum_to_wall_and_skip_worker_records():
    from repro.obs import Span

    def span(name, duration, *children):
        s = Span(name)
        s.duration_s = duration
        s.children = list(children)
        return s

    root = span(
        "round", 10.0,
        span(span_name("analyze_shards"), 6.0,
             span("fanout", 4.0, span("shard", 7.5)),  # worker time, off wall
             span("cache.probe", 1.0)),
        span("index.build", 2.0, span("helper", 0.5)),  # unlisted: inherits
    )
    layers = self_times(root)
    assert layers == pytest.approx(
        {"unattributed": 2.0, "shards": 1.0, "fanout": 4.0, "cache": 1.0, "index": 2.0}
    )
    assert sum(layers.values()) == pytest.approx(root.duration_s)


# -- names and sources ---------------------------------------------------------
def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert spec["run_seconds"] == RUN_SECONDS
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("filename", ["baseline.json", "baseline_traced.json", "latest.json"])
def test_result_files_report_exactly_the_benchmark_metrics(filename):
    path = RESULTS_DIR / filename
    if not path.exists():
        pytest.skip(f"no {filename} yet")
    spec = _spec()
    record = json.loads(path.read_text(encoding="utf-8"))
    for workload, result in record["workloads"].items():
        kind = "per_layer" if result["trace"] else "end_to_end"
        assert set(result["metrics"]) == {m["name"] for m in spec[kind]}, workload


BANNED = ("engine=", "transport=", "sim=", "repro.core.shm", "EpochLeafIndex")


def test_harness_uses_only_apis_that_stay():
    sources = [p for p in BENCH_DIR.glob("*.py") if p.name != "test_harness.py"]
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for name in BANNED:
            assert name not in text, f"{path.name} uses {name}"


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mech"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "error" in proc.stderr
