"""Bench: core pipeline components (not a paper artifact).

Times the three core stages on one representative epoch of the week
trace — per-epoch aggregation, problem-cluster detection, and the
critical-cluster phase-transition search — plus a full single-metric
day of pipeline. These are the costs that dominate every experiment.

``bench_pipeline_json`` additionally records a serial day of the full
pipeline (sessions/sec, per-phase timings) and the sections listed in
its docstring to ``benchmarks/results/BENCH_pipeline.json``, and is
the one place the bench's speed and memory gates are evaluated.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from repro.core.critical import find_critical_clusters
from repro.core.epoching import split_into_epochs
from repro.core.index import TraceClusterIndex
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE, MetricThresholds
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.problems import find_problem_clusters
from repro.core.substrate import AnalysisSubstrate, analyze_sweep, epoch_floor
from repro.io.snapshot import load_substrate, save_substrate
from repro.obs import MetricsRegistry, use_metrics


@pytest.fixture(scope="module")
def epoch_inputs(week_context):
    table = week_context.trace.table
    grid, per_epoch = split_into_epochs(table, week_context.analysis.grid)
    rows = max(per_epoch, key=len)  # busiest epoch
    return table, rows


@pytest.fixture(scope="module")
def build_view(epoch_inputs):
    """A function building the busiest epoch's view as ``analyze_trace``
    does: from the trace index (metric masks warm), at the smallest
    session floor the default config resolves to over the four
    metrics."""
    table, rows = epoch_inputs
    index = TraceClusterIndex.build(table)
    index.warm_metric_masks(ALL_METRICS)
    config = AnalysisConfig()
    served = [(config.problem_config, metric) for metric in ALL_METRICS]

    def view():
        return index.epoch_view(rows, floor=epoch_floor(index, rows, served))

    return view


def bench_epoch_aggregation(benchmark, epoch_inputs, build_view):
    """One metric's aggregate of the busiest epoch, view included."""
    agg = benchmark(lambda: build_view().aggregate(JOIN_FAILURE))
    assert agg.total_sessions == len(epoch_inputs[1])


def bench_problem_cluster_detection(benchmark, build_view):
    agg = build_view().aggregate(JOIN_FAILURE)
    problems = benchmark(find_problem_clusters, agg)
    assert problems.n_clusters >= 0


def bench_critical_cluster_search(benchmark, build_view):
    agg = build_view().aggregate(JOIN_FAILURE)
    problems = find_problem_clusters(agg)
    critical = benchmark(find_critical_clusters, problems)
    assert critical.coverage <= problems.coverage + 1e-9


def bench_full_pipeline_one_day(benchmark, week_context):
    table = week_context.trace.table
    day = table.select(np.nonzero(table.start_time < 24 * 3600.0)[0])
    config = AnalysisConfig(metrics=(JOIN_FAILURE,))
    analysis = benchmark.pedantic(
        analyze_trace, args=(day,), kwargs={"config": config},
        rounds=1, iterations=1,
    )
    assert analysis.grid.n_epochs == 24


def bench_indexed_epoch_view(benchmark, build_view):
    """Epoch view + four metric aggregations through a prebuilt
    trace-global index (the engine's steady-state per-epoch cost). The
    view is the iceberg ``analyze_trace`` builds."""

    def indexed():
        view = build_view()
        return [view.aggregate(metric) for metric in ALL_METRICS]

    aggs = benchmark(indexed)
    assert len(aggs) == len(ALL_METRICS)


def bench_pipeline_json(week_context, results_dir):
    """End-to-end pipeline sections, recorded to BENCH_pipeline.json.

    Not a microbench: one timed serial pass (``workers=0``) over a day
    of the week trace, all four metrics, with the per-phase counters
    the instrumented pipeline collects. Further sections:

    * ``sweep`` — a 5-config threshold sweep over the same day, timed
      as five independent ``analyze_trace`` calls vs one
      ``analyze_sweep`` (same configs, bit-identical outputs asserted).
      The sweep builds the packed table / cluster index / epoch views
      once instead of five times, so its speedup is CPU-count
      independent.
    * ``snapshot`` — mmap-loading a substrate snapshot of the full
      trace and indexing it (the snapshot holds the table alone) vs a
      cold pack+index build from the in-memory table.
    * ``sharding`` — the out-of-core engine: monolithic
      ``analyze_trace`` vs ``analyze_shards`` over a day-per-shard
      store, each measured in its own **subprocess** so each peak is
      that process's own. Records parent peak RSS, wall and analyze
      times, and asserts identical result fingerprints.
    * ``result_cache`` — the memoized per-shard path: cold vs warm
      re-analysis of the same store (warm is pure load+merge) and an
      append-one-period rebuild via ``ShardStoreBuilder`` whose
      ``cache.miss`` count must equal the number of genuinely new
      shards (asserted at every workload — content-addressed
      invalidation is a correctness property).

    Deterministic checks (identical outputs, cache hit and miss counts)
    assert inline. The speed and memory gates are one table, evaluated
    after every section has run: each verdict is written into the
    payload, the payload is written, and only then does the bench fail,
    naming every armed gate that did not pass. The week workload arms
    every gate; the wall-clock shard gate also needs >= 4 CPUs.
    """
    workload = os.environ.get("REPRO_BENCH_WORKLOAD", "week")
    week = workload == "week"  # the acceptance workload; tiny smoke only records
    table = week_context.trace.table
    day = table.select(np.nonzero(table.start_time < 24 * 3600.0)[0])
    n_cpus = os.cpu_count() or 1
    gates = []  # (name, value, op, threshold, armed)

    start = time.perf_counter()
    serial = analyze_trace(day, workers=0)
    serial_s = time.perf_counter() - start

    # --- sweep amortization: N configs through one substrate ----------
    scales = (0.25, 0.5, 1.0, 2.0, 4.0)
    configs = [
        dataclasses.replace(
            AnalysisConfig(), thresholds=MetricThresholds().scaled(s)
        )
        for s in scales
    ]
    # Two timed repetitions per side, keeping the faster: on a busy
    # 1-CPU box a single run absorbs scheduler noise of the same order
    # as the gap being measured.
    independent_s = math.inf
    for _ in range(2):
        start = time.perf_counter()
        independent = [analyze_trace(day, config=config) for config in configs]
        independent_s = min(independent_s, time.perf_counter() - start)

    sweep_s = math.inf
    for _ in range(2):
        start = time.perf_counter()
        swept = analyze_sweep(day, configs)
        sweep_s = min(sweep_s, time.perf_counter() - start)

    for scale, ref, got in zip(scales, independent, swept):
        for name in ref.metric_names:
            assert ref[name].epochs == got[name].epochs, (scale, name)
    sweep_speedup = independent_s / sweep_s
    gates.append(("sweep_speedup_min_2", sweep_speedup, ">=", 2.0, week))

    # --- snapshot load + index build vs cold pack+index build ---------
    cold_build_s = math.inf
    for _ in range(2):
        start = time.perf_counter()
        substrate = AnalysisSubstrate.build(table)
        cold_build_s = min(cold_build_s, time.perf_counter() - start)
    snapshot_path = results_dir / "BENCH_substrate.sub.tmp"
    try:
        save_substrate(substrate, snapshot_path)
        snapshot_bytes = snapshot_path.stat().st_size
        load_s = math.inf
        for _ in range(3):
            start = time.perf_counter()
            loaded = load_substrate(snapshot_path)
            loaded.index  # the first read builds it: what a user waits for
            load_s = min(load_s, time.perf_counter() - start)
        assert len(loaded.table) == len(table)
    finally:
        snapshot_path.unlink(missing_ok=True)
    snapshot_speedup = cold_build_s / load_s
    gates.append(("snapshot_load_min_5", snapshot_speedup, ">=", 5.0, week))

    # --- sharding: out-of-core map/merge vs monolithic ----------------
    # Each side runs in its own subprocess and reports its own peak
    # (repro.obs.peak_rss_bytes reads VmHWM, which exec resets). The
    # shard child always uses a >= 2 worker pool — worker *processes*,
    # not CPUs, are what keep shard tables out of the parent — so the
    # bounded-parent-memory claim is measurable even on a 1-CPU box;
    # only the wall-clock gate needs real cores.
    import subprocess
    import sys

    from repro.core.shards import build_shard_store
    from repro.io.binary import write_sessions_npz

    child_script = """
import hashlib, json, sys, time
from repro.obs import peak_rss_bytes
mode, path, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
start = time.perf_counter()
if mode == "mono":
    from repro.core.pipeline import analyze_trace
    from repro.io.binary import read_sessions_npz
    table = read_sessions_npz(path)
    t0 = time.perf_counter()
    analysis = analyze_trace(table, workers=0)
else:
    from repro.core.shards import ShardStore, analyze_shards
    store = ShardStore.open(path)
    t0 = time.perf_counter()
    analysis = analyze_shards(store, workers=workers)
analyze_s = time.perf_counter() - t0
h = hashlib.sha256()
for name in analysis.metric_names:
    ma = analysis[name]
    h.update(ma.problem_ratio_series.tobytes())
    for e in ma.epochs:
        h.update(repr((e.epoch,
                       sorted(k.label() for k in e.problem_clusters),
                       sorted(k.label() for k in e.critical_clusters),
                       e.total_sessions)).encode())
print(json.dumps({
    "wall_seconds": time.perf_counter() - start,
    "analyze_seconds": analyze_s,
    "peak_rss_bytes": peak_rss_bytes(),
    "fingerprint": h.hexdigest(),
}))
"""

    def run_child(mode: str, path, workers: int) -> dict:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(src, "src"),
                        env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", child_script, mode, str(path), str(workers)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.splitlines()[-1])

    trace_path = results_dir / "BENCH_shard_trace.tmp.npz"
    store_path = results_dir / "BENCH_shard_store.tmp"
    try:
        write_sessions_npz(table, trace_path, compress=False)
        start = time.perf_counter()
        shard_store = build_shard_store(
            table, store_path, epochs_per_shard=24,
            grid=week_context.analysis.grid,
        )
        store_build_s = time.perf_counter() - start
        n_shards = len(shard_store.shards)
        shard_workers = max(2, min(n_shards, n_cpus))

        mono = run_child("mono", trace_path, 0)
        sharded = run_child("shard", store_path, shard_workers)
        assert mono["fingerprint"] == sharded["fingerprint"]

        peak_ratio = sharded["peak_rss_bytes"] / mono["peak_rss_bytes"]
        analyze_speedup = mono["analyze_seconds"] / sharded["analyze_seconds"]
        gates.append(
            ("shard_parent_peak_rss_max_0.5", peak_ratio, "<=", 0.5, week)
        )
        gates.append(("shard_analyze_speedup_min_1.3", analyze_speedup,
                      ">=", 1.3, week and n_cpus >= 4))

        sharding = {
            "workload": f"{workload} (full trace)",
            "sessions": len(table),
            "shards": n_shards,
            "epochs_per_shard": 24,
            "shard_workers": shard_workers,
            "store_build_seconds": store_build_s,
            "store_bytes": sum(
                f.stat().st_size for f in store_path.iterdir()
            ),
            "monolithic": mono,
            "sharded": sharded,
            "parent_peak_rss_ratio": peak_ratio,
            "analyze_speedup_vs_indexed": analyze_speedup,
            "identical_outputs": True,
            "comparison_note": (
                "speedup meaningful: ran on >= 4 CPUs"
                if n_cpus >= 4
                else f"speedup NOT gated: {n_cpus} CPU(s) — the "
                "wall-clock column measures pool overhead, not "
                "parallelism; the peak-RSS column is CPU-independent"
            ),
        }
    finally:
        trace_path.unlink(missing_ok=True)
        if store_path.is_dir():
            for f in store_path.iterdir():
                f.unlink()
            store_path.rmdir()

    # --- result cache: memoized per-shard partials --------------------
    # The daily-monitoring story: analyze a store once (cold, populates
    # the cache), re-analyze it warm (pure load+merge), then rebuild the
    # store with one extra period of sessions appended via
    # ShardStoreBuilder and confirm the warm run recomputes ONLY the new
    # shard (cache.miss == new shards, asserted at every workload — it
    # is a correctness property of content addressing, not a perf
    # number).
    import shutil

    from repro.core.resultcache import ResultCache
    from repro.core.shards import ShardStoreBuilder, analyze_shards

    n_epochs_total = week_context.analysis.grid.n_epochs
    period_epochs = max(1, math.ceil(n_epochs_total / 7))
    epoch_seconds = week_context.analysis.grid.epoch_seconds
    origin = week_context.analysis.grid.origin
    epoch_index = np.floor(
        (table.start_time - origin) / epoch_seconds
    ).astype(np.int64)
    period_chunks = []
    for p in range(math.ceil(n_epochs_total / period_epochs)):
        rows = np.nonzero(
            (epoch_index >= p * period_epochs)
            & (epoch_index < (p + 1) * period_epochs)
        )[0]
        if len(rows):
            period_chunks.append(table.select(rows))

    def build_periods(path, chunks):
        builder = ShardStoreBuilder(
            path, schema=table.schema, epoch_seconds=epoch_seconds,
            epochs_per_shard=period_epochs,
        )
        for chunk in chunks:
            builder.append(chunk)
        return builder.finalize()

    cache_dir = results_dir / "BENCH_result_cache.tmp"
    store_a_dir = results_dir / "BENCH_rc_store_a.tmp"
    store_b_dir = results_dir / "BENCH_rc_store_b.tmp"
    try:
        cache = ResultCache(cache_dir)
        store_a = build_periods(store_a_dir, period_chunks[:-1])
        config = AnalysisConfig()
        uncached = analyze_shards(store_a, config)

        cold_metrics = MetricsRegistry()
        with use_metrics(cold_metrics):
            start = time.perf_counter()
            cold = analyze_shards(store_a, config, result_cache=cache)
            cold_s = time.perf_counter() - start
        warm_metrics = MetricsRegistry()
        with use_metrics(warm_metrics):
            start = time.perf_counter()
            warm = analyze_shards(store_a, config, result_cache=cache)
            warm_s = time.perf_counter() - start
        for name in uncached.metric_names:
            assert uncached[name].epochs == cold[name].epochs, name
            assert uncached[name].epochs == warm[name].epochs, name
        assert cold_metrics.get("cache.miss") == len(store_a.shards)
        assert warm_metrics.get("cache.hit") == len(store_a.shards)
        assert warm_metrics.get("cache.miss") == 0
        warm_speedup = cold_s / warm_s
        gates.append(("cache_warm_speedup_min_5", warm_speedup, ">=", 5.0, week))

        # Append one more period (the "new day") into a fresh store:
        # identical chunk sequence for the shared prefix, so the shared
        # shards' bytes — and hence their cache keys — are unchanged.
        store_b = build_periods(store_b_dir, period_chunks)
        new_shards = len(store_b.shards) - len(store_a.shards)
        assert new_shards >= 1, "append produced no new shard"
        append_metrics = MetricsRegistry()
        with use_metrics(append_metrics):
            start = time.perf_counter()
            appended = analyze_shards(store_b, config, result_cache=cache)
            append_s = time.perf_counter() - start
        assert append_metrics.get("cache.miss") == new_shards, (
            append_metrics.get("cache.miss"), new_shards)
        assert append_metrics.get("cache.hit") == len(store_a.shards)
        uncached_b = analyze_shards(store_b, config)
        for name in uncached_b.metric_names:
            assert uncached_b[name].epochs == appended[name].epochs, name

        result_cache_section = {
            "workload": workload,
            "shards_initial": len(store_a.shards),
            "epochs_per_shard": period_epochs,
            "sessions": store_a.total_sessions,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "warm_speedup": warm_speedup,
            "cold_misses": cold_metrics.get("cache.miss"),
            "warm_hits": warm_metrics.get("cache.hit"),
            "cache_entries": cache.stats().entries,
            "cache_bytes": cache.stats().total_bytes,
            "append_one_day": {
                "shards_total": len(store_b.shards),
                "new_shards": new_shards,
                "cache_misses": append_metrics.get("cache.miss"),
                "cache_hits": append_metrics.get("cache.hit"),
                "analyze_seconds": append_s,
                "misses_equal_new_shards": True,
            },
            "identical_outputs": True,
        }
    finally:
        for path in (cache_dir, store_a_dir, store_b_dir):
            shutil.rmtree(path, ignore_errors=True)

    # ``passed``: the measured value meets the threshold. Only an armed
    # gate that did not pass fails the bench.
    verdicts = [
        {
            "name": name,
            "value": value,
            "op": op,
            "threshold": threshold,
            "armed": armed,
            "passed": value >= threshold if op == ">=" else value <= threshold,
        }
        for name, value, op, threshold, armed in gates
    ]
    payload = {
        "schema_version": 7,
        "generated_at_unix": time.time(),
        "generated_by": "benchmarks/bench_pipeline_core.py",
        "workload": f"{workload} (first 24 h)",
        "sessions": len(day),
        "epochs": serial.grid.n_epochs,
        "metrics": len(serial.metric_names),
        "cpus": n_cpus,
        "serial_seconds": serial_s,
        "serial_sessions_per_sec": len(day) / serial_s,
        "serial_phases": serial.timings.as_dict(),
        "sweep": {
            "configs": len(configs),
            "threshold_scales": list(scales),
            "independent_seconds": independent_s,
            "sweep_seconds": sweep_s,
            "sweep_speedup": sweep_speedup,
            "identical_outputs": True,
        },
        "snapshot": {
            "workload": f"{workload} (full trace)",
            "sessions": len(table),
            "cold_build_seconds": cold_build_s,
            "snapshot_load_seconds": load_s,
            "snapshot_load_speedup": snapshot_speedup,
            "snapshot_bytes": snapshot_bytes,
        },
        "sharding": sharding,
        "result_cache": result_cache_section,
        "gates": verdicts,
    }
    path = results_dir / "BENCH_pipeline.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {path}: "
          f"{payload['serial_sessions_per_sec']:.0f} sess/s serial")
    for v in verdicts:
        status = ("ok" if v["passed"] else "FAIL") if v["armed"] else "unarmed"
        print(f"  [{status:>7s}] {v['name']:<32s} {v['value']:10.4g} "
              f"{v['op']} {v['threshold']:g}")
    failed = [v["name"] for v in verdicts if v["armed"] and not v["passed"]]
    assert not failed, f"armed gates failed: {', '.join(failed)}"
