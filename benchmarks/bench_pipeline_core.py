"""Bench: core pipeline components (not a paper artifact).

Times the three core stages on one representative epoch of the week
trace — per-epoch aggregation, problem-cluster detection, and the
critical-cluster phase-transition search — plus a full single-metric
day of pipeline. These are the costs that dominate every experiment.

``bench_pipeline_json`` additionally records a serial day of the full
pipeline (sessions/sec, per-phase timings) and the sections listed in
its docstring to ``benchmarks/results/BENCH_pipeline.json`` so future
changes have a perf trajectory to compare against.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from repro.core.aggregation import KeyCodec, aggregate_epoch
from repro.core.critical import find_critical_clusters
from repro.core.epoching import split_into_epochs
from repro.core.index import TraceClusterIndex
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE, MetricThresholds
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.problems import find_problem_clusters
from repro.core.sessions import SessionTable
from repro.core.substrate import AnalysisSubstrate, StreamingSubstrate, analyze_sweep
from repro.io.snapshot import load_substrate, save_substrate
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer


@pytest.fixture(scope="module")
def epoch_inputs(week_context):
    table = week_context.trace.table
    grid, per_epoch = split_into_epochs(table, week_context.analysis.grid)
    rows = max(per_epoch, key=len)  # busiest epoch
    return table, rows


def bench_epoch_aggregation(benchmark, epoch_inputs):
    table, rows = epoch_inputs
    agg = benchmark(aggregate_epoch, table, rows, JOIN_FAILURE)
    assert agg.total_sessions == len(rows)


def bench_problem_cluster_detection(benchmark, epoch_inputs):
    table, rows = epoch_inputs
    agg = aggregate_epoch(table, rows, JOIN_FAILURE)
    problems = benchmark(find_problem_clusters, agg)
    assert problems.n_clusters >= 0


def bench_critical_cluster_search(benchmark, epoch_inputs):
    table, rows = epoch_inputs
    agg = aggregate_epoch(table, rows, JOIN_FAILURE)
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


def bench_indexed_epoch_view(benchmark, epoch_inputs):
    """Epoch view + four metric aggregations through a prebuilt
    trace-global index (the engine's steady-state per-epoch cost,
    directly comparable to ``bench_per_metric_packing``)."""
    table, rows = epoch_inputs
    index = TraceClusterIndex.build(table)
    index.warm_metric_masks(ALL_METRICS)

    def indexed():
        view = index.epoch_view(rows)
        return [view.aggregate(metric) for metric in ALL_METRICS]

    aggs = benchmark(indexed)
    assert len(aggs) == len(ALL_METRICS)


def bench_per_metric_packing(benchmark, epoch_inputs):
    """Per-metric pack/unique (the direct path the test reference
    uses), for direct comparison with ``bench_indexed_epoch_view``."""
    table, rows = epoch_inputs
    codec = KeyCodec.from_table(table)

    def per_metric():
        return [
            aggregate_epoch(table, rows, metric, codec=codec)
            for metric in ALL_METRICS
        ]

    aggs = benchmark(per_metric)
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
    * ``observability`` — instrumentation overhead of a live span
      tracer + metrics registry vs the no-op default: a paired
      end-to-end comparison (informational) plus a deterministic
      per-op bound (ops per run x measured per-op cost) gated below
      2 % on the week workload.
    * ``streaming`` — the online-detection cost model: per-epoch
      append+detect through one incrementally maintained
      ``StreamingSubstrate`` vs rebuilding the cluster index from
      scratch every epoch (identical per-epoch problem clusters
      asserted), and mmap-loading a substrate snapshot vs a cold
      pack+index build.
    * ``sharding`` — the out-of-core engine: monolithic
      ``analyze_trace`` vs ``analyze_shards`` over a day-per-shard
      store, each measured in its own **subprocess** (``ru_maxrss`` is
      a lifetime high-water mark, so peaks are only comparable across
      process boundaries). Records parent peak RSS, wall and analyze
      times, and asserts identical result fingerprints. The
      peak-memory gate (sharded parent <= 0.5x monolithic) runs on the
      week workload; the wall-clock gate (shard-parallel >= 1.3x
      faster than single-process) additionally needs >= 4 CPUs, and
      the payload says which gates were enforced.

    * ``mechanistic`` — the vectorized batch simulation engine: scalar
      vs batch wall time generating the ``mechanistic_day`` trace
      (``mechanistic_tiny`` on the smoke run), sessions/sec for each,
      bit-identity asserted at every workload, and the >= 10x batch
      speedup gated on the day workload (the tiny batch is
      setup-dominated, so its ratio is not the claim under test).

    * ``result_cache`` — the memoized per-shard path: cold vs warm
      re-analysis of the same store (warm is pure load+merge; gated
      >= 5x on the week workload) and an append-one-period rebuild via
      ``ShardStoreBuilder`` whose ``cache.miss`` count must equal the
      number of genuinely new shards (asserted at every workload —
      content-addressed invalidation is a correctness property).

    * ``profiling`` — the SIGPROF statistical sampler at 97 Hz over
      the serial day run: overhead via the deterministic
      samples x handler-cost bound (gated < 3 % on the week workload),
      the collapsed-stack flamegraph written to
      ``BENCH_profile.flame.txt``, and the hottest sampled stack
      asserted to be a real pipeline span.

    Finally the payload is ingested into a ``RunJournal`` under
    ``results/BENCH_journal`` and every gate above is re-evaluated
    **from the journal record alone** (``repro.obs.gate``); the run
    fails if the journal verdicts disagree with the inline asserts.
    """
    workload = os.environ.get("REPRO_BENCH_WORKLOAD", "week")
    table = week_context.trace.table
    day = table.select(np.nonzero(table.start_time < 24 * 3600.0)[0])
    n_cpus = os.cpu_count() or 1

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
    if workload == "week":  # the acceptance workload; tiny smoke only records
        assert sweep_speedup >= 2.0, sweep_speedup

    # --- observability: live tracer+metrics vs the no-op default ------
    # Two views of the same question. (a) An interleaved paired
    # end-to-end comparison (min over pairs), recorded for the trend
    # line but NOT gated: scheduler noise on a shared box runs several
    # percent either way, far above the true cost. (b) The gated bound:
    # the pipeline emits a constant number of spans and counter bumps
    # per run (no per-session or per-row instrumentation), so its cost
    # is ops-per-run times the measured per-op cost — deterministic and
    # orders of magnitude below the 2 % budget.
    class _CountingMetrics(MetricsRegistry):
        inc_calls = 0

        def inc(self, name, value=1):
            self.inc_calls += 1
            super().inc(name, value)

    plain_s = math.inf
    traced_s = math.inf
    traced_spans = 0
    metric_ops = 0
    for _ in range(3):
        start = time.perf_counter()
        analyze_trace(day, workers=0)
        plain_s = min(plain_s, time.perf_counter() - start)

        tracer = Tracer(name="bench")
        counting = _CountingMetrics()
        with use_tracer(tracer), use_metrics(counting):
            start = time.perf_counter()
            analyze_trace(day, workers=0)
            traced_s = min(traced_s, time.perf_counter() - start)
        tracer.finish()
        traced_spans = sum(1 for _ in tracer.root.walk())
        metric_ops = counting.inc_calls

    probe = Tracer(name="probe")
    reps = 10_000
    with use_tracer(probe), use_metrics(MetricsRegistry()):
        start = time.perf_counter()
        for _ in range(reps):
            with probe.span("probe.op", k=1):
                pass
        span_cost_s = (time.perf_counter() - start) / reps
        registry = MetricsRegistry()
        start = time.perf_counter()
        for _ in range(reps):
            registry.inc("probe.counter")
        inc_cost_s = (time.perf_counter() - start) / reps
    probe.finish()

    instrumentation_s = traced_spans * span_cost_s + metric_ops * inc_cost_s
    obs_overhead_pct = 100.0 * instrumentation_s / plain_s
    if workload == "week":
        assert obs_overhead_pct < 2.0, (
            instrumentation_s,
            plain_s,
            traced_spans,
            metric_ops,
        )

    # --- streaming: amortized append+detect vs per-epoch rebuild ------
    # Full trace, not just the first day: the rebuild strawman's cost
    # grows with the prefix length, which is exactly the effect the
    # incremental index removes for a long-running online detector.
    _, per_epoch_rows = split_into_epochs(table, week_context.analysis.grid)
    epoch_chunks = [table.select(rows) for rows in per_epoch_rows]
    thresholds = MetricThresholds()

    def detect(view):
        agg = view.aggregate(JOIN_FAILURE, thresholds=thresholds)
        problems = find_problem_clusters(agg)
        find_critical_clusters(problems)
        return {m: rows.tolist() for m, rows in problems.problem_rows.items()}

    stream = StreamingSubstrate(
        schema=table.schema,
        epoch_seconds=week_context.analysis.grid.epoch_seconds,
    )
    stream.index.warm_metric_masks((JOIN_FAILURE,), thresholds)
    start = time.perf_counter()
    streamed_problems = []
    for epoch, chunk in enumerate(epoch_chunks):
        new_rows = stream.append(chunk)
        streamed_problems.append(
            detect(stream.epoch_view(new_rows, epoch=epoch))
        )
    streaming_s = time.perf_counter() - start

    prefix = SessionTable.empty(table.schema)
    start = time.perf_counter()
    rebuilt_problems = []
    for epoch, chunk in enumerate(epoch_chunks):
        new_rows = prefix.extend(chunk)
        rebuilt = TraceClusterIndex.build(prefix)
        rebuilt_problems.append(
            detect(rebuilt.epoch_view(new_rows, epoch=epoch))
        )
    rebuild_s = time.perf_counter() - start

    for epoch, (a, b) in enumerate(zip(streamed_problems, rebuilt_problems)):
        assert a == b, epoch
    append_detect_speedup = rebuild_s / streaming_s
    if workload == "week":
        # The ratio is hardware-sensitive: the rebuild strawman is
        # dominated by pack/unique throughput, which varies ~2x across
        # boxes (5.5x recorded on the original box, ~2.7-2.9x on a
        # slower-memory one). The floor pins the amortization win
        # itself, not a particular machine's constant.
        assert append_detect_speedup >= 2.0, append_detect_speedup

    # --- streaming: snapshot load vs cold pack+index build ------------
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
            load_s = min(load_s, time.perf_counter() - start)
        assert len(loaded.table) == len(table)
    finally:
        snapshot_path.unlink(missing_ok=True)
    snapshot_speedup = cold_build_s / load_s
    if workload == "week":
        assert snapshot_speedup >= 5.0, snapshot_speedup

    # --- sharding: out-of-core map/merge vs monolithic ----------------
    # Each side runs in its own subprocess: ru_maxrss is a lifetime
    # high-water mark, so in-process before/after comparisons would be
    # meaningless. The shard child always uses a >= 2 worker pool —
    # worker *processes*, not CPUs, are what keep shard tables out of
    # the parent — so the bounded-parent-memory claim is measurable
    # even on a 1-CPU box; only the wall-clock gate needs real cores.
    import subprocess
    import sys

    from repro.core.shards import build_shard_store
    from repro.io.binary import write_sessions_npz

    child_script = """
import hashlib, json, sys, time
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
# getrusage's ru_maxrss survives fork+exec on Linux, so a child of a
# fat bench process would report its parent's peak; VmHWM is reset at
# exec and measures only this process.
def peak_rss_bytes():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    from repro.obs import peak_rss_bytes as fallback
    return fallback()
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
        gate_memory = workload == "week"
        gate_wall = workload == "week" and n_cpus >= 4
        if gate_memory:
            assert peak_ratio <= 0.5, (
                sharded["peak_rss_bytes"], mono["peak_rss_bytes"])
        if gate_wall:
            assert analyze_speedup >= 1.3, analyze_speedup

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
            "gates_enforced": {
                "parent_peak_rss_ratio_max_0.5": gate_memory,
                "analyze_speedup_min_1.3": gate_wall,
            },
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

    # --- mechanistic engine: scalar loop vs lockstep batch kernel -----
    from bench_sim_batch import mechanistic_engine_section

    mechanistic = mechanistic_engine_section(workload)

    # --- result cache: memoized per-shard partials --------------------
    # The daily-monitoring story: analyze a store once (cold, populates
    # the cache), re-analyze it warm (pure load+merge; gated >= 5x on
    # the week workload), then rebuild the store with one extra period
    # of sessions appended via ShardStoreBuilder and confirm the warm
    # run recomputes ONLY the new shard (cache.miss == new shards,
    # asserted at every workload — it is a correctness property of
    # content addressing, not a perf number).
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
        if workload == "week":
            assert warm_speedup >= 5.0, (cold_s, warm_s)

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
            "gates_enforced": {
                "warm_speedup_min_5": workload == "week",
                "append_misses_equal_new_shards": True,
            },
        }
    finally:
        for path in (cache_dir, store_a_dir, store_b_dir):
            shutil.rmtree(path, ignore_errors=True)

    # --- profiling: SIGPROF sampler overhead + span attribution -------
    # The gated number is the same deterministic bound the
    # observability section uses: the sampler costs exactly
    # samples x handler_cost (the handler is an ordinary Python call
    # between bytecodes), so overhead = n_samples x measured per-sample
    # cost over the plain run — noise-free where the end-to-end delta
    # is not. The attribution assert pins the profiler's whole point:
    # the hottest stack must be a real pipeline span, not (no-span).
    from repro.obs.profile import NO_SPAN, SamplingProfiler, profiler_available

    profiling = {"available": profiler_available()}
    if profiler_available():
        prof_tracer = Tracer(name="bench.profile")
        profiler = SamplingProfiler(prof_tracer, hz=97)
        with use_tracer(prof_tracer), use_metrics(MetricsRegistry()):
            with profiler:
                start = time.perf_counter()
                analyze_trace(day, workers=0)
                profiled_s = time.perf_counter() - start
        prof_root = prof_tracer.finish()
        run_span_names = {s.name for s in prof_root.walk()}

        probe_tracer = Tracer(name="probe")
        probe_profiler = SamplingProfiler(probe_tracer, hz=97)
        reps = 10_000
        with probe_tracer.span("a"), probe_tracer.span("b"), \
                probe_tracer.span("c"):
            start = time.perf_counter()
            for _ in range(reps):
                probe_profiler._handle(None, None)
            handler_cost_s = (time.perf_counter() - start) / reps
        probe_tracer.finish()

        prof_overhead_pct = (
            100.0 * profiler.n_samples * handler_cost_s / plain_s
        )
        if workload == "week":
            assert prof_overhead_pct < 3.0, (
                profiler.n_samples, handler_cost_s, plain_s)

        top = profiler.top_stack()
        if profiler.n_samples >= 10:  # tiny smoke may catch few ticks
            assert top is not None
            assert top[0][-1] != NO_SPAN, top
            assert top[0][-1] in run_span_names, (top, run_span_names)

        flame_path = results_dir / "BENCH_profile.flame.txt"
        profiler.write_collapsed(flame_path)

        profiling = {
            "available": True,
            "hz": 97,
            "workers": 0,
            "plain_seconds": plain_s,
            "profiled_seconds": profiled_s,
            "end_to_end_delta_pct": 100.0 * (profiled_s / plain_s - 1.0),
            "samples": profiler.n_samples,
            "unique_stacks": len(profiler.samples),
            "handler_cost_seconds": handler_cost_s,
            "overhead_pct": prof_overhead_pct,
            "top_stack": ";".join(top[0]) if top else None,
            "top_stack_samples": top[1] if top else 0,
            "flamegraph": flame_path.name,
            "gates_enforced": {"overhead_max_3pct": workload == "week"},
        }

    payload = {
        "schema_version": 5,
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
        "observability": {
            "workers": 0,
            "plain_seconds": plain_s,
            "traced_seconds": traced_s,
            "end_to_end_delta_pct": 100.0 * (traced_s / plain_s - 1.0),
            "end_to_end_note": (
                "paired interleaved min-of-3; scheduler noise on a "
                "shared box exceeds the true instrumentation cost, so "
                "the gate uses the per-op bound below"
            ),
            "spans_per_run": traced_spans,
            "metric_ops_per_run": metric_ops,
            "span_cost_seconds": span_cost_s,
            "counter_cost_seconds": inc_cost_s,
            "instrumentation_seconds": instrumentation_s,
            "overhead_pct": obs_overhead_pct,
        },
        "streaming": {
            "workload": f"{workload} (full trace)",
            "sessions": len(table),
            "epochs": len(epoch_chunks),
            "per_epoch_rebuild_seconds": rebuild_s,
            "streaming_append_detect_seconds": streaming_s,
            "append_detect_speedup": append_detect_speedup,
            "cold_build_seconds": cold_build_s,
            "snapshot_load_seconds": load_s,
            "snapshot_load_speedup": snapshot_speedup,
            "snapshot_bytes": snapshot_bytes,
            "identical_outputs": True,
        },
        "sharding": sharding,
        "mechanistic": mechanistic,
        "result_cache": result_cache_section,
        "profiling": profiling,
    }

    # --- journal-backed gate: the same verdicts from the record alone -
    # The payload is journaled and every gate re-derived from the
    # flattened record (repro.obs.gate), with no access to the live
    # bench objects; an enforced failure here means the journal gate
    # and the inline asserts above have drifted apart.
    from repro.obs.gate import evaluate_record, ingest_payload
    from repro.obs.journal import RunJournal

    bench_journal = RunJournal(results_dir / "BENCH_journal")
    bench_record = ingest_payload(bench_journal, payload)
    verdicts = evaluate_record(bench_record)
    gate_failures = [v for v in verdicts if v.enforced and not v.passed]
    assert not gate_failures, [v.as_dict() for v in gate_failures]
    payload["journal_gate"] = {
        "journal": str(bench_journal.file),
        "run_id": bench_record["run_id"],
        "enforced": sum(1 for v in verdicts if v.enforced),
        "verdicts": [v.as_dict() for v in verdicts],
    }

    path = results_dir / "BENCH_pipeline.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {path}: "
          f"{payload['serial_sessions_per_sec']:.0f} sess/s serial, "
          f"{len(configs)}-config sweep {sweep_speedup:.2f}x vs independent runs, "
          f"tracer overhead {obs_overhead_pct:.4f}%, "
          f"streamed append+detect {append_detect_speedup:.1f}x vs per-epoch "
          f"rebuild, snapshot load {snapshot_speedup:.1f}x vs cold build, "
          f"sharded parent peak {peak_ratio:.2f}x monolithic "
          f"({analyze_speedup:.2f}x analyze wall on {shard_workers} workers), "
          f"mechanistic batch {mechanistic['speedup']:.1f}x vs scalar "
          f"({mechanistic['batch_sessions_per_sec']:.0f} sess/s, "
          f"bit-identical), "
          f"warm cached re-analysis {warm_speedup:.1f}x vs cold "
          f"({result_cache_section['append_one_day']['cache_misses']} miss on "
          "append-one-day), "
          f"profiler overhead "
          f"{profiling.get('overhead_pct', float('nan')):.4f}% at 97 Hz, "
          f"journal gate {payload['journal_gate']['enforced']} enforced / "
          f"{len(verdicts)} evaluated (all passed)")
