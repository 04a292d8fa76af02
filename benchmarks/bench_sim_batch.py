"""Bench: the vectorized batch mechanistic simulation.

The lockstep batch kernel (``repro.sim.batch``) is the one execution
path behind the mechanistic engine. ``generate_trace`` prepares each
epoch's draws in epoch order, then simulates passes of consecutive
epochs, one kernel call per class over a pass's rows; each step's rates
are drawn as that step's rows of the per-epoch segment-major blocks
(DESIGN.md §9), so no segment-sized block is held. This file times it
on the day workload (``REPRO_BENCH_WORKLOAD=tiny`` for a smoke run),
printing sessions/sec beside the passes per generation, and drives a
week of chunk-level traces through the analysis pipeline. CI's
bench-smoke job runs both benches on the tiny workload with
``--benchmark-disable``. Bit-identity with the per-session reference
loop, which replays the engine's draws, is pinned by the test suite
(``tests/property/test_sim_batch_equivalence.py``); the end-to-end
benchmark's ``mech`` workload measures simulator sessions/sec.
"""

import os
import time

from repro.core.metrics import JOIN_FAILURE
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.obs import MetricsRegistry, use_metrics
from repro.trace.generator import generate_trace
from repro.trace.workloads import StandardWorkloads


def _workload() -> str:
    return os.environ.get("REPRO_BENCH_WORKLOAD", "week")


def mechanistic_spec(workload: str):
    """Day-scale for real runs; tiny for the smoke run."""
    name = "mechanistic_tiny" if workload == "tiny" else "mechanistic_day"
    return StandardWorkloads.by_name(name, seed=42)


def _generate_counted(spec):
    """One generation, its wall seconds and its simulation passes."""
    metrics = MetricsRegistry()
    start = time.perf_counter()
    with use_metrics(metrics):
        trace = generate_trace(spec)
    return trace, time.perf_counter() - start, metrics.counters["generate.passes"]


def bench_mechanistic_batch_generation(benchmark):
    """Sessions/sec of the batch kernel, and the passes it took."""
    spec = mechanistic_spec(_workload())
    trace, seconds, passes = benchmark.pedantic(
        _generate_counted, args=(spec,), rounds=1, iterations=1
    )
    assert trace.n_sessions > 0
    assert 1 <= passes <= spec.n_epochs
    print(
        f"\n{spec.name}: {trace.n_sessions / seconds:.0f} sess/s, "
        f"{passes} passes over {spec.n_epochs} epochs"
    )


def bench_mechanistic_trace_feeds_pipeline():
    """A week of chunk-level traces flows into the analysis pipeline.

    ``mechanistic_week`` end to end on real runs (tiny smoke uses the
    tiny trace): generate through the batch kernel, then run the
    clustering pipeline over the result — the acceptance check
    that batch-generated traces are first-class pipeline inputs.
    """
    workload = _workload()
    name = "mechanistic_tiny" if workload == "tiny" else "mechanistic_week"
    spec = StandardWorkloads.by_name(name, seed=42)
    trace, generate_s, passes = _generate_counted(spec)
    assert trace.grid.n_epochs == spec.n_epochs

    start = time.perf_counter()
    analysis = analyze_trace(
        trace.table,
        config=AnalysisConfig(metrics=(JOIN_FAILURE,)),
    )
    analyze_s = time.perf_counter() - start
    assert analysis.grid.n_epochs == spec.n_epochs
    assert analysis[JOIN_FAILURE.name].epochs
    print(
        f"\n{spec.name}: generated {trace.n_sessions} sessions in "
        f"{generate_s:.1f}s ({trace.n_sessions / generate_s:.0f} sess/s, "
        f"{passes} passes), analyzed in {analyze_s:.1f}s"
    )
