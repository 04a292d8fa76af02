"""Bench: vectorized batch mechanistic simulation vs the scalar loop.

The lockstep batch kernel (``repro.sim.batch``) replaces the
per-session Python loop behind ``MechanisticQoEEngine.generate``. This
bench times both paths on the same workload, asserts they are
bit-identical, and records sessions/sec for each.

``mechanistic_engine_section`` is shared with
``bench_pipeline_core.bench_pipeline_json``, which stores it
under the ``"mechanistic"`` key of ``BENCH_pipeline.json`` — that is
where the >= 10x day-workload speedup gate lives. The CI ``sim-smoke``
job runs this file on the tiny workload (identity asserted, speedup
recorded but not gated: tiny batches are setup-dominated).
"""

import dataclasses
import os
import time

import numpy as np

from repro.core.metrics import JOIN_FAILURE
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.trace.generator import generate_trace
from repro.trace.workloads import StandardWorkloads


def _workload() -> str:
    return os.environ.get("REPRO_BENCH_WORKLOAD", "week")


#: Columns compared for bit-identity (everything a trace records).
TABLE_COLUMNS = (
    "codes", "start_time", "duration_s", "buffering_s",
    "join_time_s", "bitrate_kbps", "join_failed",
)


def mechanistic_spec(workload: str):
    """Day-scale for real runs; tiny for the CI smoke."""
    name = "mechanistic_tiny" if workload == "tiny" else "mechanistic_day"
    return StandardWorkloads.by_name(name, seed=42)


def assert_tables_identical(a, b) -> None:
    for col in TABLE_COLUMNS:
        x, y = getattr(a, col), getattr(b, col)
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), (
            f"{col} differs between sim paths"
        )


def mechanistic_engine_section(workload: str) -> dict:
    """Timed scalar-vs-batch comparison plus the bit-identity assert.

    Gated (>= 10x) only on the day workload: the tiny smoke batch is
    dominated by fixed setup, so its ratio is not the claim under test.
    """
    spec = mechanistic_spec(workload)
    start = time.perf_counter()
    batch = generate_trace(dataclasses.replace(spec, sim="batch"))
    batch_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar = generate_trace(dataclasses.replace(spec, sim="scalar"))
    scalar_s = time.perf_counter() - start

    assert_tables_identical(batch.table, scalar.table)
    n = len(batch.table)
    speedup = scalar_s / batch_s
    gated = spec.name == "mechanistic_day"
    if gated:
        assert speedup >= 10.0, (scalar_s, batch_s, speedup)
    return {
        "workload": spec.name,
        "sessions": n,
        "epochs": spec.n_epochs,
        "scalar_seconds": scalar_s,
        "scalar_sessions_per_sec": n / scalar_s,
        "batch_seconds": batch_s,
        "batch_sessions_per_sec": n / batch_s,
        "speedup": speedup,
        "bit_identical": True,
        "gates_enforced": {"batch_speedup_min_10": gated},
    }


def bench_mechanistic_batch_generation(benchmark):
    """Sessions/sec of the batch path alone (the production default)."""
    spec = dataclasses.replace(mechanistic_spec(_workload()), sim="batch")
    trace = benchmark.pedantic(
        generate_trace, args=(spec,), rounds=1, iterations=1
    )
    assert trace.n_sessions > 0


def bench_mechanistic_trace_feeds_pipeline():
    """A week of chunk-level traces flows into the analysis pipeline.

    ``mechanistic_week`` end to end on real runs (tiny smoke uses the
    tiny trace): generate under the default (batch) path, then run the
    clustering pipeline over the result — the acceptance check
    that batch-generated traces are first-class pipeline inputs.
    """
    workload = _workload()
    name = "mechanistic_tiny" if workload == "tiny" else "mechanistic_week"
    spec = StandardWorkloads.by_name(name, seed=42)
    start = time.perf_counter()
    trace = generate_trace(spec)
    generate_s = time.perf_counter() - start
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
        f"{generate_s:.1f}s ({trace.n_sessions / generate_s:.0f} sess/s), "
        f"analyzed in {analyze_s:.1f}s"
    )
