"""Pool degradation: a failing fan-out lands on identical results.

The ladder has one rung, parallel -> serial. These tests force each
failure (a worker raising mid-pool, a worker dying hard via
``os._exit``) in both fan-outs that share the pool helper — the
monolithic sweep behind ``analyze_trace``/``analyze_sweep`` and the
shard map behind ``analyze_shards`` — and assert that the run completes
with results bit-identical to the serial reference and that the
degradation reason is observable (metrics counter + trace event). They
also pin that pool workers run with the no-op collectors while the
parent's trace keeps one ``worker`` span per pool process.
"""

import multiprocessing
import os

import numpy as np
import pytest

import repro.core.shards as shards_mod
import repro.core.substrate as substrate_mod
from repro.core.fanout import fan_out
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.sessions import SessionTable
from repro.core.shards import analyze_shards, build_shard_store
from repro.core.substrate import analyze_sweep
from repro.obs import (
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Tracer,
    current_metrics,
    current_tracer,
    degradation_reasons,
    use_metrics,
    use_tracer,
)
from tests.conftest import make_session
from tests.property.test_parallel_equivalence import assert_equal_analyses


@pytest.fixture(scope="module")
def table() -> SessionTable:
    rng = np.random.default_rng(23)
    sessions = []
    for epoch in range(3):
        for i in range(120):
            sessions.append(
                make_session(
                    start_time=epoch * 3600.0 + float(rng.uniform(0, 3600)),
                    buffering_s=float(rng.uniform(0, 60)),
                    join_time_s=float(rng.uniform(0.5, 12)),
                    bitrate_kbps=float(rng.uniform(300, 4000)),
                    join_failed=bool(rng.random() < 0.1),
                    cdn=f"cdn_{i % 3}",
                    asn=f"AS{i % 4}",
                    site=f"site_{i % 2}",
                )
            )
    return SessionTable.from_sessions(sessions)


@pytest.fixture
def collectors():
    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        yield tracer, metrics


# The injected faults fire only inside pool workers, so the serial
# fallback (which runs the same task function in-process) succeeds.
_sweep_batch = substrate_mod._sweep_batch
_shard_task = shards_mod._shard_task


def _in_pool_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _explode_in_worker():
    if _in_pool_worker():
        raise RuntimeError("worker exploded")


def _die_in_worker():
    if _in_pool_worker():
        os._exit(17)


# Module-level so the pool can pickle them by qualified name.
def _exploding_sweep_batch(state, batch):
    _explode_in_worker()
    return _sweep_batch(state, batch)


def _dying_sweep_batch(state, batch):
    _die_in_worker()
    return _sweep_batch(state, batch)


def _exploding_shard_task(state, task):
    _explode_in_worker()
    return _shard_task(state, task)


def _dying_shard_task(state, task):
    _die_in_worker()
    return _shard_task(state, task)


def _collector_types(state, task):
    return (
        os.getpid(),
        type(current_tracer()).__name__,
        type(current_metrics()).__name__,
    )


class TestWorkerCrash:
    def test_raising_worker_degrades_to_serial(
        self, table, collectors, monkeypatch
    ):
        tracer, metrics = collectors
        monkeypatch.setattr(substrate_mod, "_sweep_batch", _exploding_sweep_batch)
        parallel = analyze_trace(table, workers=2)
        monkeypatch.undo()
        serial = analyze_trace(table, workers=0)
        assert_equal_analyses(parallel, serial)
        assert metrics.get("degraded.parallel_to_serial") == 1
        reasons = degradation_reasons(tracer)
        assert any("worker exploded" in r["reason"] for r in reasons)
        assert any(
            s.attrs.get("mode") == "serial-fallback"
            for s in tracer.find("epochs")
        )

    def test_hard_worker_death_degrades_to_serial(
        self, table, collectors, monkeypatch
    ):
        _, metrics = collectors
        monkeypatch.setattr(substrate_mod, "_sweep_batch", _dying_sweep_batch)
        parallel = analyze_trace(table, workers=2)
        monkeypatch.undo()
        serial = analyze_trace(table, workers=0)
        assert_equal_analyses(parallel, serial)
        assert metrics.get("degraded.parallel_to_serial") == 1

    def test_sweep_worker_crash_degrades_to_serial(
        self, table, collectors, monkeypatch
    ):
        _, metrics = collectors
        configs = [
            AnalysisConfig(),
            AnalysisConfig(epoch_seconds=1800.0),
        ]
        monkeypatch.setattr(substrate_mod, "_sweep_batch", _exploding_sweep_batch)
        parallel = analyze_sweep(table, configs, workers=2)
        monkeypatch.undo()
        serial = analyze_sweep(table, configs, workers=0)
        assert len(parallel) == len(serial) == 2
        for p, s in zip(parallel, serial):
            assert_equal_analyses(p, s)
        assert metrics.get("degraded.parallel_to_serial") == 1

    @pytest.mark.parametrize("task", [_exploding_shard_task, _dying_shard_task])
    def test_shard_worker_crash_degrades_to_serial(
        self, table, tmp_path, collectors, monkeypatch, task
    ):
        tracer, metrics = collectors
        store = build_shard_store(table, tmp_path / "store", n_shards=3)
        monkeypatch.setattr(shards_mod, "_shard_task", task)
        parallel = analyze_shards(store, workers=2)
        monkeypatch.undo()
        assert_equal_analyses(parallel, analyze_trace(table, workers=0))
        assert metrics.get("degraded.parallel_to_serial") == 1
        assert any(
            s.attrs.get("mode") == "serial-fallback"
            for s in tracer.find("shards")
        )


class TestWorkerCollectors:
    def test_workers_run_with_null_collectors(self, collectors):
        tracer, _ = collectors
        seen = []
        fan_out(
            list(range(8)), _collector_types, None, seen.append,
            workers=2, serial_span="tasks",
        )
        assert len(seen) == 8
        assert {(t, m) for _, t, m in seen} == {
            (NullTracer.__name__, NullMetrics.__name__)
        }
        pids = {pid for pid, _, _ in seen}
        assert os.getpid() not in pids
        spans = tracer.find("worker")
        assert sorted(s.attrs["pid"] for s in spans) == sorted(pids)
        assert sum(s.attrs["tasks"] for s in spans) == 8
