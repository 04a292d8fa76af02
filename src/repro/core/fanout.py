"""The one process-pool fan-out behind every parallel analysis.

``analyze_sweep`` (and so ``analyze_trace``) fans epoch batches out and
``sweep_shards`` fans shards out; both go through :func:`fan_out`. It
owns pool creation, submit timestamps, ``as_completed`` folding, the
per-process ``worker`` spans and the ``parallel_to_serial`` ladder.
Callers pass only what differs: the task function, the state every
task reads, and a fold callback.

Worker state travels through the pool's ``initargs``. Under the
``fork`` start method (the Linux default through Python 3.13) a worker
inherits it copy-on-write and nothing is pickled; under ``spawn`` or
``forkserver`` it is pickled once per worker, which is correct but
slower (DESIGN.md §5c).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Sequence

from repro.obs import current_tracer, install_null_collectors, record_degradation

# The state a pool worker's tasks read, installed once per worker.
_STATE = None


def _worker_init(state) -> None:
    install_null_collectors()
    global _STATE
    _STATE = state


def _run_task(task_fn: Callable, task) -> dict:
    """One task in a worker: its result plus self-timing stats."""
    started_unix = time.time()
    t0 = time.perf_counter()
    result = task_fn(_STATE, task)
    return {
        "result": result,
        "pid": os.getpid(),
        "started_unix": started_unix,
        "busy_s": time.perf_counter() - t0,
    }


def fan_out(
    tasks: Sequence,
    task_fn: Callable,
    state,
    fold: Callable[[object], None],
    workers: int,
    serial_span: str,
) -> None:
    """Run ``task_fn(state, task)`` for every task and fold each result.

    With ``workers`` of 0 or 1, or a single task, every task runs
    in-process under a ``serial_span`` span. Otherwise a pool of
    ``min(workers, len(tasks))`` processes runs them and the parent
    folds results as they complete, attaching one ``worker`` span per
    pool process (busy time, task count, queue wait). ``task_fn`` must
    be a module-level function so it pickles by name.

    A pool failure — a raising task, a dead worker, a pickling error —
    degrades to running the tasks whose results never arrived
    in-process, and is recorded as ``parallel_to_serial``. The serial
    path is the reference, so a genuine bug resurfaces there with a
    clean traceback.
    """
    if not tasks:
        return
    tracer = current_tracer()
    pending = dict(enumerate(tasks))
    if workers > 1 and len(tasks) > 1:
        n_procs = min(workers, len(tasks))
        per_pid: dict[int, dict] = {}
        failure: Exception | None = None
        with tracer.span("fanout", workers=n_procs, tasks=len(tasks)) as span:
            try:
                with ProcessPoolExecutor(
                    max_workers=n_procs,
                    initializer=_worker_init,
                    initargs=(state,),
                ) as pool:
                    submitted = {}
                    for i, task in pending.items():
                        future = pool.submit(_run_task, task_fn, task)
                        submitted[future] = (i, time.time())
                    for future in as_completed(submitted):
                        out = future.result()
                        i, submitted_unix = submitted[future]
                        stats = per_pid.setdefault(
                            out["pid"],
                            {"tasks": 0, "busy_s": 0.0, "queue_wait_s": 0.0},
                        )
                        stats["tasks"] += 1
                        stats["busy_s"] += out["busy_s"]
                        # Same host, so the two wall clocks agree to
                        # well under scheduling noise.
                        stats["queue_wait_s"] += max(
                            0.0, out["started_unix"] - submitted_unix
                        )
                        fold(out["result"])
                        del pending[i]
            except Exception as exc:
                failure = exc
            for pid, stats in sorted(per_pid.items()):
                tracer.record(
                    "worker",
                    duration_s=stats["busy_s"],
                    pid=pid,
                    tasks=stats["tasks"],
                    queue_wait_s=round(stats["queue_wait_s"], 6),
                )
            span.set(completed_tasks=len(tasks) - len(pending))
        if failure is None:
            return
        record_degradation(
            "parallel_to_serial",
            f"worker pool failed ({type(failure).__name__}: {failure}); "
            f"running {len(pending)} of {len(tasks)} task(s) serially",
        )
        mode = "serial-fallback"
    else:
        mode = "serial"
    with tracer.span(serial_span, mode=mode, tasks=len(pending)):
        for task in pending.values():
            fold(task_fn(state, task))
