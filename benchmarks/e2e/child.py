"""Run one workload in this fresh process and write its result as JSON.

``run.py`` starts one of these per workload, so peak RSS and import
cost belong to that workload alone. The child sets its inputs up
several times (``setup_s`` is the median), runs one untimed warm-up
round (not for smoke inputs, which only check), repeats closed-loop
rounds until ``--seconds`` have passed, then
computes the reference answer and checks every round against it. With
``--trace 1`` the timed rounds alternate: untraced, then traced under a
live tracer, metrics registry and the bench's patches, so the per-layer
numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

from harness import (
    E2E_METRICS,
    PER_LAYER_METRICS,
    RESULTS_DIR,
    ROOT,
    children_peak_rss_mb,
    peak_rss_mb,
    tail_percentile,
)

#: Set-ups per run; ``setup_s`` reports the median.
SETUPS = 3

#: Largest allowed gap between a traced round's wall time and the sum
#: of its layer self times plus unattributed time.
ATTRIBUTION_TOLERANCE = 0.05


class DegradedCounter(logging.Handler):
    """Counts ``record_degradation`` warnings, and still shows them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("degraded path"):
            self.count += 1
        print(f"{record.name}: {message}", file=sys.stderr)


@contextmanager
def traced(tracer, registry, name: str, **attrs):
    """Tracer, registry and bench patches installed for one block."""
    from repro.obs import use_metrics, use_tracer
    from tracing import patched

    with use_tracer(tracer), use_metrics(registry), patched():
        with tracer.span(name, **attrs) as span:
            yield span


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_round(workload, workdir: Path, index: int, tracer, errors: list[str]) -> dict | None:
    """One round, traced when ``tracer`` is given; None if it raised."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry() if tracer else None
    scratch = fresh_dir(workdir / f"round{index}")
    t0 = time.perf_counter()
    try:
        with traced(tracer, registry, "round", index=index) if tracer else nullcontext() as span:
            result = workload.run(scratch)
    except Exception:
        traceback.print_exc()
        errors.append(f"round {index} raised: {traceback.format_exc(limit=1).strip()}")
        return None
    outer_s = time.perf_counter() - t0
    summary = workload.summarize(result.output)
    shutil.rmtree(scratch)
    return {
        "index": index,
        "traced": tracer is not None,
        "wall_s": result.wall_s,
        "outer_s": outer_s,
        "latencies_s": result.latencies_s,
        "sessions": result.sessions,
        "summary": summary,
        "span": span,
        "registry": registry.as_dict() if tracer else None,
    }


def run_workload(args) -> dict:
    import repro
    from repro.obs import MetricsRegistry, Tracer
    from workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    import_s = time.time() - args.spawned_at

    counter = DegradedCounter()
    logging.getLogger("repro.obs").addHandler(counter)
    workdir = Path(args.workdir)
    tracer = Tracer(name=args.workload) if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.size)

    setup_s = []
    for k in range(SETUPS):
        scratch = fresh_dir(workdir / f"setup{k}")
        t0 = time.perf_counter()
        with traced(tracer, MetricsRegistry(), "setup", index=k) if tracer else nullcontext():
            workload.setup(scratch)
        setup_s.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(workdir / f"setup{k - 1}")

    # Round 0 warms up: the first call in a process pays one-off costs
    # (lazy imports, pool machinery, heap growth); the first batch round
    # takes 25-50% longer than the next. It is checked like the others
    # but not timed. Smoke runs only check, so they skip it.
    errors: list[str] = []
    warmups = 0 if args.size == "smoke" else 1
    rounds = [run_round(workload, workdir, 0, None, errors) for _ in range(warmups)]
    min_rounds = warmups + (2 if tracer else 1)
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        index = len(rounds)
        traced_round = tracer is not None and (index - warmups) % 2 == 1
        rounds.append(run_round(
            workload, workdir, index, tracer if traced_round else None, errors
        ))
    peak_mb = peak_rss_mb()
    done = [r for r in rounds if r is not None]
    timed = [r for r in done if r["index"] >= warmups]
    if not timed:
        raise RuntimeError("no timed round completed: " + "; ".join(errors))

    # Untimed: the reference answer, then every round checked against it.
    reference = workload.reference()
    checks = list(errors)
    attempted, failed = len(errors), len(errors)
    for r in done:
        attempted += len(r["latencies_s"])
        problems = workload.failed_requests(r["summary"], reference)
        failed += len(problems)
        checks += [f"round {r['index']}: {p}" for p in problems]

    plain = [r for r in timed if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies_s"]]
    tail = tail_percentile(latencies)
    result = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "fingerprints": workload.fingerprints(done[0]["summary"]),
        "setup": {"import_s": import_s, "setups_s": setup_s},
        "requests": {
            "count": len(latencies),
            "p50_ms": statistics.median(latencies) * 1e3,
            "tail_percentile": tail[0] if tail else None,
            "tail_ms": tail[1] * 1e3 if tail else None,
        },
        "rounds": [
            {k: r[k] for k in ("index", "traced", "wall_s", "sessions")}
            | {"latencies_ms": [x * 1e3 for x in r["latencies_s"]]}
            for r in done
        ],
        "degraded_events": counter.count,
    }
    if not tracer:
        values = {
            "setup_s": import_s + statistics.median(setup_s),
            "sessions_per_s": sum(r["sessions"] for r in plain)
            / sum(r["wall_s"] for r in plain),
            "peak_rss_mb": peak_mb,
        }
        units = {name: unit for name, unit, _ in E2E_METRICS}
    else:
        detail, problems = traced_values(
            tracer, [r for r in timed if r["traced"]], plain
        )
        detail["degraded.events"] = counter.count
        detail["fanout.worker_peak_rss_mb"] = children_peak_rss_mb()
        result["layer_detail"] = detail
        checks += problems
        units = dict(PER_LAYER_METRICS)
        values = {name: detail.get(name, 0.0) for name in units}
        tracer.finish()
        path = RESULTS_DIR / f"trace_{args.workload}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "trace": tracer.as_dict(),
            "registries": [r["registry"] for r in timed if r["traced"]],
        }) + "\n", encoding="utf-8")
    result["metrics"] = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    result["correct"] = not checks
    return result


def traced_values(tracer, traced_rounds, plain_rounds) -> tuple[dict, list[str]]:
    """Every per-layer value (the median over traced rounds, per
    request) and the attribution check of each traced round.

    Trace generation is timed per ``generate_trace`` call wherever it
    happens: in set-up, or inside the rounds of ``mech``.
    """
    from tracing import layer_values, self_times, span_name

    per_round, problems = [], []
    for r in traced_rounds:
        per_round.append(layer_values(
            r["span"], r["registry"], r["summary"].facts, len(r["latencies_s"])
        ))
        layers = self_times(r["span"])
        wall = r["outer_s"]
        if (abs(sum(layers.values()) - wall) > ATTRIBUTION_TOLERANCE * wall
                or min(layers.values()) < -ATTRIBUTION_TOLERANCE * wall):
            problems.append(
                f"round {r['index']}: layer self times {layers} do not sum "
                f"to its wall {wall:.4f} s"
            )
    names = sorted(set().union(*per_round))
    detail = {n: statistics.median(v.get(n, 0.0) for v in per_round) for n in names}
    calls = tracer.find(span_name("generate_trace"))
    detail["trace.generate_s"] = statistics.median(c.duration_s for c in calls)
    detail["trace.qoe_s"] = statistics.median(
        sum(s.duration_s for s in c.walk() if s.name == "generate.qoe") for c in calls
    )
    detail["trace_overhead_pct"] = 100.0 * (
        statistics.median(r["wall_s"] for r in traced_rounds)
        / statistics.median(r["wall_s"] for r in plain_rounds) - 1.0
    )
    return detail, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
