"""Journal-backed perf-regression gate over the pipeline bench.

``benchmarks/bench_pipeline_core.py`` computes a dozen speed and memory
claims (sweep amortization, streaming append, shard map/merge, batch
simulation, cached re-analysis, instrumentation and profiler overhead)
and historically asserted each inline. This module makes those gates a
*data* problem: the bench payload is flattened into one
:class:`~repro.obs.journal.RunJournal` record (command
``bench.pipeline``), and :func:`evaluate_record` re-derives every
verdict **from the journal record alone** — the same thresholds, the
same enforcement conditions (acceptance workload, CPU count), no access
to the live bench objects. The bench asserts the journal verdicts agree
with its own inline gates, so the two can never drift; CI and humans
run the gate standalone over committed results::

    python -m repro.obs.gate benchmarks/results/BENCH_pipeline.json \
        --journal .repro-journal --report-only

Each gauge lands in the record as ``bench.<section>.<metric>``;
enforcement flags (did this workload/CPU-count arm the gate?) ride
along as ``bench.gate.<name>.enforced`` so evaluation needs no
out-of-band context.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.journal import JOURNAL_VERSION, RunJournal

#: Record command under which bench runs are journaled.
BENCH_COMMAND = "bench.pipeline"

MIN = "min"
MAX = "max"


@dataclass(frozen=True)
class GateSpec:
    """One threshold over one flattened bench gauge."""

    name: str
    metric: str  # gauge name in the journal record
    op: str  # MIN: value must be >= threshold; MAX: <= threshold
    threshold: float

    def check(self, value: float) -> bool:
        return value >= self.threshold if self.op == MIN else value <= self.threshold


#: The pipeline bench's gates, as data. Enforcement (week workload,
#: >= 4 CPUs for the shard wall gate, day workload for mechanistic) is
#: recorded per-run by :func:`flatten_payload`.
PIPELINE_GATES: tuple[GateSpec, ...] = (
    GateSpec("sweep_speedup_min_2", "bench.sweep.sweep_speedup", MIN, 2.0),
    GateSpec(
        "observability_overhead_max_2pct",
        "bench.observability.overhead_pct", MAX, 2.0,
    ),
    GateSpec(
        "streaming_append_detect_min_2",
        "bench.streaming.append_detect_speedup", MIN, 2.0,
    ),
    GateSpec(
        "snapshot_load_min_5",
        "bench.streaming.snapshot_load_speedup", MIN, 5.0,
    ),
    GateSpec(
        "shard_parent_peak_rss_max_0.5",
        "bench.sharding.parent_peak_rss_ratio", MAX, 0.5,
    ),
    GateSpec(
        "shard_analyze_speedup_min_1.3",
        "bench.sharding.analyze_speedup", MIN, 1.3,
    ),
    GateSpec(
        "mechanistic_batch_speedup_min_10",
        "bench.mechanistic.speedup", MIN, 10.0,
    ),
    GateSpec(
        "cache_warm_speedup_min_5",
        "bench.result_cache.warm_speedup", MIN, 5.0,
    ),
    GateSpec(
        "profiler_overhead_max_3pct",
        "bench.profiling.overhead_pct", MAX, 3.0,
    ),
)


@dataclass(frozen=True)
class GateVerdict:
    """One gate evaluated against one journal record."""

    name: str
    metric: str
    value: float | None
    threshold: float
    op: str
    enforced: bool
    passed: bool  # True when not enforced or threshold met

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "op": self.op,
            "enforced": self.enforced,
            "passed": self.passed,
        }

    def render(self) -> str:
        mode = "ENFORCED" if self.enforced else "report-only"
        status = "ok" if self.passed else "FAIL"
        value = "missing" if self.value is None else f"{self.value:.4g}"
        op = ">=" if self.op == MIN else "<="
        return (
            f"  [{status:>4s}] {self.name:<36s} {value:>10s} "
            f"{op} {self.threshold:g} ({mode})"
        )


def flatten_payload(payload: dict[str, Any]) -> dict[str, float]:
    """The bench payload's gated numbers as flat journal gauges.

    Enforcement flags come from the payload itself: the top-level
    workload decides the week-only gates, and the sharding/mechanistic/
    cache sections record their own ``gates_enforced`` conditions.
    """
    gauges: dict[str, float] = {}

    def put(key: str, value: Any) -> None:
        if value is not None:
            gauges[key] = float(value)

    week = str(payload.get("workload", "")).startswith("week")
    put("bench.cpus", payload.get("cpus"))
    put("bench.sweep.sweep_speedup", payload.get("sweep", {}).get("sweep_speedup"))
    put(
        "bench.observability.overhead_pct",
        payload.get("observability", {}).get("overhead_pct"),
    )
    streaming = payload.get("streaming", {})
    put("bench.streaming.append_detect_speedup",
        streaming.get("append_detect_speedup"))
    put("bench.streaming.snapshot_load_speedup",
        streaming.get("snapshot_load_speedup"))
    sharding = payload.get("sharding", {})
    put("bench.sharding.parent_peak_rss_ratio",
        sharding.get("parent_peak_rss_ratio"))
    put("bench.sharding.analyze_speedup",
        sharding.get("analyze_speedup_vs_indexed"))
    mechanistic = payload.get("mechanistic", {})
    put("bench.mechanistic.speedup", mechanistic.get("speedup"))
    cache = payload.get("result_cache", {})
    put("bench.result_cache.warm_speedup", cache.get("warm_speedup"))
    profiling = payload.get("profiling", {})
    put("bench.profiling.overhead_pct", profiling.get("overhead_pct"))

    shard_gates = sharding.get("gates_enforced", {})
    mech_gates = mechanistic.get("gates_enforced", {})
    cache_gates = cache.get("gates_enforced", {})
    enforced = {
        "sweep_speedup_min_2": week,
        "observability_overhead_max_2pct": week,
        "streaming_append_detect_min_2": week,
        "snapshot_load_min_5": week,
        "shard_parent_peak_rss_max_0.5": bool(
            shard_gates.get("parent_peak_rss_ratio_max_0.5")
        ),
        "shard_analyze_speedup_min_1.3": bool(
            shard_gates.get("analyze_speedup_min_1.3")
        ),
        "mechanistic_batch_speedup_min_10": bool(
            mech_gates.get("batch_speedup_min_10")
        ),
        "cache_warm_speedup_min_5": bool(
            cache_gates.get("warm_speedup_min_5")
        ),
        "profiler_overhead_max_3pct": bool(
            profiling.get("gates_enforced", {}).get("overhead_max_3pct")
        ),
    }
    for name, flag in enforced.items():
        gauges[f"bench.gate.{name}.enforced"] = 1.0 if flag else 0.0
    return gauges


def ingest_payload(
    journal: RunJournal, payload: dict[str, Any]
) -> dict[str, Any]:
    """Journal one bench payload as a ``bench.pipeline`` record."""
    record = {
        "journal_version": JOURNAL_VERSION,
        "command": BENCH_COMMAND,
        "config_digest": "bench.pipeline",
        "args": {"workload": payload.get("workload")},
        "started_unix": payload.get("generated_at_unix"),
        "duration_s": 0.0,
        "exit_code": 0,
        "degradations": [],
        "metrics": {
            "counters": {},
            "gauges": flatten_payload(payload),
            "histograms": {},
        },
        "phases": {},
        "critical_path": [],
    }
    return journal.append(record)


def evaluate_record(record: dict[str, Any]) -> list[GateVerdict]:
    """Every pipeline gate evaluated against one journal record.

    A gate whose gauge is missing from the record fails when enforced
    (a gate that silently can't see its number is not a gate) and
    passes as report-only otherwise.
    """
    gauges = (record.get("metrics") or {}).get("gauges") or {}
    verdicts = []
    for spec in PIPELINE_GATES:
        enforced = bool(gauges.get(f"bench.gate.{spec.name}.enforced", 0.0))
        value = gauges.get(spec.metric)
        if value is None:
            passed = not enforced
        else:
            passed = spec.check(float(value)) or not enforced
        verdicts.append(
            GateVerdict(
                name=spec.name,
                metric=spec.metric,
                value=None if value is None else float(value),
                threshold=spec.threshold,
                op=spec.op,
                enforced=enforced,
                passed=passed,
            )
        )
    return verdicts


def evaluate_latest(journal: RunJournal) -> list[GateVerdict]:
    """Gate verdicts for the journal's most recent bench record."""
    record = journal.latest(command=BENCH_COMMAND)
    if record is None:
        raise ValueError(
            f"journal {journal.file} has no '{BENCH_COMMAND}' records"
        )
    return evaluate_record(record)


def main(argv=None) -> int:
    """``python -m repro.obs.gate RESULTS.json [--journal DIR]``.

    Ingests the bench payload into the journal (unless ``--no-ingest``),
    evaluates the gates from the journal record, prints the verdicts,
    and exits 1 on an enforced failure unless ``--report-only``.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.gate",
        description="journal-backed bench perf-regression gate",
    )
    parser.add_argument("results", nargs="?", default=None,
                        help="BENCH_pipeline.json to ingest before gating")
    parser.add_argument("--journal", default=RunJournal.DEFAULT_DIR,
                        metavar="DIR", help="journal directory")
    parser.add_argument("--no-ingest", action="store_true",
                        help="evaluate the journal's latest bench record "
                        "without journaling RESULTS first")
    parser.add_argument("--report-only", action="store_true",
                        help="print verdicts but always exit 0")
    args = parser.parse_args(argv)

    journal = RunJournal(args.journal)
    try:
        if args.results is not None and not args.no_ingest:
            payload = json.loads(Path(args.results).read_text("utf-8"))
            record = ingest_payload(journal, payload)
            print(f"journaled {args.results} as {record['run_id']}")
        verdicts = evaluate_latest(journal)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"pipeline gates ({journal.file}):")
    for verdict in verdicts:
        print(verdict.render())
    failed = [v for v in verdicts if v.enforced and not v.passed]
    ok = not failed
    print(
        f"{len(verdicts)} gates, "
        f"{sum(1 for v in verdicts if v.enforced)} enforced, "
        f"{len(failed)} failed"
        + (" (report-only mode)" if args.report_only else "")
    )
    if args.report_only:
        return 0
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
