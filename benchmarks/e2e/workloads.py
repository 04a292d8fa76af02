"""The benchmark's four workloads.

Each workload makes its inputs from a seed (``setup``), runs one
closed-loop round of requests through the public API in the order the
CLI commands call it (``run``), reduces a round's output to digest rows
and per-layer facts (``summarize``, untimed) and computes an
independent reference answer once, after the timed loop
(``reference``). The program only ever sees the generated inputs.

Every call into the program goes through a module attribute
(``shards.analyze_shards``, not a name imported from it), so the traced
run's patches in ``tracing.py`` see them.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import report
from repro.core import online, pipeline, resultcache, shards, substrate
from repro.core.epoching import EpochGrid, split_into_epochs
from repro.core.metrics import ALL_METRICS, MetricThresholds
from repro.core.problems import ProblemClusterConfig
from repro.io import binary
from repro.trace import build_world, generate_catalog, generator
from repro.trace.workloads import StandardWorkloads

from harness import (
    WORKERS,
    analysis_rows,
    detector_rows,
    fingerprint,
    rows_mismatch,
)

#: Input presets. ``full`` keeps every run of every workload well inside
#: the benchmark's per-run time budget on 2 CPUs; ``smoke`` is the
#: seconds-fast CI variant.
SIZES = {
    "full": {"trace": "small", "mech": "mechanistic_day"},
    "smoke": {"trace": "tiny", "mech": "mechanistic_tiny"},
}

#: Epochs the online detectors consume per round (the first day).
ONLINE_EPOCHS = 24

#: The ``sweep`` command's variants, in the order it builds them.
SWEEP_VARIANTS = (
    ("ratio x1.25", dataclasses.replace(
        pipeline.AnalysisConfig(),
        problem_config=ProblemClusterConfig(ratio_multiplier=1.25))),
    ("ratio x2", dataclasses.replace(
        pipeline.AnalysisConfig(),
        problem_config=ProblemClusterConfig(ratio_multiplier=2.0))),
    ("thresholds x0.5", dataclasses.replace(
        pipeline.AnalysisConfig(), thresholds=MetricThresholds().scaled(0.5))),
    ("thresholds x1", dataclasses.replace(
        pipeline.AnalysisConfig(), thresholds=MetricThresholds().scaled(1.0))),
    ("thresholds x2", dataclasses.replace(
        pipeline.AnalysisConfig(), thresholds=MetricThresholds().scaled(2.0))),
)
DEFAULT_VARIANT = "thresholds x1"


@dataclass
class Round:
    """One timed round: its wall time, per-request latencies, the
    sessions it processed and the program's raw output."""

    wall_s: float
    latencies_s: list[float]
    sessions: int
    output: object


@dataclass
class Summary:
    """What the harness keeps of a round once its output is dropped."""

    rows: list[tuple]
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def timing_facts(analyses) -> dict:
    """Per-layer facts from the ``PipelineTimings`` analyses return.

    Phase counters sum worker-side time; ``efficiency`` is phase time
    over the parent's wall (above 1 means the pool ran in parallel).
    """
    t = [a.timings for a in analyses]
    phase = sum(x.phase_seconds for x in t)
    wall = sum(x.wall_s for x in t)
    return {
        "index.epoch_view_s": sum(x.pack_s for x in t),
        "aggregate_s": sum(x.aggregate_s for x in t),
        "problems_s": sum(x.problems_s for x in t),
        "critical_s": sum(x.critical_s for x in t),
        "pipeline.units": sum(x.n_units for x in t),
        "shards.load_s": sum(x.load_s for x in t),
        "shards.merge_s": sum(x.merge_s for x in t),
        "fanout.efficiency": phase / wall if wall > 0 else 0.0,
    }


def cluster_facts(rows: list[tuple]) -> dict:
    return {
        "problems.clusters": sum(r[3] for r in rows),
        "critical.clusters": sum(len(r[4]) for r in rows),
    }


#: Seed of the world and the planted events. They define the workload
#: and stay fixed; ``--seed`` draws the sessions. With seed-drawn
#: events the number of problem clusters on ``small`` varies by 23%
#: across seeds (1% with fixed events), and the work with it.
STRUCTURE_SEED = 0


def _scenario(spec):
    rng = np.random.default_rng(STRUCTURE_SEED)
    world = build_world(spec.world, rng)
    return world, generate_catalog(world, spec.n_epochs, spec.events, rng)


def _generate(name: str, seed: int):
    spec = StandardWorkloads.by_name(name, seed)
    world, catalog = _scenario(spec)
    return generator.generate_trace(spec, world=world, catalog=catalog)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SIZES[size]

    def setup(self, scratch: Path) -> None:
        raise NotImplementedError

    def run(self, scratch: Path) -> Round:
        raise NotImplementedError

    def summarize(self, output) -> Summary:
        raise NotImplementedError

    def reference(self) -> list[tuple]:
        raise NotImplementedError

    def failed_requests(self, summary: Summary, reference: list[tuple]) -> list[str]:
        """Check failures of one round (each is one failed request)."""
        mismatch = rows_mismatch(reference, summary.rows)
        return summary.problems + ([mismatch] if mismatch else [])

    def fingerprints(self, summary: Summary) -> dict[str, str]:
        """Digests other workloads on the same trace must reproduce."""
        return {}


class Batch(Workload):
    """The analyst's job: shard the trace file, analyze it cold through
    the result cache, write the report, then re-analyze warm."""

    name = "batch"
    why = (
        "only workload on npz ingest, shard build and fan-out, the result "
        "cache (cold writes, warm reads) and the report; streaming append "
        "and the simulator are idle"
    )

    def setup(self, scratch: Path) -> None:
        trace = _generate(self.size["trace"], self.seed)
        self.npz = scratch / "trace.npz"
        binary.write_sessions_npz(trace.table, self.npz)

    def run(self, scratch: Path) -> Round:
        store_dir, cache_dir = scratch / "store", scratch / "cache"
        t0 = time.perf_counter()
        table = binary.read_sessions_npz(self.npz)
        shards.build_shard_store(table, store_dir, epochs_per_shard=24)
        cold = shards.analyze_shards(
            shards.ShardStore.open(store_dir), workers=WORKERS,
            result_cache=resultcache.ResultCache(cache_dir),
        )
        report_path = report.write_report(scratch / "report.md", table, cold)
        warm = shards.analyze_shards(
            shards.ShardStore.open(store_dir), workers=WORKERS,
            result_cache=resultcache.ResultCache(cache_dir),
        )
        wall = time.perf_counter() - t0
        return Round(wall, [wall], len(table), (cold, warm, report_path))

    def summarize(self, output) -> Summary:
        cold, warm, report_path = output
        rows = analysis_rows(cold)
        problems = []
        mismatch = rows_mismatch(rows, analysis_rows(warm))
        if mismatch:
            problems.append(f"warm analysis differs from cold: {mismatch}")
        lines = report_path.read_text(encoding="utf-8").splitlines()
        for name in cold.metrics:
            if lines.count(f"### {name}") != 1:
                problems.append(f"report has no single section for {name}")
        facts = timing_facts([cold])
        facts["shards.merge_s"] += warm.timings.merge_s
        facts.update(cluster_facts(rows))
        return Summary(rows, problems, facts)

    def reference(self) -> list[tuple]:
        table = binary.read_sessions_npz(self.npz)
        return analysis_rows(pipeline.analyze_trace(table, workers=0))

    def fingerprints(self, summary: Summary) -> dict[str, str]:
        return {
            self.size["trace"]: fingerprint(summary.rows),
            f"{self.size['trace']}.first{ONLINE_EPOCHS}": fingerprint(
                [r for r in summary.rows if r[1] < ONLINE_EPOCHS]
            ),
        }


class Online(Workload):
    """Reactive detection: one epoch at a time into four detectors."""

    name = "online"
    why = (
        "only workload on streaming append and the incremental cluster "
        "index; per-epoch latency grows with the prefix; no pool, cache "
        "or snapshot"
    )

    def setup(self, scratch: Path) -> None:
        trace = _generate(self.size["trace"], self.seed)
        n = ONLINE_EPOCHS
        _, per_epoch = split_into_epochs(trace.table, trace.grid)
        # A fresh table per epoch, as a collector would deliver them.
        self.chunks = [trace.table.select(rows) for rows in per_epoch[:n]]
        self.prefix = trace.table.select(np.sort(np.concatenate(per_epoch[:n])))
        self.grid = EpochGrid(
            origin=trace.grid.origin, epoch_seconds=trace.grid.epoch_seconds,
            n_epochs=n,
        )

    def run(self, scratch: Path) -> Round:
        latencies = []
        t0 = time.perf_counter()
        detectors = [online.OnlineDetector(metric) for metric in ALL_METRICS]
        for chunk in self.chunks:
            t = time.perf_counter()
            for detector in detectors:
                detector.observe_epoch(chunk)
            latencies.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        return Round(wall, latencies, sum(len(c) for c in self.chunks), detectors)

    def summarize(self, output) -> Summary:
        rows = detector_rows(output)
        facts = cluster_facts(rows)
        facts["online.state_mb"] = sum(
            d.substrate.memory_bytes() for d in output
        ) / 2**20
        facts["pipeline.units"] = len(rows)
        return Summary(rows, [], facts)

    def reference(self) -> list[tuple]:
        return analysis_rows(
            pipeline.analyze_trace(self.prefix, grid=self.grid, workers=0)
        )

    def failed_requests(self, summary: Summary, reference: list[tuple]) -> list[str]:
        """Each epoch is one request: it fails if any metric's digest
        for that epoch differs from the batch reference."""
        failures = []
        for epoch in range(len(self.chunks)):
            mismatch = rows_mismatch(
                [r for r in reference if r[1] == epoch],
                [r for r in summary.rows if r[1] == epoch],
            )
            if mismatch:
                failures.append(f"online differs from batch: {mismatch}")
        return failures

    def fingerprints(self, summary: Summary) -> dict[str, str]:
        return {f"{self.size['trace']}.first{ONLINE_EPOCHS}": fingerprint(summary.rows)}


class Mech(Workload):
    """Simulate a trace with the chunk-level player model, then analyze
    it through the monolithic pipeline's pool."""

    name = "mech"
    why = (
        "simulator-bound: chunk-level session simulation dominates; the "
        "analysis takes the monolithic pipeline fan-out with no shards or cache"
    )

    def setup(self, scratch: Path) -> None:
        self.spec = StandardWorkloads.by_name(self.size["mech"], self.seed)
        self.world, self.catalog = _scenario(self.spec)
        self.table = None

    def run(self, scratch: Path) -> Round:
        t0 = time.perf_counter()
        trace = generator.generate_trace(
            self.spec, world=self.world, catalog=self.catalog
        )
        analysis = pipeline.analyze_trace(trace.table, workers=WORKERS)
        wall = time.perf_counter() - t0
        return Round(wall, [wall], len(trace.table), (trace.table, analysis))

    def summarize(self, output) -> Summary:
        self.table, analysis = output
        rows = analysis_rows(analysis)
        facts = timing_facts([analysis])
        facts.update(cluster_facts(rows))
        return Summary(rows, [], facts)

    def reference(self) -> list[tuple]:
        return analysis_rows(pipeline.analyze_trace(self.table, workers=0))

    def fingerprints(self, summary: Summary) -> dict[str, str]:
        return {self.size["mech"]: fingerprint(summary.rows)}


class Sweep(Workload):
    """Five analysis configs over one in-memory trace."""

    name = "sweep"
    why = (
        "one index build shared by five config passes, so aggregate, problem "
        "and critical detection dominate; the sweep's own fan-out"
    )

    def setup(self, scratch: Path) -> None:
        self.table = _generate(self.size["trace"], self.seed).table
        self.first_rows = None

    def run(self, scratch: Path) -> Round:
        t0 = time.perf_counter()
        analyses = substrate.analyze_sweep(
            self.table, [config for _, config in SWEEP_VARIANTS], workers=WORKERS
        )
        wall = time.perf_counter() - t0
        return Round(wall, [wall], len(self.table), analyses)

    def summarize(self, output) -> Summary:
        labels = [label for label, _ in SWEEP_VARIANTS]
        default = output[labels.index(DEFAULT_VARIANT)]
        every = [
            row
            for label, analysis in zip(labels, output)
            for row in analysis_rows(analysis, prefix=f"{label}/")
        ]
        problems = []
        if self.first_rows is None:
            self.first_rows = every
        else:
            mismatch = rows_mismatch(self.first_rows, every)
            if mismatch:
                problems.append(f"sweep differs from its first round: {mismatch}")
        facts = timing_facts(output)
        facts.update(cluster_facts(every))
        return Summary(analysis_rows(default), problems, facts)

    def reference(self) -> list[tuple]:
        return analysis_rows(pipeline.analyze_trace(self.table, workers=0))

    def fingerprints(self, summary: Summary) -> dict[str, str]:
        return {self.size["trace"]: fingerprint(summary.rows)}


WORKLOADS = {w.name: w for w in (Batch, Online, Mech, Sweep)}
