"""End-to-end analysis pipeline: trace -> per-epoch, per-metric structure.

``analyze_trace`` runs the paper's full methodology over a
:class:`~repro.core.sessions.SessionTable`:

1. split sessions into one-hour epochs (Section 3.1),
2. build one :class:`~repro.core.index.TraceClusterIndex` for the whole
   trace, then per epoch and metric aggregate cluster counts (a handful
   of ``bincount`` calls over the index), and per epoch flag the
   problem clusters and run the critical-cluster phase-transition
   search for every (metric, config) unit in one pass,
3. summarise each epoch compactly (decoded cluster identities with
   stats/attribution) so week-scale traces stay memory-friendly.

``analyze_trace`` is :func:`~repro.core.substrate.analyze_sweep` over a
single config, so there is one engine and one unit of work
(:func:`~repro.core.substrate._sweep_batch`). The ``workers`` call
argument fans epochs out over a process pool: ``0``/``1`` run serially
in-process, ``"auto"`` uses every CPU, and any worker count produces
results identical to the serial path (same cluster identities, same
stats, same attribution), pinned against a naive per-epoch reference
by ``tests/property/test_parallel_equivalence.py``.

Per-phase wall-time counters (pack/index-build/aggregate/problems/
critical) are accumulated on :class:`PipelineTimings` and surfaced via
``TraceAnalysis.timings``.

The result object exposes the per-metric timelines and series that all
figures and tables of the evaluation are computed from.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.aggregation import ClusterStats, EpochAggregate
from repro.core.clusters import ClusterKey
from repro.core.critical import CriticalAttribution, detect_critical_clusters
from repro.core.epoching import EpochGrid
from repro.core.metrics import (
    ALL_METRICS,
    MetricThresholds,
    QualityMetric,
    metric_by_name,
)
from repro.core.problems import ProblemClusterConfig, detect_problem_clusters
from repro.core.sessions import SessionTable
from repro.core.streaks import ClusterTimeline, build_timelines
from repro.obs import current_metrics, current_tracer


def resolve_worker_count(workers: int | str | None) -> int:
    """Resolve the ``workers`` knob to a concrete process count.

    ``None``/``0``/``1`` mean serial in-process analysis, ``"auto"``
    means one worker per CPU, and any other non-negative int is taken
    literally. Worker count never changes results, only wall time.
    """
    if workers is None:
        return 0
    if workers == "auto":
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a non-negative int or 'auto', got {workers!r}"
        )
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return workers


@dataclass(frozen=True)
class AnalysisConfig:
    """What an analysis computes (paper defaults).

    Every field changes results, and :meth:`config_digest` covers every
    field. How a run executes — the ``workers`` count — is a call
    argument, not config: it never changes results.
    """

    metrics: tuple[QualityMetric, ...] = ALL_METRICS
    thresholds: MetricThresholds = field(default_factory=MetricThresholds)
    problem_config: ProblemClusterConfig = field(default_factory=ProblemClusterConfig)
    epoch_seconds: float = 3600.0

    def config_digest(self) -> str:
        """Canonical SHA-256 of everything that can change results.

        The digest covers every field (:meth:`digest_spec`): the metric
        tuple (by registry name), the thresholds, the problem-cluster
        config and the epoch length. Two configs with equal digests
        therefore produce bit-identical analyses of the same data, at
        any worker count, which is what lets the per-shard result cache
        (:mod:`repro.core.resultcache`) share entries across runs and
        across sweeps whose variants overlap.

        Metrics are identified by registry name (custom metrics must be
        registered via
        :func:`~repro.core.metrics.register_metric` — the name is the
        identity, so re-registering different behavior under an old
        name stales any cache keyed on it). Raises :class:`ValueError`
        for unregistered metrics, which have no stable identity to
        address results by.
        """
        payload = json.dumps(
            self.digest_spec(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def digest_spec(self) -> dict:
        """The canonical, JSON-ready record :meth:`config_digest` hashes."""
        for metric in self.metrics:
            try:
                registered = metric_by_name(metric.name)
            except KeyError:
                registered = None
            if registered is not metric:
                raise ValueError(
                    f"metric {metric.name!r} is not registered and has no "
                    "content-addressable identity; call register_metric() "
                    "on it first"
                )
        return {
            "digest_version": 1,
            "metrics": [m.name for m in self.metrics],
            "thresholds": asdict(self.thresholds),
            "problem_config": asdict(self.problem_config),
            "epoch_seconds": float(self.epoch_seconds),
        }


@dataclass
class PipelineTimings:
    """Per-phase wall-time counters for one ``analyze_trace`` run.

    ``pack_s`` counts epoch-view construction: each view batch's build
    (floors included) is split evenly over its epochs and configs, so
    sums stay true, and ``n_view_batches`` counts the batches (each
    config of a sweep counts every batch of its grid);
    ``index_build_s`` counts trace-global index construction (once per
    run); ``aggregate_s`` accumulates per (epoch, metric) unit, the
    first epoch of a batch paying the batch's folds. ``problems_s``
    and ``critical_s`` time the two stages of each
    epoch's one detection pass over all its units: the problem stage is
    the predicate, the problem-cluster coverage and their decoded
    summaries; the critical stage is the taint, removal, minimality and
    attribution steps and the decoded critical clusters. A sweep splits
    the view and both stages evenly across its configs, so the sums over
    its analyses stay true. Sharded runs additionally count ``load_s``
    (mmap-loading shard snapshots) and ``merge_s`` (folding per-shard
    results into the whole-trace analysis). In parallel runs the phase
    counters sum time spent inside worker processes while ``wall_s``
    is the parent's wall clock, so ``phase_seconds > wall_s``
    indicates real parallel speedup.
    """

    pack_s: float = 0.0
    index_build_s: float = 0.0
    aggregate_s: float = 0.0
    problems_s: float = 0.0
    critical_s: float = 0.0
    load_s: float = 0.0
    merge_s: float = 0.0
    wall_s: float = 0.0
    n_epochs: int = 0
    n_units: int = 0
    n_view_batches: int = 0

    @property
    def phase_seconds(self) -> float:
        """Total time attributed to the instrumented phases."""
        return (
            self.pack_s
            + self.index_build_s
            + self.aggregate_s
            + self.problems_s
            + self.critical_s
            + self.load_s
            + self.merge_s
        )

    def merge(self, other: "PipelineTimings") -> None:
        """Accumulate another run's (or epoch's) counters into this one."""
        self.pack_s += other.pack_s
        self.index_build_s += other.index_build_s
        self.aggregate_s += other.aggregate_s
        self.problems_s += other.problems_s
        self.critical_s += other.critical_s
        self.load_s += other.load_s
        self.merge_s += other.merge_s
        self.n_epochs += other.n_epochs
        self.n_units += other.n_units
        self.n_view_batches += other.n_view_batches

    def as_dict(self) -> dict[str, float]:
        return {
            "pack_s": self.pack_s,
            "index_build_s": self.index_build_s,
            "aggregate_s": self.aggregate_s,
            "problems_s": self.problems_s,
            "critical_s": self.critical_s,
            "load_s": self.load_s,
            "merge_s": self.merge_s,
            "phase_s": self.phase_seconds,
            "wall_s": self.wall_s,
            "n_epochs": float(self.n_epochs),
            "n_units": float(self.n_units),
            "n_view_batches": float(self.n_view_batches),
        }

    def render(self) -> str:
        """Human-readable timing block (printed by ``--timings``)."""
        lines = [
            "Pipeline timings "
            f"({self.n_epochs} epochs, {self.n_units} epoch-metric units):",
            f"  pack (per-epoch shared)  : {self.pack_s:9.4f} s",
        ]
        if self.n_view_batches:
            lines.append(
                f"  view batches             : {self.n_view_batches:9d}"
                f" ({self.n_epochs / self.n_view_batches:.1f} epochs each)"
            )
        lines += [
            f"  index build (trace)      : {self.index_build_s:9.4f} s",
            f"  aggregate (per metric)   : {self.aggregate_s:9.4f} s",
            f"  problem clusters         : {self.problems_s:9.4f} s",
            f"  critical clusters        : {self.critical_s:9.4f} s",
        ]
        if self.load_s > 0:
            lines.append(f"  shard snapshot load      : {self.load_s:9.4f} s")
        if self.merge_s > 0:
            lines.append(f"  shard merge              : {self.merge_s:9.4f} s")
        lines += [
            f"  phase total              : {self.phase_seconds:9.4f} s",
            f"  wall clock               : {self.wall_s:9.4f} s",
        ]
        if self.wall_s > 0:
            lines.append(
                f"  parallel efficiency      : {self.phase_seconds / self.wall_s:9.2f}x"
            )
        return "\n".join(lines)


@dataclass
class EpochAnalysis:
    """Compact summary of one (epoch, metric) analysis."""

    epoch: int
    total_sessions: int
    total_problems: int
    min_sessions: int
    problem_cluster_coverage: float
    problem_clusters: dict[ClusterKey, ClusterStats]
    critical_clusters: dict[ClusterKey, CriticalAttribution]

    @property
    def global_ratio(self) -> float:
        if self.total_sessions == 0:
            return 0.0
        return self.total_problems / self.total_sessions

    @property
    def n_problem_clusters(self) -> int:
        return len(self.problem_clusters)

    @property
    def n_critical_clusters(self) -> int:
        return len(self.critical_clusters)

    @property
    def attributed_problem_sessions(self) -> float:
        return float(
            sum(c.attributed_problems for c in self.critical_clusters.values())
        )

    @property
    def critical_cluster_coverage(self) -> float:
        """Fraction of problem sessions attributed to critical clusters."""
        if self.total_problems == 0:
            return 0.0
        return self.attributed_problem_sessions / self.total_problems


@dataclass
class MetricAnalysis:
    """All epochs of one metric, plus derived temporal structure."""

    metric: QualityMetric
    grid: EpochGrid
    epochs: list[EpochAnalysis]

    def __post_init__(self) -> None:
        self._problem_timelines: dict[ClusterKey, ClusterTimeline] | None = None
        self._critical_timelines: dict[ClusterKey, ClusterTimeline] | None = None
        self._critical_totals: dict[ClusterKey, float] | None = None

    # -- per-epoch series ------------------------------------------------
    def series(self, accessor: Callable[[EpochAnalysis], float]) -> np.ndarray:
        return np.array([accessor(e) for e in self.epochs], dtype=np.float64)

    @property
    def problem_ratio_series(self) -> np.ndarray:
        """Fraction of problem sessions per epoch (paper Figure 2)."""
        return self.series(lambda e: e.global_ratio)

    @property
    def problem_cluster_counts(self) -> np.ndarray:
        return self.series(lambda e: e.n_problem_clusters)

    @property
    def critical_cluster_counts(self) -> np.ndarray:
        return self.series(lambda e: e.n_critical_clusters)

    @property
    def total_problem_sessions(self) -> int:
        return int(sum(e.total_problems for e in self.epochs))

    @property
    def mean_problem_clusters(self) -> float:
        counts = self.problem_cluster_counts
        return float(counts.mean()) if counts.size else 0.0

    @property
    def mean_critical_clusters(self) -> float:
        counts = self.critical_cluster_counts
        return float(counts.mean()) if counts.size else 0.0

    @property
    def mean_problem_cluster_coverage(self) -> float:
        vals = self.series(lambda e: e.problem_cluster_coverage)
        return float(vals.mean()) if vals.size else 0.0

    @property
    def mean_critical_cluster_coverage(self) -> float:
        vals = self.series(lambda e: e.critical_cluster_coverage)
        return float(vals.mean()) if vals.size else 0.0

    # -- temporal structure ----------------------------------------------
    def problem_timelines(self) -> dict[ClusterKey, ClusterTimeline]:
        if self._problem_timelines is None:
            self._problem_timelines = build_timelines(
                [e.problem_clusters for e in self.epochs],
                n_epochs=len(self.epochs),
            )
        return self._problem_timelines

    def critical_timelines(self) -> dict[ClusterKey, ClusterTimeline]:
        if self._critical_timelines is None:
            self._critical_timelines = build_timelines(
                [e.critical_clusters for e in self.epochs],
                n_epochs=len(self.epochs),
            )
        return self._critical_timelines

    def critical_attribution_totals(self) -> dict[ClusterKey, float]:
        """Total attributed problem sessions per critical identity.

        This is the "coverage" ranking used by the what-if analyses
        (Section 5.1): clusters that account for the most problem
        sessions over the whole trace come first. Memoised like the
        timelines; callers must not mutate the returned dict.
        """
        if self._critical_totals is None:
            totals: dict[ClusterKey, float] = {}
            for epoch in self.epochs:
                for key, attribution in epoch.critical_clusters.items():
                    totals[key] = totals.get(key, 0.0) + attribution.attributed_problems
            self._critical_totals = totals
        return self._critical_totals


@dataclass
class TraceAnalysis:
    """Full analysis of one trace across all configured metrics."""

    grid: EpochGrid
    config: AnalysisConfig
    metrics: dict[str, MetricAnalysis]
    timings: PipelineTimings = field(default_factory=PipelineTimings)

    def __getitem__(self, metric_name: str) -> MetricAnalysis:
        return self.metrics[metric_name]

    @property
    def metric_names(self) -> list[str]:
        return list(self.metrics)


def assemble_trace_analysis(
    grid: EpochGrid,
    config: AnalysisConfig,
    per_epoch: Sequence[Sequence[EpochAnalysis]],
    timings: PipelineTimings,
) -> TraceAnalysis:
    """Fold per-epoch summaries into the final :class:`TraceAnalysis`.

    ``per_epoch[e][j]`` is the summary of epoch ``e`` for the ``j``-th
    metric of ``config.metrics``. Shared by
    :func:`~repro.core.substrate.analyze_sweep` and the shard merge
    layer (:mod:`repro.core.shards`), so both assemble results
    identically.
    """
    metric_analyses: dict[str, MetricAnalysis] = {}
    for j, metric in enumerate(config.metrics):
        metric_analyses[metric.name] = MetricAnalysis(
            metric=metric,
            grid=grid,
            epochs=[per_epoch[e][j] for e in range(grid.n_epochs)],
        )
    return TraceAnalysis(
        grid=grid, config=config, metrics=metric_analyses, timings=timings
    )


def _epoch_summaries(
    units: Sequence[tuple[EpochAggregate, ProblemClusterConfig]], epoch: int
) -> tuple[list[EpochAnalysis], float, float]:
    """Detect every (aggregate, problem config) unit of one epoch in one
    pass and summarise each compactly (pickle-friendly, in unit order).

    Also returns the seconds of the problem stage (predicate, coverage
    and decoding) and of the critical stage (taint, removal,
    minimality, attribution and decoding).
    """
    t0 = time.perf_counter()
    problems = detect_problem_clusters(units)
    found = [(p.coverage, p.decoded()) for p in problems]
    t1 = time.perf_counter()
    critical = [c.decoded() for c in detect_critical_clusters(problems)]
    t2 = time.perf_counter()
    summaries = [
        EpochAnalysis(
            epoch=epoch,
            total_sessions=p.agg.total_sessions,
            total_problems=p.agg.total_problems,
            min_sessions=p.min_sessions,
            problem_cluster_coverage=coverage,
            problem_clusters=decoded,
            critical_clusters=critical_clusters,
        )
        for p, (coverage, decoded), critical_clusters in zip(
            problems, found, critical
        )
    ]
    return summaries, t1 - t0, t2 - t1


def analyze_trace(
    table: SessionTable,
    config: AnalysisConfig | None = None,
    grid: EpochGrid | None = None,
    progress: Callable[[int, int], None] | None = None,
    workers: int | str | None = None,
    substrate=None,
) -> TraceAnalysis:
    """Analyse a whole trace for every configured metric.

    Exactly ``analyze_sweep(table, [config], ...)[0]``, run under its
    own ``analyze_trace`` span. ``workers``: ``None``/``0``/``1`` run
    serially in-process, ``"auto"`` uses every CPU, ``n`` uses ``n``
    worker processes; results are identical at any count.
    ``substrate`` (optional) is a prebuilt
    :class:`~repro.core.substrate.AnalysisSubstrate` over the same
    table whose trace index is reused instead of rebuilt. ``progress``
    (optional) is called with ``(done_units, total_units)`` — units are
    (epoch, metric) pairs — once per epoch as each batch of epochs
    completes across all its metrics.
    """
    from repro.core.substrate import _run_sweep  # substrate imports us

    config = config or AnalysisConfig()
    tracer = current_tracer()
    with tracer.span(
        "analyze_trace", sessions=len(table), workers=resolve_worker_count(workers)
    ) as span:
        (analysis,) = _run_sweep(
            table, [config], grid, substrate, workers, progress
        )
        timings = analysis.timings
        span.set(epochs=analysis.grid.n_epochs)
        tracer.record(
            "aggregate", duration_s=timings.aggregate_s, units=timings.n_units
        )
        tracer.record("problems", duration_s=timings.problems_s)
        tracer.record("critical", duration_s=timings.critical_s)
        current_metrics().inc("pipeline.runs")
        current_metrics().inc("pipeline.epochs", analysis.grid.n_epochs)
    return analysis


def restrict_epochs(analysis: MetricAnalysis, epochs: Sequence[int]) -> MetricAnalysis:
    """A view of a metric analysis over a subset of epoch indices.

    Used by the proactive what-if simulation to form train/test splits
    (paper Section 5.2). Epoch indices are renumbered 0..len-1 so
    streak semantics remain contiguous within the subset; the view's
    grid is re-anchored at the first chosen epoch's true start time so
    ``epoch_start()`` keeps reporting trace timestamps (for
    non-contiguous subsets only the first epoch's timestamp is exact —
    a uniform grid cannot represent gaps).
    """
    epochs = list(epochs)
    chosen = [analysis.epochs[e] for e in epochs]
    renumbered = [
        EpochAnalysis(
            epoch=i,
            total_sessions=e.total_sessions,
            total_problems=e.total_problems,
            min_sessions=e.min_sessions,
            problem_cluster_coverage=e.problem_cluster_coverage,
            problem_clusters=e.problem_clusters,
            critical_clusters=e.critical_clusters,
        )
        for i, e in enumerate(chosen)
    ]
    origin = (
        analysis.grid.epoch_start(epochs[0]) if epochs else analysis.grid.origin
    )
    grid = EpochGrid(
        origin=origin,
        epoch_seconds=analysis.grid.epoch_seconds,
        n_epochs=len(renumbered),
    )
    return MetricAnalysis(metric=analysis.metric, grid=grid, epochs=renumbered)
