"""Streaming critical-cluster monitoring.

The paper's reactive strategy (Section 5.3) is an offline simulation:
detect a critical cluster after its first hour, fix it for the rest of
its streak. This module packages that loop as an *online* component —
the piece a "coordinated video control plane" (the paper's reference
[21]) would actually run:

* feed :class:`OnlineDetector` one epoch of sessions at a time;
* it runs the per-epoch pipeline (aggregate -> problem clusters ->
  critical clusters) incrementally and maintains alert lifecycles:
  an alert is **raised** when a cluster first turns critical,
  **confirmed** once it has persisted for ``confirm_after`` consecutive
  epochs (the paper's one-hour detection delay corresponds to
  ``confirm_after=2``: seen, then still there an hour later), and
  **cleared** when it stops being critical;
* every confirmed epoch accrues the alert's *actionable alleviation* —
  the problem sessions that acting on the alert would have saved,
  matching the Section 5 accounting.

Identities are decoded :class:`ClusterKey` values, so the detector does
not require a shared vocabulary across epochs — slices from different
collectors interoperate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.aggregation import aggregate_epoch
from repro.core.clusters import ClusterKey
from repro.core.critical import find_critical_clusters
from repro.core.index import TraceClusterIndex
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.problems import ProblemClusterConfig, find_problem_clusters
from repro.core.sessions import SessionTable
from repro.core.substrate import StreamingSubstrate
from repro.obs import current_metrics, current_tracer


@dataclass
class ClusterAlert:
    """Lifecycle of one critical cluster streak."""

    key: ClusterKey
    metric: str
    raised_epoch: int
    confirmed_epoch: int | None = None
    cleared_epoch: int | None = None
    consecutive_epochs: int = 0
    total_active_epochs: int = 0
    absent_epochs: int = 0
    total_attributed_problems: float = 0.0
    actionable_alleviation: float = 0.0

    @property
    def is_open(self) -> bool:
        return self.cleared_epoch is None

    @property
    def is_confirmed(self) -> bool:
        return self.confirmed_epoch is not None

    @property
    def duration_epochs(self) -> int:
        """Epochs the cluster was actually critical over the alert."""
        return self.total_active_epochs


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition emitted by ``observe_epoch``."""

    kind: Literal["raised", "confirmed", "cleared"]
    epoch: int
    alert: ClusterAlert


@dataclass
class EpochObservation:
    """Summary of one observed epoch."""

    epoch: int
    total_sessions: int
    total_problems: int
    n_problem_clusters: int
    n_critical_clusters: int
    events: list[AlertEvent] = field(default_factory=list)


class OnlineDetector:
    """Incremental critical-cluster monitor for one quality metric."""

    def __init__(
        self,
        metric: QualityMetric,
        problem_config: ProblemClusterConfig | None = None,
        thresholds: MetricThresholds | None = None,
        confirm_after: int = 2,
        clear_after: int = 1,
        use_cluster_index: bool = True,
    ) -> None:
        """``clear_after`` adds hysteresis: an alert clears only after
        its cluster has been absent for that many consecutive epochs.
        Structural causes hover around the significance threshold and
        would otherwise flap raise/clear every other hour.

        ``use_cluster_index`` enables the streamed fast path: every
        observed epoch is appended to an internal
        :class:`~repro.core.substrate.StreamingSubstrate` — the table
        and the :class:`TraceClusterIndex` grow incrementally — and the
        epoch is reduced through the same
        :class:`~repro.core.index.EpochClusterView` path the batch
        engine uses. Any schema-compatible table keeps the fast
        path (equivalent tables from the same collector, a fresh table
        object per epoch, per-epoch slices of one big table — all
        stream); only a schema change falls back to the direct
        per-epoch :func:`~repro.core.aggregation.aggregate_epoch` for
        that observation. Detection output is identical either way."""
        if confirm_after < 1:
            raise ValueError("confirm_after must be >= 1")
        if clear_after < 1:
            raise ValueError("clear_after must be >= 1")
        self.metric = metric
        self.problem_config = problem_config or ProblemClusterConfig()
        self.thresholds = thresholds or MetricThresholds()
        self.confirm_after = confirm_after
        self.clear_after = clear_after
        self.use_cluster_index = use_cluster_index
        self.epochs_observed = 0
        self.open_alerts: dict[ClusterKey, ClusterAlert] = {}
        self.closed_alerts: list[ClusterAlert] = []
        self.history: list[EpochObservation] = []
        self._stream: StreamingSubstrate | None = None

    @property
    def substrate(self) -> StreamingSubstrate | None:
        """The incrementally maintained substrate behind the fast path
        (``None`` until the first streamed observation). Exposes the
        full batch path — ``detector.substrate.analyze(...)`` re-runs
        any config over everything observed so far."""
        return self._stream

    def _resolve_stream(self, table: SessionTable) -> StreamingSubstrate | None:
        """Streamed fast path: schema-compatible tables feed one
        incrementally maintained index.

        Compatibility is structural — same attribute schema — not
        object identity: a fresh but equivalent table every epoch (the
        case a real collector produces) streams through the same index,
        with vocabularies merged on append. A table with a different
        schema falls back to the direct per-epoch path (decoded
        identities still interoperate).
        """
        if not self.use_cluster_index:
            return None
        if self._stream is None:
            self._stream = StreamingSubstrate(schema=table.schema)
            self._stream.index.warm_metric_masks([self.metric], self.thresholds)
        elif self._stream.table.schema.names != table.schema.names:
            return None
        return self._stream

    def observe_epoch(
        self,
        table: SessionTable,
        rows: np.ndarray | None = None,
        cluster_index: TraceClusterIndex | None = None,
    ) -> EpochObservation:
        """Consume one epoch of sessions; returns the epoch summary
        with any alert transitions. ``cluster_index`` (optional) is a
        prebuilt index over ``table`` to reduce through."""
        epoch = self.epochs_observed
        if rows is None:
            rows = np.arange(len(table))
        with current_tracer().span(
            "online.observe_epoch", epoch=epoch, rows=int(rows.size)
        ) as obs_span:
            observation = self._observe_epoch(table, rows, cluster_index, epoch)
            obs_span.set(
                problem_clusters=observation.n_problem_clusters,
                critical_clusters=observation.n_critical_clusters,
            )
        self._export_metrics(observation)
        return observation

    def _export_metrics(self, observation: EpochObservation) -> None:
        """Keep the metrics registry current after each epoch.

        Gauges carry the *latest* detector state so a long-running
        detector is a ready Prometheus scrape target
        (:func:`repro.obs.render_prometheus`); counters accumulate
        lifecycle transitions; histograms catch per-epoch load tails.
        All no-ops unless a registry is installed.
        """
        metrics = current_metrics()
        metrics.inc("online.epochs")
        for event in observation.events:
            metrics.inc(f"online.alerts_{event.kind}")
        metrics.gauge("online.last_epoch", observation.epoch)
        metrics.gauge("online.problem_clusters", observation.n_problem_clusters)
        metrics.gauge(
            "online.critical_clusters", observation.n_critical_clusters
        )
        metrics.gauge("online.open_alerts", len(self.open_alerts))
        metrics.gauge(
            "online.confirmed_open_alerts",
            sum(1 for a in self.open_alerts.values() if a.is_confirmed),
        )
        metrics.gauge(
            "online.actionable_alleviation", self.total_actionable_alleviation
        )
        metrics.observe("online.epoch_sessions", observation.total_sessions)
        metrics.observe("online.epoch_problems", observation.total_problems)

    def _observe_epoch(
        self,
        table: SessionTable,
        rows: np.ndarray,
        cluster_index: TraceClusterIndex | None,
        epoch: int,
    ) -> EpochObservation:
        stream = None if cluster_index is not None else self._resolve_stream(table)
        if cluster_index is not None:
            agg = aggregate_epoch(
                table,
                rows,
                self.metric,
                epoch=epoch,
                thresholds=self.thresholds,
                cluster_index=cluster_index,
            )
        elif stream is not None:
            new_rows = stream.append(table.select(rows))
            view = stream.epoch_view(new_rows, epoch=epoch)
            agg = view.aggregate(self.metric, thresholds=self.thresholds)
        else:
            agg = aggregate_epoch(
                table, rows, self.metric, epoch=epoch, thresholds=self.thresholds
            )
        problems = find_problem_clusters(agg, self.problem_config)
        critical = find_critical_clusters(problems)
        decoded = critical.decoded()

        observation = EpochObservation(
            epoch=epoch,
            total_sessions=agg.total_sessions,
            total_problems=agg.total_problems,
            n_problem_clusters=problems.n_clusters,
            n_critical_clusters=critical.n_clusters,
        )
        global_ratio = agg.global_ratio

        # Update or raise alerts for the clusters critical this epoch.
        for key, attribution in decoded.items():
            alert = self.open_alerts.get(key)
            if alert is None:
                alert = ClusterAlert(
                    key=key, metric=self.metric.name, raised_epoch=epoch
                )
                self.open_alerts[key] = alert
                observation.events.append(AlertEvent("raised", epoch, alert))
            alert.consecutive_epochs += 1
            alert.total_active_epochs += 1
            alert.absent_epochs = 0
            alert.total_attributed_problems += attribution.attributed_problems
            if (
                not alert.is_confirmed
                and alert.consecutive_epochs >= self.confirm_after
            ):
                alert.confirmed_epoch = epoch
                observation.events.append(AlertEvent("confirmed", epoch, alert))
            if alert.is_confirmed:
                # What acting on the (already confirmed) alert saves
                # this epoch — the paper's Section 5 accounting.
                baseline = global_ratio * attribution.attributed_sessions
                alert.actionable_alleviation += max(
                    attribution.attributed_problems - baseline, 0.0
                )

        # Clear alerts whose clusters have been absent long enough
        # (hysteresis against threshold flapping).
        for key in list(self.open_alerts):
            if key in decoded:
                continue
            alert = self.open_alerts[key]
            alert.absent_epochs += 1
            alert.consecutive_epochs = 0
            if alert.absent_epochs >= self.clear_after:
                self.open_alerts.pop(key)
                alert.cleared_epoch = epoch - alert.absent_epochs + 1
                self.closed_alerts.append(alert)
                observation.events.append(AlertEvent("cleared", epoch, alert))

        self.epochs_observed += 1
        self.history.append(observation)
        return observation

    # -- reporting ---------------------------------------------------------
    @property
    def all_alerts(self) -> list[ClusterAlert]:
        return self.closed_alerts + list(self.open_alerts.values())

    @property
    def confirmed_alerts(self) -> list[ClusterAlert]:
        return [a for a in self.all_alerts if a.is_confirmed]

    @property
    def total_actionable_alleviation(self) -> float:
        """Problem sessions that acting on confirmed alerts would have
        saved so far."""
        return float(sum(a.actionable_alleviation for a in self.all_alerts))

    def critical_keys_at(self, epoch: int) -> set[ClusterKey]:
        """Critical identities observed at ``epoch`` (from lifecycles)."""
        keys = set()
        for alert in self.all_alerts:
            end = (
                alert.cleared_epoch
                if alert.cleared_epoch is not None
                else self.epochs_observed
            )
            if alert.raised_epoch <= epoch < end:
                keys.add(alert.key)
        return keys
