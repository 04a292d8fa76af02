"""Streaming critical-cluster monitoring.

The paper's reactive strategy (Section 5.3) is an offline simulation:
detect a critical cluster after its first hour, fix it for the rest of
its streak. This module packages that loop as an *online* component —
the piece a "coordinated video control plane" (the paper's reference
[21]) would actually run:

* feed :class:`OnlineDetector` one epoch of sessions at a time;
* it runs the per-epoch pipeline (aggregate -> problem clusters ->
  critical clusters) on that epoch and maintains alert lifecycles:
  an alert is **raised** when a cluster first turns critical,
  **confirmed** once it has persisted for ``confirm_after`` consecutive
  epochs (the paper's one-hour detection delay corresponds to
  ``confirm_after=2``: seen, then still there an hour later), and
  **cleared** when it stops being critical;
* every confirmed epoch accrues the alert's *actionable alleviation* —
  the problem sessions that acting on the alert would have saved,
  matching the Section 5 accounting.

Identities are decoded :class:`ClusterKey` values, so the detector does
not require a shared vocabulary or schema across epochs — slices from
different collectors interoperate, and alert lifecycles carry over
whatever each epoch's table codes its labels as.

Detection is epoch-scoped: each epoch is indexed on its own (one
:meth:`~repro.core.substrate.AnalysisSubstrate.build`) and reduced
through the batch engine's one aggregation path, an
:class:`~repro.core.index.EpochClusterView` over all of its rows. The
detector keeps the observation history, the alert state and the last
epoch's substrate, so an epoch costs O(its rows) and the detector's
state does not grow with the number of epochs observed. Each epoch's
critical identities are kept on its :class:`EpochObservation`, so
:meth:`OnlineDetector.critical_keys_at` answers from the history,
whatever the alert hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.clusters import ClusterKey
from repro.core.critical import find_critical_clusters
from repro.core.index import EpochClusterView
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.problems import ProblemClusterConfig, find_problem_clusters
from repro.core.sessions import SessionTable
from repro.core.substrate import AnalysisSubstrate, epoch_floor
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
    critical_keys: frozenset[ClusterKey]
    events: list[AlertEvent] = field(default_factory=list)

    @property
    def n_critical_clusters(self) -> int:
        return len(self.critical_keys)


class OnlineDetector:
    """Critical-cluster monitor for one quality metric, fed one epoch at
    a time; it holds one epoch's substrate, its alerts and the
    per-epoch history."""

    def __init__(
        self,
        metric: QualityMetric,
        problem_config: ProblemClusterConfig | None = None,
        thresholds: MetricThresholds | None = None,
        confirm_after: int = 2,
        clear_after: int = 1,
    ) -> None:
        """``clear_after`` adds hysteresis: an alert clears only after
        its cluster has been absent for that many consecutive epochs.
        Structural causes hover around the significance threshold and
        would otherwise flap raise/clear every other hour.

        Every observed epoch is indexed on its own — a fresh
        :class:`~repro.core.substrate.AnalysisSubstrate` over its rows
        — and reduced through the same
        :class:`~repro.core.index.EpochClusterView` path the batch
        engine uses, so any table streams: a fresh table object per
        epoch, per-epoch slices of one big table, or tables with
        different vocabularies or schemas. Alert lifecycles key on
        decoded :class:`ClusterKey` values, so they carry over from
        epoch to epoch."""
        if confirm_after < 1:
            raise ValueError("confirm_after must be >= 1")
        if clear_after < 1:
            raise ValueError("clear_after must be >= 1")
        self.metric = metric
        self.problem_config = problem_config or ProblemClusterConfig()
        self.thresholds = thresholds or MetricThresholds()
        self.confirm_after = confirm_after
        self.clear_after = clear_after
        self.open_alerts: dict[ClusterKey, ClusterAlert] = {}
        self.closed_alerts: list[ClusterAlert] = []
        # Running total of the closed alerts' alleviation, in closing
        # order, so the total never re-reads the history.
        self._closed_alleviation = 0.0
        self.history: list[EpochObservation] = []
        self._substrate: AnalysisSubstrate | None = None

    @property
    def epochs_observed(self) -> int:
        """Epochs observed so far (one observation each in ``history``)."""
        return len(self.history)

    @property
    def substrate(self) -> AnalysisSubstrate | None:
        """The last observed epoch's substrate (``None`` before the
        first observation). ``detector.substrate.analyze(...)`` re-runs
        the batch path over that epoch; re-analysing everything
        observed is :func:`~repro.core.pipeline.analyze_trace` over the
        stored trace — the detector keeps no sessions but the last
        epoch's."""
        return self._substrate

    def observe_epoch(
        self, table: SessionTable, rows: np.ndarray | None = None
    ) -> EpochObservation:
        """Consume one epoch of sessions — ``rows`` of ``table``, or all
        of it — and return the epoch summary with any alert
        transitions.

        An epoch whose own vocabularies need more than the packed key's
        62 bits raises ``ValueError`` and changes nothing: the history,
        the alerts and :attr:`substrate` stay as they were."""
        epoch = self.epochs_observed
        n_rows = len(table) if rows is None else int(rows.size)
        with current_tracer().span(
            "online.observe_epoch", epoch=epoch, rows=n_rows
        ) as obs_span:
            view, observation = self._observe_epoch(table, rows, epoch)
            obs_span.set(
                leaves=view.n_leaves,
                clusters=view.lattice.n_clusters,
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
        metrics.gauge("online.state_bytes", self._substrate.memory_bytes())
        metrics.observe("online.epoch_sessions", observation.total_sessions)
        metrics.observe("online.epoch_problems", observation.total_problems)

    def _observe_epoch(
        self, table: SessionTable, rows: np.ndarray | None, epoch: int
    ) -> tuple[EpochClusterView, EpochObservation]:
        substrate = AnalysisSubstrate.build(
            table if rows is None else table.select(rows)
        )
        substrate.index.warm_metric_masks([self.metric], self.thresholds)
        every = np.arange(len(substrate))
        floor = epoch_floor(
            substrate.index, every, [(self.problem_config, self.metric)]
        )
        view = substrate.epoch_view(every, epoch=epoch, floor=floor)
        agg = view.aggregate(self.metric, thresholds=self.thresholds)
        problems = find_problem_clusters(agg, self.problem_config)
        critical = find_critical_clusters(problems)
        decoded = critical.decoded()

        observation = EpochObservation(
            epoch=epoch,
            total_sessions=agg.total_sessions,
            total_problems=agg.total_problems,
            n_problem_clusters=problems.n_clusters,
            critical_keys=frozenset(decoded),
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
                self._closed_alleviation += alert.actionable_alleviation
                observation.events.append(AlertEvent("cleared", epoch, alert))

        self.history.append(observation)
        self._substrate = substrate
        return view, observation

    # -- reporting ---------------------------------------------------------
    @property
    def all_alerts(self) -> list[ClusterAlert]:
        return self.closed_alerts + list(self.open_alerts.values())

    @property
    def total_actionable_alleviation(self) -> float:
        """Problem sessions that acting on confirmed alerts would have
        saved so far: the left-to-right sum over :attr:`all_alerts`,
        read off a running total of the closed ones plus the open ones,
        so its cost does not grow with the history."""
        total = self._closed_alleviation
        for alert in self.open_alerts.values():
            total += alert.actionable_alleviation
        return total

    def critical_keys_at(self, epoch: int) -> set[ClusterKey]:
        """Identities critical at ``epoch`` (empty if not yet observed).

        Read from the epoch's observation, not from alert lifecycles:
        under ``clear_after > 1`` an open alert spans epochs in which
        its cluster was absent.
        """
        if 0 <= epoch < len(self.history):
            return set(self.history[epoch].critical_keys)
        return set()
