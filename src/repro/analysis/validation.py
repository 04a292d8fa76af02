"""Ground-truth validation of the critical-cluster detector.

The paper could only speculate about root causes (Section 4.3's
"illustrative and somewhat speculative" disclaimer). The synthetic
substrate lets us do better: every planted event has a known attribute
combination and activity window, so we can score the detector —
per-event recall (was the event's exact cluster flagged critical while
active?) and top-k precision (how many of the highest-coverage
critical clusters correspond to planted events?).

A detection is counted for an event when the critical cluster's key
equals the event's key, or is a superset/subset of it that still pins
the same principal (e.g. detecting ``[site=X, cdn=Y]`` for a planted
``[site=X]`` event counts as a *relaxed* match).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clusters import ClusterKey
from repro.core.pipeline import MetricAnalysis, TraceAnalysis
from repro.trace.events import EventCatalog, GroundTruthEvent


def keys_related(detected: ClusterKey, planted: ClusterKey) -> bool:
    """Exact, ancestor or descendant relationship between keys."""
    return (
        detected == planted
        or detected.is_ancestor_of(planted)
        or planted.is_ancestor_of(detected)
    )


@dataclass
class EventRecovery:
    """Detection outcome for one planted event.

    ``detectable_epochs`` counts active epochs in which the event's
    cluster was large enough to pass the significance floor at all —
    an event on an unpopular entity can be invisible *by design* (its
    problem sessions fall outside any significant cluster, exactly the
    paper's uncovered residue), and recall is fairer measured over the
    detectable epochs.
    """

    event: GroundTruthEvent
    active_epochs: int
    exact_detected_epochs: int
    relaxed_detected_epochs: int
    detectable_epochs: int | None = None
    exact_detected_detectable: int = 0

    @property
    def exact_recall(self) -> float:
        if self.active_epochs == 0:
            return 0.0
        return self.exact_detected_epochs / self.active_epochs

    @property
    def relaxed_recall(self) -> float:
        if self.active_epochs == 0:
            return 0.0
        return self.relaxed_detected_epochs / self.active_epochs

    @property
    def detectable_recall(self) -> float | None:
        """Recall over epochs where the cluster met the size floor."""
        if self.detectable_epochs is None:
            return None
        if self.detectable_epochs == 0:
            return 0.0
        return self.exact_detected_detectable / self.detectable_epochs

    @property
    def detected(self) -> bool:
        """Detected in at least one active epoch (exact key)."""
        return self.exact_detected_epochs > 0

    @property
    def detectable(self) -> bool:
        """Large enough to be found in at least one active epoch."""
        return self.detectable_epochs is None or self.detectable_epochs > 0


@dataclass
class ValidationReport:
    """Detector scores for one metric against the planted catalogue."""

    metric: str
    recoveries: list[EventRecovery] = field(default_factory=list)
    top_k: int = 0
    top_k_exact_matches: int = 0
    top_k_relaxed_matches: int = 0

    @property
    def n_events(self) -> int:
        return len(self.recoveries)

    @property
    def event_recall(self) -> float:
        """Fraction of planted events detected at least once."""
        if not self.recoveries:
            return 0.0
        return sum(r.detected for r in self.recoveries) / len(self.recoveries)

    @property
    def detectable_event_recall(self) -> float:
        """Event recall restricted to events that were ever detectable."""
        detectable = [r for r in self.recoveries if r.detectable]
        if not detectable:
            return 0.0
        return sum(r.detected for r in detectable) / len(detectable)

    @property
    def mean_detectable_epoch_recall(self) -> float:
        values = [
            r.detectable_recall
            for r in self.recoveries
            if r.detectable_recall is not None and r.detectable_epochs
        ]
        if not values:
            return 0.0
        return float(np.mean(values))

    @property
    def top_k_precision(self) -> float:
        """Fraction of top-k critical clusters matching planted events."""
        if self.top_k == 0:
            return 0.0
        return self.top_k_exact_matches / self.top_k

    @property
    def top_k_relaxed_precision(self) -> float:
        if self.top_k == 0:
            return 0.0
        return self.top_k_relaxed_matches / self.top_k


def _event_cluster_sizes(table, grid, event: GroundTruthEvent) -> np.ndarray:
    """Session count of the event's cluster per epoch."""
    rows = np.ones(len(table), dtype=bool)
    for attr, label in event.constraints:
        col = table.schema.index(attr)
        code = table.code_of(attr, label)
        if code is None:
            return np.zeros(grid.n_epochs, dtype=np.int64)
        rows &= table.codes[:, col] == code
    epochs = grid.epoch_of(table.start_time[rows])
    epochs = epochs[(epochs >= 0) & (epochs < grid.n_epochs)]
    return np.bincount(epochs, minlength=grid.n_epochs)


def validate_metric(
    ma: MetricAnalysis,
    catalog: EventCatalog,
    top_k: int = 20,
    table=None,
    grid=None,
) -> ValidationReport:
    """Score the detector for one metric.

    Only events whose *primary metric* is this metric are scored for
    recall (a bitrate event is not expected to surface as a join-time
    critical cluster — the paper's Table 2 finds precisely this
    decoupling). With ``table``/``grid`` supplied, detectability-aware
    recall is also computed.
    """
    n_epochs = len(ma.epochs)
    report = ValidationReport(metric=ma.metric.name)
    per_epoch_keys = [set(e.critical_clusters) for e in ma.epochs]

    for event in catalog.by_metric(ma.metric.name):
        active = event.active_epochs(n_epochs)
        key = event.cluster_key
        sizes = None
        if table is not None and grid is not None:
            sizes = _event_cluster_sizes(table, grid, event)
        exact = 0
        relaxed = 0
        detectable = 0
        exact_detectable = 0
        for epoch in np.nonzero(active)[0]:
            keys = per_epoch_keys[epoch]
            hit = key in keys
            if hit:
                exact += 1
                relaxed += 1
            elif any(keys_related(d, key) for d in keys):
                relaxed += 1
            if sizes is not None:
                if sizes[epoch] >= ma.epochs[epoch].min_sessions:
                    detectable += 1
                    if hit:
                        exact_detectable += 1
        report.recoveries.append(
            EventRecovery(
                event=event,
                active_epochs=int(active.sum()),
                exact_detected_epochs=exact,
                relaxed_detected_epochs=relaxed,
                detectable_epochs=detectable if sizes is not None else None,
                exact_detected_detectable=exact_detectable,
            )
        )

    # Precision of the top-k coverage ranking against the full
    # catalogue (any metric: a severe bitrate event can legitimately
    # also surface in buffering).
    totals = ma.critical_attribution_totals()
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    planted = {e.cluster_key for e in catalog}
    top = [key for key, _ in ranked[:top_k]]
    report.top_k = len(top)
    report.top_k_exact_matches = sum(key in planted for key in top)
    report.top_k_relaxed_matches = sum(
        any(keys_related(key, p) for p in planted) for key in top
    )
    return report


def validate_all(
    analysis: TraceAnalysis,
    catalog: EventCatalog,
    top_k: int = 20,
    table=None,
) -> dict[str, ValidationReport]:
    """Validation reports for every analysed metric."""
    grid = analysis.grid if table is not None else None
    return {
        name: validate_metric(ma, catalog, top_k=top_k, table=table, grid=grid)
        for name, ma in analysis.metrics.items()
    }
