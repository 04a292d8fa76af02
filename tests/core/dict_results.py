"""The dict-building result path, kept as the oracle of the columnar one.

Results used to be decoded inside the detection pass: every (epoch,
metric, config) unit turned its problem and critical clusters into
``ClusterKey -> ClusterStats`` and ``ClusterKey -> CriticalAttribution``
dicts, timelines inverted those dicts epoch by epoch, and attribution
totals were one running sum per key. :class:`repro.core.pipeline.ResultTable`
keeps identities packed and answers the same questions with group-bys.
This module is the old path, slow and plain:

* :func:`epoch_summaries` — one epoch's units detected in one pass and
  summarised as dicts;
* :func:`build_timelines` — per-epoch key sets inverted into timelines,
  keys in order of first appearance;
* :func:`attribution_totals` — the running sum over every epoch's
  critical dict;
* :func:`type_breakdown` and :func:`single_attribute_shares` — Figure
  10's running sums per attribute-type signature, over the same dicts;
* :func:`alleviation_matrix` and :func:`cluster_economics` — the
  what-if alleviation index and the cost-benefit economics, one pass
  over every epoch's critical dict;
* :func:`dict_sweep` — a whole trace through the three, one epoch
  view at a time.

:func:`assert_matches_dicts` compares an analysis to it by exact
equality, dtypes included.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.analysis.breakdown import (
    NOT_ATTRIBUTED,
    NOT_IN_PROBLEM_CLUSTER,
    BreakdownSector,
    critical_type_breakdown,
    signature_label,
    single_attribute_share,
)
from repro.analysis.costbenefit import CostModel, _cluster_economics
from repro.analysis.whatif import AlleviationIndex, alleviation_index, cluster_alleviation
from repro.core.attributes import DEFAULT_SCHEMA
from repro.core.epoching import EpochGrid
from repro.core.critical import detect_critical_clusters
from repro.core.pipeline import AnalysisConfig, EpochAnalysis, TraceAnalysis
from repro.core.problems import detect_problem_clusters
from repro.core.streaks import (
    ClusterTimeline,
    max_persistence_values,
    median_persistence_values,
    prevalence_values,
)
from repro.core.substrate import AnalysisSubstrate, epoch_floor


def epoch_summaries(units, epoch: int) -> list[EpochAnalysis]:
    """Detect every (aggregate, problem config) unit of one epoch in one
    pass and summarise each with decoded dicts, in unit order."""
    problems = detect_problem_clusters(units)
    found = [(p.coverage, p.decoded()) for p in problems]
    critical = [c.decoded() for c in detect_critical_clusters(problems)]
    return [
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


def build_timelines(
    per_epoch_keys: Sequence[Iterable[Hashable]], n_epochs: int
) -> dict[Hashable, ClusterTimeline]:
    """Invert per-epoch key sets into per-key timelines, keys in order
    of first appearance."""
    occurrences: dict[Hashable, list[int]] = {}
    for epoch, keys in enumerate(per_epoch_keys):
        for key in keys:
            occurrences.setdefault(key, []).append(epoch)
    return {
        key: ClusterTimeline(
            key=key, epochs=np.array(epochs, dtype=np.int64), n_epochs_total=n_epochs
        )
        for key, epochs in occurrences.items()
    }


def attribution_totals(epochs: Sequence[EpochAnalysis]) -> dict:
    """Attributed problem sessions per critical key, summed over the
    epochs in order."""
    totals: dict = {}
    for epoch in epochs:
        for key, attribution in epoch.critical_clusters.items():
            totals[key] = totals.get(key, 0.0) + attribution.attributed_problems
    return totals


def type_breakdown(
    epochs: Sequence[EpochAnalysis], max_sectors: int = 8
) -> list[BreakdownSector]:
    """Figure 10 for one metric: attributed problem sessions summed over
    the epochs per signature, the top ``max_sectors`` signatures, the
    rest folded, then the two residual sectors."""
    by_signature: dict[tuple[str, ...], float] = {}
    total_problems = 0.0
    attributed = 0.0
    in_problem_clusters = 0.0
    for epoch in epochs:
        total_problems += epoch.total_problems
        in_problem_clusters += epoch.problem_cluster_coverage * epoch.total_problems
        for key, attribution in epoch.critical_clusters.items():
            sig = key.attributes
            by_signature[sig] = by_signature.get(sig, 0.0) + attribution.attributed_problems
            attributed += attribution.attributed_problems
    if total_problems <= 0:
        return []
    ranked = sorted(by_signature.items(), key=lambda kv: -kv[1])
    sectors = [
        BreakdownSector(signature_label(sig, DEFAULT_SCHEMA), count, count / total_problems)
        for sig, count in ranked[:max_sectors]
    ]
    other = sum(count for _, count in ranked[max_sectors:])
    if other > 0:
        sectors.append(BreakdownSector("Other combinations", other, other / total_problems))
    unexplained = max(in_problem_clusters - attributed, 0.0)
    outside = max(total_problems - in_problem_clusters, 0.0)
    sectors.append(BreakdownSector(NOT_ATTRIBUTED, unexplained, unexplained / total_problems))
    sectors.append(BreakdownSector(NOT_IN_PROBLEM_CLUSTER, outside, outside / total_problems))
    return sectors


def single_attribute_shares(
    epochs: Sequence[EpochAnalysis],
    attributes: tuple[str, ...] = ("site", "cdn", "asn", "connection_type"),
) -> dict[str, float]:
    """Share of attributed problem sessions per single-attribute type."""
    totals = {a: 0.0 for a in attributes}
    attributed = 0.0
    for epoch in epochs:
        for key, attribution in epoch.critical_clusters.items():
            attributed += attribution.attributed_problems
            if len(key.attributes) == 1 and key.attributes[0] in totals:
                totals[key.attributes[0]] += attribution.attributed_problems
    if attributed == 0:
        return {a: 0.0 for a in attributes}
    return {a: v / attributed for a, v in totals.items()}


def alleviation_matrix(epochs: Sequence[EpochAnalysis]) -> AlleviationIndex:
    """The what-if alleviation index: each critical key's alleviation
    per epoch, keys in order of first appearance."""
    key_index: dict = {}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for e, epoch in enumerate(epochs):
        g = epoch.global_ratio
        for key, att in epoch.critical_clusters.items():
            rows.append(key_index.setdefault(key, len(key_index)))
            cols.append(e)
            vals.append(max(att.attributed_problems - g * att.attributed_sessions, 0.0))
    value = np.zeros((len(key_index), len(epochs)))
    flagged = np.zeros((len(key_index), len(epochs)), dtype=bool)
    if rows:
        value[rows, cols] = vals
        flagged[rows, cols] = True
    return AlleviationIndex(
        keys=tuple(key_index), key_index=key_index, value=value, flagged=flagged
    )


def cluster_economics(epochs: Sequence[EpochAnalysis], cost_model: CostModel) -> list:
    """Per critical key, in order of first appearance: (key, alleviation
    summed over the epochs in order, fix cost of its attributed
    sessions summed the same way)."""
    alleviation: dict = {}
    sessions: dict = {}
    for epoch in epochs:
        for key, attribution in epoch.critical_clusters.items():
            alleviation[key] = alleviation.get(key, 0.0) + cluster_alleviation(epoch, key)
            sessions[key] = sessions.get(key, 0.0) + attribution.attributed_sessions
    return [
        (key, gain, cost_model.cost_of(key, sessions[key]))
        for key, gain in alleviation.items()
    ]


def dict_sweep(
    table, configs: Sequence[AnalysisConfig], grid: EpochGrid | None = None
) -> list[dict[str, list[EpochAnalysis]]]:
    """Per config, per metric name, the dict summaries of every epoch:
    one epoch view per epoch, all of a config's metrics detected in one
    pass."""
    substrate = AnalysisSubstrate.build(table)
    out = []
    for config in configs:
        g = grid or substrate.grid_covering(config.epoch_seconds)
        per_metric: dict[str, list[EpochAnalysis]] = {
            m.name: [] for m in config.metrics
        }
        served = [(config.problem_config, m) for m in config.metrics]
        for epoch, rows in enumerate(substrate.epoch_rows(g)):
            view = substrate.epoch_view(
                rows, epoch, floor=epoch_floor(substrate.index, rows, served)
            )
            units = [
                (view.aggregate(m, thresholds=config.thresholds), config.problem_config)
                for m in config.metrics
            ]
            for m, summary in zip(config.metrics, epoch_summaries(units, epoch)):
                per_metric[m.name].append(summary)
        out.append(per_metric)
    return out


def restrict(epochs: Sequence[EpochAnalysis], chosen: Sequence[int]) -> list[EpochAnalysis]:
    """The dict summaries of the ``chosen`` epochs, renumbered from 0."""
    return [
        EpochAnalysis(
            epoch=i,
            total_sessions=epochs[e].total_sessions,
            total_problems=epochs[e].total_problems,
            min_sessions=epochs[e].min_sessions,
            problem_cluster_coverage=epochs[e].problem_cluster_coverage,
            problem_clusters=epochs[e].problem_clusters,
            critical_clusters=epochs[e].critical_clusters,
        )
        for i, e in enumerate(chosen)
    ]


def _same(a, b) -> None:
    """Equal values of the same type (numpy scalars and arrays by dtype)."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


def assert_epochs_match(got: Sequence[EpochAnalysis], want: Sequence[EpochAnalysis]) -> None:
    """Every epoch's scalars and decoded views, in order, by exact
    equality of values and types."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in (
            "epoch",
            "total_sessions",
            "total_problems",
            "min_sessions",
            "problem_cluster_coverage",
            "global_ratio",
            "n_problem_clusters",
            "n_critical_clusters",
            "attributed_problem_sessions",
            "critical_cluster_coverage",
        ):
            _same(getattr(g, name), getattr(w, name))
        for kind in ("problem_clusters", "critical_clusters"):
            got_items = list(getattr(g, kind).items())
            want_items = list(getattr(w, kind).items())
            assert got_items == want_items
            for (gk, gv), (wk, wv) in zip(got_items, want_items):
                _same(gk, wk)
                for field in vars(wv):
                    _same(getattr(gv, field), getattr(wv, field))


def assert_matches_dicts(ma, want: Sequence[EpochAnalysis]) -> None:
    """A metric analysis against the dict path over the same epochs:
    decoded epochs, timelines (ordered keys, epochs, dtypes), the
    prevalence and persistence values, the attribution totals, the
    Figure 10 breakdowns, the what-if alleviation index and the
    cost-benefit economics."""
    assert_epochs_match(ma.epochs, want)
    n = len(want)
    for kind, timelines in (
        ("problem_clusters", ma.problem_timelines()),
        ("critical_clusters", ma.critical_timelines()),
    ):
        expected = build_timelines([getattr(e, kind) for e in want], n)
        assert list(timelines) == list(expected)
        for key, timeline in timelines.items():
            _same(timeline.epochs, expected[key].epochs)
            _same(timeline.n_epochs_total, expected[key].n_epochs_total)
            assert timeline.streaks() == expected[key].streaks()
        for values in (
            prevalence_values,
            median_persistence_values,
            max_persistence_values,
        ):
            _same(values(timelines), values(expected))
    totals = ma.critical_attribution_totals()
    expected_totals = attribution_totals(want)
    assert list(totals.items()) == list(expected_totals.items())
    for key, value in totals.items():
        _same(value, expected_totals[key])
    for max_sectors in (8, 2):
        got = critical_type_breakdown(ma, max_sectors=max_sectors)
        assert got == type_breakdown(want, max_sectors)
        for sector, expected in zip(got, type_breakdown(want, max_sectors)):
            for field in vars(expected):
                _same(getattr(sector, field), getattr(expected, field))
    shares = single_attribute_share(ma)
    expected_shares = single_attribute_shares(want)
    assert list(shares.items()) == list(expected_shares.items())
    for name, value in shares.items():
        _same(value, expected_shares[name])
    index, expected_index = alleviation_index(ma), alleviation_matrix(want)
    assert index.keys == expected_index.keys
    assert list(index.key_index.items()) == list(expected_index.key_index.items())
    _same(index.value, expected_index.value)
    _same(index.flagged, expected_index.flagged)
    cost_model = CostModel()
    economics = _cluster_economics(ma, cost_model)
    expected_economics = cluster_economics(want, cost_model)
    assert economics == expected_economics
    for got_item, want_item in zip(economics, expected_economics):
        for g, w in zip(got_item, want_item):
            _same(g, w)


def assert_analysis_matches_dicts(
    analysis: TraceAnalysis, want: dict[str, list[EpochAnalysis]]
) -> None:
    assert list(analysis.metrics) == list(want)
    for name, ma in analysis.metrics.items():
        assert_matches_dicts(ma, want[name])
