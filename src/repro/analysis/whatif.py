"""What-if improvement analyses (paper Section 5).

"Fixing" a critical cluster means reducing the problem ratio of the
problem sessions attributed to it down to the epoch's global average
problem ratio — the paper's model of the best achievable outcome given
unavoidable background problems. Because the phase-transition
attribution partitions leaf combinations across critical clusters,
alleviations of different clusters in the same epoch never double
count.

Three strategies are simulated:

* **oracle** top-k fixing (Figure 11): rank critical-cluster
  identities by prevalence, persistence or coverage over the whole
  trace and fix the top fraction in every epoch they were flagged;
* **proactive** (Table 4): pick the top 1% on a historical window and
  fix them in future epochs;
* **reactive** (Figure 13, Table 5): watch streaks of critical
  clusters and fix each from its second hour (a 1-epoch detection
  delay) until it disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.clusters import ClusterKey
from repro.core.pipeline import EpochAnalysis, MetricAnalysis
from repro.core.streaks import max_persistence_values, prevalence_values

#: Ranking criteria for choosing which critical clusters to fix.
RANKINGS: tuple[str, ...] = ("coverage", "prevalence", "persistence")


def cluster_alleviation(epoch: EpochAnalysis, key: ClusterKey) -> float:
    """Problem sessions removed by fixing ``key`` in ``epoch``.

    Fixing reduces the attributed sessions' problem ratio to the
    epoch's global average: the alleviation is the attributed problem
    mass in excess of that baseline.
    """
    attribution = epoch.critical_clusters.get(key)
    if attribution is None:
        return 0.0
    baseline = epoch.global_ratio * attribution.attributed_sessions
    return max(attribution.attributed_problems - baseline, 0.0)


def row_alleviations(ma: MetricAnalysis) -> np.ndarray:
    """:func:`cluster_alleviation` of every critical row of the
    metric's result table, elementwise: the row's attributed problems
    in excess of its epoch's global ratio times its attributed
    sessions, or 0."""
    critical = ma.table.critical
    ratio = ma.problem_ratio_series[ma.table.positions("critical")]
    return np.maximum(
        critical["attributed_problems"]
        - ratio * critical["attributed_sessions"],
        0.0,
    )


@dataclass(frozen=True)
class AlleviationIndex:
    """Per-(critical identity, epoch) alleviation, computed once.

    Every what-if strategy in this module reduces to sums over the
    same quantity — the alleviation of cluster ``k`` in epoch ``e`` —
    so one pass over the critical rows builds a dense
    (identities x epochs) matrix and all strategies become array
    reductions: the oracle and top-k curves consume the per-key row
    sums (:attr:`totals`), the reactive simulation runs a run-length
    recurrence over :attr:`flagged` columns. Cached per
    :class:`MetricAnalysis` via :func:`alleviation_index`.
    """

    keys: tuple[ClusterKey, ...]
    key_index: dict[ClusterKey, int]
    #: (n_keys, n_epochs) alleviation; 0 where the key is not critical.
    value: np.ndarray
    #: (n_keys, n_epochs) True where the key is critical in the epoch.
    flagged: np.ndarray

    @property
    def totals(self) -> dict[ClusterKey, float]:
        """Total alleviation per identity across all epochs."""
        sums = self.value.sum(axis=1)
        return {key: float(sums[i]) for i, key in enumerate(self.keys)}


def alleviation_index(ma: MetricAnalysis) -> AlleviationIndex:
    """The metric's :class:`AlleviationIndex` (built once, cached).

    The cache lives on the ``MetricAnalysis`` instance itself (like its
    timeline caches), so train/test views from ``restrict_epochs`` get
    independent indexes.
    """
    cached = getattr(ma, "_whatif_alleviation", None)
    if cached is not None:
        return cached
    ids, keys = ma.table.identities("critical")
    epochs = ma.table.positions("critical")
    shape = (len(keys), len(ma.table))
    value = np.zeros(shape)
    flagged = np.zeros(shape, dtype=bool)
    value[ids, epochs] = row_alleviations(ma)
    flagged[ids, epochs] = True
    index = AlleviationIndex(
        keys=tuple(keys),
        key_index={key: k for k, key in enumerate(keys)},
        value=value,
        flagged=flagged,
    )
    ma._whatif_alleviation = index
    return index


def rank_critical_clusters(ma: MetricAnalysis, by: str = "coverage") -> list[ClusterKey]:
    """Critical identities ranked by the chosen criterion (best first).

    Coverage ties (and the volume-agnostic criteria) break toward the
    higher total attribution so rankings are deterministic.
    """
    totals = ma.critical_attribution_totals()
    if by == "coverage":
        scored = [(v, 0.0, k) for k, v in totals.items()]
    elif by in ("prevalence", "persistence"):
        timelines = ma.critical_timelines()
        values = prevalence_values if by == "prevalence" else max_persistence_values
        scored = [
            (primary, totals.get(key, 0.0), key)
            for primary, key in zip(values(timelines), timelines)
        ]
    else:
        raise ValueError(f"unknown ranking {by!r}; known: {RANKINGS}")
    scored.sort(key=lambda t: (-t[0], -t[1], repr(t[2])))
    return [key for _, _, key in scored]


def oracle_improvement(
    ma: MetricAnalysis, chosen: Iterable[ClusterKey]
) -> float:
    """Fraction of all problem sessions alleviated by fixing ``chosen``
    in every epoch where they appear as critical clusters."""
    total = ma.total_problem_sessions
    if total == 0:
        return 0.0
    index = alleviation_index(ma)
    rows = [index.key_index[k] for k in set(chosen) if k in index.key_index]
    if not rows:
        return 0.0
    return float(index.value[rows].sum()) / total


@dataclass
class ImprovementCurve:
    """Improvement vs top-fraction-of-clusters-fixed (one Fig. 11 line)."""

    metric: str
    ranking: str
    fractions: np.ndarray
    improvement: np.ndarray

    def at_fraction(self, fraction: float) -> float:
        """Improvement at the smallest tabulated fraction >= ``fraction``."""
        idx = int(np.searchsorted(self.fractions, fraction))
        idx = min(idx, self.fractions.size - 1)
        return float(self.improvement[idx])


#: Default sweep matching Figure 11's log x-axis.
DEFAULT_FRACTIONS = np.logspace(-4, 0, 17)


def topk_improvement_curve(
    ma: MetricAnalysis,
    by: str = "coverage",
    fractions: Sequence[float] | None = None,
) -> ImprovementCurve:
    """Figure 11: improvement from fixing the top-k critical clusters."""
    fracs = np.asarray(
        DEFAULT_FRACTIONS if fractions is None else fractions, dtype=np.float64
    )
    ranked = rank_critical_clusters(ma, by=by)
    n = len(ranked)
    total = ma.total_problem_sessions

    # Cumulative alleviation per rank, from the shared accumulator.
    per_key = alleviation_index(ma).totals
    cumulative = np.cumsum([per_key[key] for key in ranked]) if n else np.array([])

    improvement = np.zeros(fracs.size)
    for i, frac in enumerate(fracs):
        k = min(max(int(round(frac * n)), 1), n) if n else 0
        if k and total:
            improvement[i] = cumulative[k - 1] / total
    return ImprovementCurve(
        metric=ma.metric.name, ranking=by, fractions=fracs, improvement=improvement
    )


def attribute_restricted_curves(
    ma: MetricAnalysis,
    fractions: Sequence[float] | None = None,
) -> dict[str, ImprovementCurve]:
    """Figure 12: heuristic selection restricted to specific attributes.

    Compares fixing only Site / ASN / CDN / ConnectionType critical
    clusters (and their union) against considering every critical
    cluster ("Any"). The x-axis is normalised by the *total* number of
    critical clusters, as in the paper, so restricted families exhaust
    early.
    """
    fracs = np.asarray(
        DEFAULT_FRACTIONS if fractions is None else fractions, dtype=np.float64
    )
    ranked = rank_critical_clusters(ma, by="coverage")
    n_total = len(ranked)
    total = ma.total_problem_sessions

    per_key = alleviation_index(ma).totals

    union_attrs = ("site", "cdn", "asn", "connection_type")
    families: dict[str, Callable[[ClusterKey], bool]] = {
        "Any": lambda key: True,
        "{Site, CDN, ASN, ConnType}": lambda key: all(
            a in union_attrs for a in key.attributes
        ),
        "Site": lambda key: key.attributes == ("site",),
        "ASN": lambda key: key.attributes == ("asn",),
        "ConnType": lambda key: key.attributes == ("connection_type",),
        "CDN": lambda key: key.attributes == ("cdn",),
    }

    curves: dict[str, ImprovementCurve] = {}
    for label, predicate in families.items():
        family = [key for key in ranked if predicate(key)]
        cumulative = np.cumsum([per_key[key] for key in family])
        improvement = np.zeros(fracs.size)
        for i, frac in enumerate(fracs):
            k = min(int(round(frac * n_total)), len(family))
            if k and total:
                improvement[i] = cumulative[k - 1] / total
        curves[label] = ImprovementCurve(
            metric=ma.metric.name,
            ranking=f"coverage/{label}",
            fractions=fracs,
            improvement=improvement,
        )
    return curves


@dataclass
class ProactiveResult:
    """Table 4 cell: history-based fixing vs the oracle potential.

    ``potential`` uses the paper's procedure — rank the *test* window's
    clusters by attributed problem sessions and fix the top fraction.
    That ranking optimises attribution, not alleviation, so
    ``improvement`` can marginally exceed ``potential`` when the
    history-chosen set happens to alleviate more.
    """

    metric: str
    improvement: float  # "New" in the paper's Table 4
    potential: float

    @property
    def fraction_of_potential(self) -> float:
        if self.potential == 0:
            return 0.0
        return self.improvement / self.potential


def proactive_simulation(
    train: MetricAnalysis,
    test: MetricAnalysis,
    top_fraction: float = 0.01,
    by: str = "coverage",
    min_clusters: int = 1,
) -> ProactiveResult:
    """Proactive strategy (Section 5.2).

    Pick the top ``top_fraction`` critical identities on the training
    window, fix them wherever they recur in the test window; compare
    with the potential of picking the top fraction on the test window
    itself.

    ``min_clusters`` floors the selection size: the paper's 1% of tens
    of thousands of identities selects hundreds of clusters, whereas 1%
    of a synthetic trace's few hundred identities would select exactly
    one and make the comparison a coin flip. A floor of ~5 keeps the
    experiment meaningful at small scale without changing its paper
    semantics at large scale.
    """
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    if min_clusters < 1:
        raise ValueError("min_clusters must be >= 1")

    def top(ma: MetricAnalysis) -> list[ClusterKey]:
        ranked = rank_critical_clusters(ma, by=by)
        if not ranked:
            return []
        k = max(int(round(top_fraction * len(ranked))), min_clusters)
        return ranked[:k]

    improvement = oracle_improvement(test, top(train))
    potential = oracle_improvement(test, top(test))
    return ProactiveResult(
        metric=test.metric.name, improvement=improvement, potential=potential
    )


@dataclass
class ReactiveResult:
    """Reactive-strategy outcome (Figure 13 series + Table 5 numbers)."""

    metric: str
    detection_delay_epochs: int
    improvement: float  # "New" in Table 5
    potential: float  # zero-delay upper bound
    original_series: np.ndarray  # problem sessions per epoch
    after_series: np.ndarray  # problem sessions after reactive fixing
    unattributed_series: np.ndarray  # 'Not in critical clusters'

    @property
    def fraction_of_potential(self) -> float:
        if self.potential == 0:
            return 0.0
        return self.improvement / self.potential


def _streak_alleviation(
    ma: MetricAnalysis, detection_delay: int
) -> np.ndarray:
    """Per-epoch alleviated problem mass under a detection delay.

    A cluster's alleviation counts in epoch ``e`` iff its current
    critical streak has run for more than ``detection_delay`` epochs at
    ``e`` — i.e. the run length of consecutive flagged epochs ending at
    ``e`` is at least ``delay + 1``. Instead of enumerating streaks per
    key (the old triple loop), carry the run lengths of *all* keys
    forward with one vector recurrence per epoch and sum the
    alleviation of eligible keys columnwise.
    """
    index = alleviation_index(ma)
    n_keys, n_epochs = index.flagged.shape
    alleviated = np.zeros(n_epochs)
    if n_keys == 0:
        return alleviated
    run = np.zeros(n_keys, dtype=np.int64)
    for e in range(n_epochs):
        run = (run + 1) * index.flagged[:, e]
        alleviated[e] = index.value[run > detection_delay, e].sum()
    return alleviated


def reactive_simulation(
    ma: MetricAnalysis, detection_delay_epochs: int = 1
) -> ReactiveResult:
    """Reactive strategy (Section 5.3).

    A critical cluster is detected after it has been flagged for
    ``detection_delay_epochs`` consecutive epochs; remedial action then
    holds for the rest of that streak.
    """
    if detection_delay_epochs < 0:
        raise ValueError("detection delay must be non-negative")
    original = ma.series(lambda e: e.total_problems)
    unattributed = ma.series(
        lambda e: e.total_problems - e.attributed_problem_sessions
    )
    alleviated = _streak_alleviation(ma, detection_delay_epochs)
    potential_alleviated = _streak_alleviation(ma, 0)
    total = ma.total_problem_sessions
    return ReactiveResult(
        metric=ma.metric.name,
        detection_delay_epochs=detection_delay_epochs,
        improvement=float(alleviated.sum()) / total if total else 0.0,
        potential=float(potential_alleviated.sum()) / total if total else 0.0,
        original_series=original,
        after_series=original - alleviated,
        unattributed_series=unattributed,
    )
