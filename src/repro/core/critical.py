"""Critical-cluster identification — the phase-transition algorithm.

Section 3.2 of the paper: a *critical cluster* is the minimal attribute
combination that explains problem clusters. It is a cluster ``C`` such
that

* ``C`` is itself a problem cluster,
* every **descendant** of ``C`` in the cluster DAG — every cluster that
  refines ``C`` with more attributes — is a problem cluster, among the
  statistically significant ones (clusters below the session floor are
  culled from the universe per Section 3.1 and are vacuously fine), and
* removing the sessions of ``C`` makes every **ancestor** of ``C``
  cease to be a problem cluster (the paper's Figure 5: ``CDN1`` and
  ``ASN1`` are only problem clusters because of ``CDN1, ASN1``).

"Closest to the root along each root-to-leaf path" becomes minimality
under set inclusion among a leaf's candidate projections; when a leaf
has several minimal candidates (the paper's corner case with correlated
attributes), its problem sessions are attributed in equal shares.

The descendant condition is evaluated **cluster-globally**: a candidate
``ASN1`` is disqualified if any significant ``(ASN1, CDN_k)`` sub-slice
is healthy — that pattern means the real cause lives in a specific
combination, not in the ASN. The implementation runs a bottom-up
dynamic program over the per-mask cluster tables (one boolean per
cluster, failing children folded onto parents with one ``bincount``
per lattice edge), so the cost stays near-linear in the number of
distinct clusters. When the aggregate carries an
:class:`~repro.core.index.EpochClusterView`, the child -> parent fold
indices are the view's cached projections — computed once per epoch,
shared by every metric and config of that epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.aggregation import ClusterStats
from repro.core.attributes import iter_submasks, popcount
from repro.core.clusters import ClusterKey
from repro.core.problems import ProblemClusters


@dataclass
class CriticalAttribution:
    """What one critical cluster is held responsible for in an epoch.

    ``attributed_problems``/``attributed_sessions`` are the problem and
    total session counts of the leaf combinations attributed to this
    critical cluster (fractional when a leaf splits between several
    minimal candidates). ``own_stats`` are the critical cluster's own
    counts — it is itself a problem cluster by construction.
    """

    attributed_problems: float
    attributed_sessions: float
    own_stats: ClusterStats


class CriticalClusters:
    """Critical clusters of one (epoch, metric) pair with attribution."""

    __slots__ = ("problems", "clusters", "unattributed_problem_sessions")

    def __init__(
        self,
        problems: ProblemClusters,
        clusters: dict[tuple[int, int], CriticalAttribution],
        unattributed_problem_sessions: float,
    ) -> None:
        self.problems = problems
        self.clusters = clusters
        self.unattributed_problem_sessions = unattributed_problem_sessions

    @property
    def agg(self):
        return self.problems.agg

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def attributed_problem_sessions(self) -> float:
        return float(
            sum(c.attributed_problems for c in self.clusters.values())
        )

    @property
    def coverage(self) -> float:
        """Fraction of the epoch's problem sessions attributed to some
        critical cluster (paper Table 1, "critical cluster coverage")."""
        total = self.agg.total_problems
        if total == 0:
            return 0.0
        return self.attributed_problem_sessions / total

    def iter_clusters(
        self,
    ) -> Iterator[tuple[int, int, CriticalAttribution]]:
        for (mask, packed), attribution in self.clusters.items():
            yield mask, packed, attribution

    def cluster_keys(self) -> list[ClusterKey]:
        return [self.agg.decode(m, p) for (m, p) in self.clusters]

    def decoded(self) -> dict[ClusterKey, CriticalAttribution]:
        """Attribution keyed by stable, human-facing cluster identity."""
        return {
            self.agg.decode(m, p): attribution
            for (m, p), attribution in self.clusters.items()
        }


def _project_index(agg, fine: int, coarse: int) -> np.ndarray:
    """Positions of mask ``fine``'s clusters within mask ``coarse``'s keys.

    Reuses the epoch view's cache when the aggregate carries an
    :class:`~repro.core.index.EpochClusterView` (at most one
    ``searchsorted`` per (fine, coarse) pair per epoch, shared by every
    metric and config of the epoch); falls back to a ``searchsorted``
    per call otherwise.
    """
    if agg.index is not None:
        return agg.index.project_index(fine, coarse)
    proj = agg.per_mask[fine].keys & agg.codec.field_masks()[coarse]
    return np.searchsorted(agg.per_mask[coarse].keys, proj)


def _tainted_clusters(problems: ProblemClusters) -> dict[int, np.ndarray]:
    """Per mask: sorted indices of clusters with a *bad* descendant.

    A cluster is bad when it is significant (at/above the session
    floor) but not a problem cluster; a candidate critical cluster must
    have no bad descendant (and not be bad itself — it is a problem
    cluster by construction). Equivalent to the old full-table
    descendants DP (``desc_ok[m] == cluster not in tainted[m]``), but
    runs entirely on the sparse bad set: seeds are the significant
    non-problem clusters of each mask, folded up the lattice one
    attribute at a time through the cached projection indices. Cost
    scales with the number of significant clusters — typically a small
    fraction of the distinct-cluster universe — instead of with the
    universe itself.
    """
    agg = problems.agg
    codec = agg.codec
    full = codec.full_mask

    tainted: dict[int, np.ndarray] = {}
    for m in sorted(range(1, full + 1), key=popcount, reverse=True):
        sig = problems.significant_rows[m]
        parts = []
        if sig.size:
            bad = sig[~problems.is_problem[m][sig]]
            if bad.size:
                parts.append(bad)
        for i in range(codec.n_attrs):
            bit = 1 << i
            child_mask = m | bit
            if child_mask == m or child_mask > full:
                continue
            child_tainted = tainted[child_mask]
            if child_tainted.size:
                parts.append(_project_index(agg, child_mask, m)[child_tainted])
        if parts:
            tainted[m] = np.unique(np.concatenate(parts))
        else:
            tainted[m] = np.empty(0, dtype=np.int64)
    return tainted


def _sorted_exclude(rows: np.ndarray, exclude: np.ndarray) -> np.ndarray:
    """``rows`` minus ``exclude`` (both sorted ascending)."""
    if rows.size == 0 or exclude.size == 0:
        return rows
    pos = np.minimum(np.searchsorted(exclude, rows), exclude.size - 1)
    return rows[exclude[pos] != rows]


def _removal_ok(
    problems: ProblemClusters, needed: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Ancestor-removal test for the candidate rows in ``needed``.

    For each candidate cluster ``C`` and each problem-cluster ancestor
    ``A`` of ``C``: after subtracting ``C``'s counts, ``A`` must no
    longer satisfy the problem-cluster predicate. Candidates are a
    handful of rows per mask, so everything is gathered down to them
    before the predicate runs.
    """
    agg = problems.agg
    out: dict[int, np.ndarray] = {}
    for m, rows in needed.items():
        mask_agg = agg.per_mask[m]
        ok = np.ones(rows.size, dtype=bool)
        for a in iter_submasks(m):
            live = np.nonzero(ok)[0]
            if live.size == 0:
                break
            anc_agg = agg.per_mask[a]
            idx = _project_index(agg, m, a)[rows[live]]
            rem_sessions = anc_agg.sessions[idx] - mask_agg.sessions[rows[live]]
            rem_problems = anc_agg.problems[idx] - mask_agg.problems[rows[live]]
            still_problem = problems.is_problem[a][idx] & problems.counts_are_problem(
                rem_sessions, rem_problems
            )
            ok[live[still_problem]] = False
        out[m] = rows[ok]
    return out


def find_critical_clusters(problems: ProblemClusters) -> CriticalClusters:
    """Run the phase-transition search over one epoch's problem clusters."""
    agg = problems.agg
    codec = agg.codec
    full = codec.full_mask
    n_masks = full + 1
    leaf = agg.leaf
    n_leaves = leaf.keys.size

    if n_leaves == 0 or agg.total_problems == 0:
        return CriticalClusters(problems, {}, 0.0)
    if problems.n_clusters == 0:
        # No problem clusters means no candidates: every problem
        # session is unattributed. Skipping the DP entirely is output-
        # identical (the candidate matrix would be all-False).
        return CriticalClusters(problems, {}, float(agg.total_problems))

    # Cluster-level candidacy: problem cluster + all descendants fine.
    tainted = _tainted_clusters(problems)
    pre: dict[int, np.ndarray] = {}
    for m in range(1, n_masks):
        rows = _sorted_exclude(problems.problem_rows[m], tainted[m])
        if rows.size:
            pre[m] = rows
    removal = _removal_ok(problems, pre)

    # Per candidate mask, a boolean over leaves: "this leaf's projection
    # onto the mask is a candidate". Only candidate masks get a column —
    # all other masks would be all-False.
    candidate_at_leaf: dict[int, np.ndarray] = {}
    for m, rows in removal.items():
        if rows.size == 0:
            continue
        flags = np.zeros(agg.per_mask[m].keys.size, dtype=bool)
        flags[rows] = True
        candidate_at_leaf[m] = flags[problems.leaf_proj_index[m]]

    # Minimality under set inclusion ("closest to the root") per leaf;
    # only candidate masks can disqualify.
    minimal: dict[int, np.ndarray] = {}
    for m, at_leaf in candidate_at_leaf.items():
        keep = at_leaf.copy()
        for a in iter_submasks(m):
            anc = candidate_at_leaf.get(a)
            if anc is None:
                continue
            keep &= ~anc
            if not keep.any():
                break
        minimal[m] = keep

    # Attribute each leaf's problem sessions to its minimal candidates,
    # splitting equally on ties.
    n_min = np.zeros(n_leaves, dtype=np.int64)
    for keep in minimal.values():
        n_min += keep
    leaf_problems = leaf.problems.astype(np.float64)
    leaf_sessions = leaf.sessions.astype(np.float64)
    clusters: dict[tuple[int, int], CriticalAttribution] = {}
    share = np.where(n_min > 0, 1.0 / np.maximum(n_min, 1), 0.0)

    for m in sorted(minimal):
        rows = np.nonzero(minimal[m])[0]
        if rows.size == 0:
            continue
        mask_agg = agg.per_mask[m]
        idx = problems.leaf_proj_index[m][rows]
        prob_acc = np.zeros(mask_agg.keys.size, dtype=np.float64)
        sess_acc = np.zeros(mask_agg.keys.size, dtype=np.float64)
        np.add.at(prob_acc, idx, leaf_problems[rows] * share[rows])
        np.add.at(sess_acc, idx, leaf_sessions[rows] * share[rows])
        for j in np.unique(idx):
            key = (m, int(mask_agg.keys[j]))
            clusters[key] = CriticalAttribution(
                attributed_problems=float(prob_acc[j]),
                attributed_sessions=float(sess_acc[j]),
                own_stats=ClusterStats(
                    int(mask_agg.sessions[j]), int(mask_agg.problems[j])
                ),
            )

    attributed = float(leaf_problems[n_min > 0].sum())
    unattributed = float(agg.total_problems) - attributed
    return CriticalClusters(problems, clusters, unattributed)
