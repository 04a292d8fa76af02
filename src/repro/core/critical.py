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
combination, not in the ASN.

Every step is a fixed number of whole-lattice array operations on the
aggregate's :class:`~repro.core.aggregation.EpochLattice`, with no
loop over masks. The ancestor of cluster ``c`` on a submask ``a`` is
``leaf_cluster[a, rep_leaf[c]]``, so:

* the *tainted* set (clusters with a bad descendant, a bad cluster being
  significant but not a problem cluster) is one scatter of every strict
  non-empty submask projection of every bad cluster;
* the ancestor-removal test evaluates every (candidate, strict
  non-empty submask) pair in one predicate call and reduces the
  failures per candidate with one ``bincount``;
* minimality is a candidate-mask x leaf boolean matrix; a leaf under
  several candidates drops each one that has another candidate on a
  strict submask (one boolean matrix product over those leaves);
* attribution is one ``bincount`` per quantity over the (candidate
  mask, leaf) pairs in ascending mask then leaf order, the order a
  per-mask ``np.add.at`` would add them in, so the sums are
  bit-identical to it. It sums the aggregate's per-leaf counts, which
  cover every leaf of the epoch whether or not the lattice kept it.

The lattice may be an iceberg: the ancestors of a kept cluster are
kept, so the ancestor pairs never leave it, and the candidate flags
read through ``leaf_cluster`` carry the trailing ``False`` slot that a
pruned leaf's -1 entry reads. The work grows with bad clusters x
submasks and with candidate masks x leaves, not with the number of
masks the lattice spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.aggregation import ClusterStats
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
    """Critical clusters of one (epoch, metric) pair with attribution.

    ``clusters`` maps ``(mask, packed)`` to the attribution in cluster-id
    order, and ``ids`` holds the same clusters' ids in the aggregate's
    lattice.
    """

    __slots__ = ("problems", "clusters", "unattributed_problem_sessions", "ids")

    def __init__(
        self,
        problems: ProblemClusters,
        clusters: dict[tuple[int, int], CriticalAttribution],
        unattributed_problem_sessions: float,
        ids: np.ndarray | None = None,
    ) -> None:
        self.problems = problems
        self.clusters = clusters
        self.unattributed_problem_sessions = unattributed_problem_sessions
        self.ids = np.empty(0, dtype=np.int64) if ids is None else ids

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
        return [self.agg.lattice.key_of(cid) for cid in self.ids.tolist()]

    def decoded(self) -> dict[ClusterKey, CriticalAttribution]:
        """Attribution keyed by stable, human-facing cluster identity."""
        return dict(zip(self.cluster_keys(), self.clusters.values()))


def find_critical_clusters(problems: ProblemClusters) -> CriticalClusters:
    """Run the phase-transition search over one epoch's problem clusters."""
    agg = problems.agg
    lattice = agg.lattice
    if lattice.n_leaves == 0 or agg.total_problems == 0:
        return CriticalClusters(problems, {}, 0.0)
    if problems.n_clusters == 0:
        # No problem clusters means no candidates: every problem
        # session is unattributed.
        return CriticalClusters(problems, {}, float(agg.total_problems))
    is_problem = problems.is_problem

    # Descendants: a problem cluster is tainted when a descendant is
    # significant but not a problem cluster, i.e. when it is an
    # ancestor of such a bad cluster (a bad cluster is never a problem
    # cluster itself).
    significant = problems.significant
    bad = significant[~is_problem[significant]]
    tainted = lattice.flags(lattice.ancestors(bad)[1])
    candidates = problems.ids[~tainted[problems.ids]]

    # Ancestor removal: after subtracting the candidate's counts, no
    # problem-cluster ancestor may still pass the predicate.
    owner, ancestor = lattice.ancestors(candidates)
    own = candidates[owner]
    still_problem = is_problem[ancestor] & problems.counts_are_problem(
        agg.sessions[ancestor] - agg.sessions[own],
        agg.problems[ancestor] - agg.problems[own],
    )
    candidates = candidates[
        np.bincount(owner[still_problem], minlength=candidates.size) == 0
    ]

    # Minimality under set inclusion ("closest to the root") per leaf:
    # a candidate mask x leaves matrix, minus every leaf that also has a
    # candidate on a strict submask. Only a leaf under several
    # candidates can lose one.
    masks = np.unique(lattice.mask_of(candidates))
    is_candidate = lattice.flags(candidates)
    leaf_ids = lattice.leaf_cluster[masks]
    minimal = is_candidate[leaf_ids]
    strict_submask = ((masks[None, :] & masks[:, None]) == masks[None, :]) & (
        masks[None, :] != masks[:, None]
    )
    shared = np.flatnonzero(np.count_nonzero(minimal, axis=0) > 1)
    minimal[:, shared] &= ~(strict_submask @ minimal[:, shared])

    # Attribute each leaf's problem sessions to its minimal candidates,
    # splitting equally on ties. The (mask, leaf) pairs are summed in
    # ascending mask then leaf order.
    n_min = minimal.sum(axis=0)
    leaf_problems = agg.leaf_problems.astype(np.float64)
    leaf_sessions = agg.leaf_sessions.astype(np.float64)
    share = np.where(n_min > 0, 1.0 / np.maximum(n_min, 1), 0.0)
    row, col = np.nonzero(minimal)
    ids, slot = np.unique(leaf_ids[row, col], return_inverse=True)
    attributed_problems = np.bincount(
        slot, weights=leaf_problems[col] * share[col], minlength=ids.size
    )
    attributed_sessions = np.bincount(
        slot, weights=leaf_sessions[col] * share[col], minlength=ids.size
    )
    clusters = {
        (mask, int(lattice.keys[cid])): CriticalAttribution(
            attributed_problems=p,
            attributed_sessions=s,
            own_stats=ClusterStats(int(agg.sessions[cid]), int(agg.problems[cid])),
        )
        for cid, mask, p, s in zip(
            ids.tolist(),
            lattice.mask_of(ids).tolist(),
            attributed_problems.tolist(),
            attributed_sessions.tolist(),
        )
    }

    attributed = float(leaf_problems[n_min > 0].sum())
    unattributed = float(agg.total_problems) - attributed
    return CriticalClusters(problems, clusters, unattributed, ids)
