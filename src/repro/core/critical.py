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

Every (metric, config) *unit* of an epoch is searched in one pass over
the epoch's shared :class:`~repro.core.aggregation.EpochLattice`
(:func:`detect_critical_clusters`; :func:`find_critical_clusters` is
its one-unit case), with no loop over masks. The ancestor of cluster
``c`` on a submask ``a`` is ``leaf_cluster[a, rep_leaf[c]]``, and the
lattice builds the table of every (cluster, ancestor) pair once
(:meth:`~repro.core.aggregation.EpochLattice.pairs`), so:

* a unit's *tainted* set (clusters with a bad descendant, a bad cluster
  being significant but not a problem cluster) is the ancestors of the
  pairs whose owner is bad for it, one boolean gather of the table;
* the ancestor-removal test evaluates every (unit, pair) element whose
  owner is a candidate in one predicate call, each element with its
  unit's thresholds;
* minimality reads no leaves. A leaf under candidate ``c`` on mask
  ``m`` lies, on every strict submask of ``m``, under ``c``'s ancestor
  there, so "another candidate on a strict submask at this leaf" means
  "a strict ancestor of ``c`` is a candidate", whichever the leaf. The
  minimal candidates are the candidates that own no pair whose ancestor
  is a candidate;
* attribution, per unit, is one ``bincount`` per quantity over the
  (minimal candidate's mask, leaf) pairs in ascending mask then leaf
  order, the order a per-mask ``np.add.at`` would add them in, so the
  sums are bit-identical to it. It sums the aggregate's per-leaf
  counts, which cover every leaf of the epoch whether or not the
  lattice kept it.

A pass searches its units in groups whose units x pairs stay under a
fixed budget, and attributes per unit, so no array grows with units x
all pairs or units x masks x leaves. The lattice may be an iceberg:
the ancestors of a kept cluster are kept, so the ancestor pairs never
leave it, and the flags read through ``leaf_cluster`` carry the
trailing ``False`` slot that a pruned leaf's -1 entry reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.aggregation import ClusterStats
from repro.core.clusters import ClusterKey
from repro.core.problems import (
    ProblemClusters,
    _shared_lattice,
    _stack_predicates,
    cluster_problem_flags,
)


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

    ``ids`` holds the critical clusters' ids in the aggregate's lattice,
    in id order, and ``attributed_problems``/``attributed_sessions``
    their attribution, one float per id. The per-cluster
    :class:`CriticalAttribution` objects (:attr:`clusters`,
    :meth:`decoded`) are built on demand.
    """

    __slots__ = (
        "problems",
        "ids",
        "attributed_problems",
        "attributed_sessions",
        "unattributed_problem_sessions",
    )

    def __init__(
        self,
        problems: ProblemClusters,
        unattributed_problem_sessions: float,
        ids: np.ndarray | None = None,
        attributed_problems: np.ndarray | None = None,
        attributed_sessions: np.ndarray | None = None,
    ) -> None:
        empty = np.empty(0)
        self.problems = problems
        self.unattributed_problem_sessions = unattributed_problem_sessions
        self.ids = np.empty(0, dtype=np.int64) if ids is None else ids
        self.attributed_problems = (
            empty if attributed_problems is None else attributed_problems
        )
        self.attributed_sessions = (
            empty if attributed_sessions is None else attributed_sessions
        )

    @property
    def agg(self):
        return self.problems.agg

    @property
    def n_clusters(self) -> int:
        return int(self.ids.size)

    @property
    def attributed_problem_sessions(self) -> float:
        return float(sum(self.attributed_problems.tolist()))

    @property
    def coverage(self) -> float:
        """Fraction of the epoch's problem sessions attributed to some
        critical cluster (paper Table 1, "critical cluster coverage")."""
        total = self.agg.total_problems
        if total == 0:
            return 0.0
        return self.attributed_problem_sessions / total

    def columns(self) -> tuple[np.ndarray, ...]:
        """The critical clusters as columns, in cluster-id order: mask,
        packed key (against the lattice's codec), attributed problems,
        attributed sessions, own sessions, own problems."""
        ids, agg = self.ids, self.agg
        lattice = agg.lattice
        return (
            lattice.mask_of(ids),
            lattice.keys[ids],
            self.attributed_problems,
            self.attributed_sessions,
            agg.sessions[ids],
            agg.problems[ids],
        )

    def attributions(self) -> list[CriticalAttribution]:
        """One :class:`CriticalAttribution` per critical cluster, in id
        order."""
        _, _, p, s, own_s, own_p = (col.tolist() for col in self.columns())
        return list(map(CriticalAttribution, p, s, map(ClusterStats, own_s, own_p)))

    @property
    def clusters(self) -> dict[tuple[int, int], CriticalAttribution]:
        """``(mask, packed)`` -> attribution, in cluster-id order."""
        mask, key = (col.tolist() for col in self.columns()[:2])
        return dict(zip(zip(mask, key), self.attributions()))

    def iter_clusters(
        self,
    ) -> Iterator[tuple[int, int, CriticalAttribution]]:
        for (mask, packed), attribution in self.clusters.items():
            yield mask, packed, attribution

    def cluster_keys(self) -> list[ClusterKey]:
        return self.agg.lattice.keys_of(self.ids)

    def decoded(self) -> dict[ClusterKey, CriticalAttribution]:
        """Attribution keyed by stable, human-facing cluster identity."""
        return dict(zip(self.cluster_keys(), self.attributions()))


#: Most (unit, ancestor pair) elements one group of units of a pass
#: holds at once; larger passes are split into groups of units.
_PAIR_BUDGET = 1 << 20


def detect_critical_clusters(
    problems: Sequence[ProblemClusters],
) -> list[CriticalClusters]:
    """Run the phase-transition search over every unit's problem clusters.

    Every unit must be built on one lattice. The units with problem
    clusters are searched in groups whose units x ancestor pairs stay
    under a fixed budget; a unit's result does not depend on the group
    it is searched in.
    """
    if not problems:
        return []
    lattice = _shared_lattice(pc.agg for pc in problems)
    out: list[CriticalClusters | None] = [None] * len(problems)
    todo = []
    for u, pc in enumerate(problems):
        agg = pc.agg
        if lattice.n_leaves == 0 or agg.total_problems == 0:
            out[u] = CriticalClusters(pc, 0.0)
        elif pc.n_clusters == 0:
            # No problem clusters means no candidates: every problem
            # session is unattributed.
            out[u] = CriticalClusters(pc, float(agg.total_problems))
        else:
            todo.append(u)
    if todo:
        per_group = max(1, _PAIR_BUDGET // max(lattice.pairs()[0].size, 1))
        for lo in range(0, len(todo), per_group):
            group = todo[lo : lo + per_group]
            minimal = _minimal_candidates([problems[u] for u in group])
            for u, is_minimal in zip(group, minimal):
                out[u] = _attribute(problems[u], is_minimal)
    return out


def find_critical_clusters(problems: ProblemClusters) -> CriticalClusters:
    """Run the phase-transition search over one epoch's problem
    clusters: the one-unit case of :func:`detect_critical_clusters`."""
    (critical,) = detect_critical_clusters([problems])
    return critical


def _minimal_candidates(group: list[ProblemClusters]) -> np.ndarray:
    """Flags of each unit's minimal candidates, one row per unit, with
    the trailing ``False`` slot."""
    lattice = group[0].agg.lattice
    owner, ancestor = lattice.pairs()
    n = lattice.n_clusters
    is_problem = np.stack([pc.is_problem for pc in group])
    sessions = np.stack([pc.agg.sessions for pc in group])
    problem_counts = np.stack([pc.agg.problems for pc in group])
    predicate = _stack_predicates([pc.predicate for pc in group])

    # Descendants: a problem cluster is tainted when a descendant is
    # significant but not a problem cluster, i.e. when it is an
    # ancestor of such a bad cluster (a bad cluster is never a problem
    # cluster itself).
    bad = (sessions >= predicate["min_sessions"][:, None]) & ~is_problem[:, :n]
    candidate = is_problem.copy()
    for u in range(len(group)):
        candidate[u, ancestor[bad[u][owner]]] = False

    # Ancestor removal: after subtracting the candidate's counts, no
    # problem-cluster ancestor may still pass the predicate. One
    # predicate call over every (unit, pair) element whose owner is a
    # candidate, with its unit's thresholds per element.
    unit, pair = np.nonzero(candidate[:, owner])
    own, anc = owner[pair], ancestor[pair]
    still_problem = is_problem[unit, anc] & cluster_problem_flags(
        sessions[unit, anc] - sessions[unit, own],
        problem_counts[unit, anc] - problem_counts[unit, own],
        **{name: column[unit] for name, column in predicate.items()},
    )
    candidate[unit[still_problem], own[still_problem]] = False

    # Minimality ("closest to the root"): a leaf under a candidate lies
    # under each of the candidate's ancestors, so another candidate on a
    # strict submask at that leaf is a candidate ancestor, whichever the
    # leaf. The minimal candidates own no pair whose ancestor is a
    # candidate.
    nested = candidate[unit, own] & candidate[unit, anc]
    candidate[unit[nested], own[nested]] = False
    return candidate


def _attribute(problems: ProblemClusters, is_minimal: np.ndarray) -> CriticalClusters:
    """Attribute each leaf's problem sessions to the minimal candidates
    above it, splitting equally on ties. The (mask, leaf) pairs are
    summed in ascending mask then leaf order."""
    agg = problems.agg
    lattice = agg.lattice
    minimal = np.flatnonzero(is_minimal)
    leaf_ids = lattice.leaf_cluster[np.unique(lattice.mask_of(minimal))]
    under = is_minimal[leaf_ids]
    n_min = under.sum(axis=0)
    row, col = np.divmod(np.flatnonzero(under), lattice.n_leaves)
    share = 1.0 / n_min[col]
    slot = np.searchsorted(minimal, leaf_ids[row, col])
    attributed_problems = np.bincount(
        slot, weights=agg.leaf_problems[col] * share, minlength=minimal.size
    )
    attributed_sessions = np.bincount(
        slot, weights=agg.leaf_sessions[col] * share, minlength=minimal.size
    )
    attributed = float(agg.leaf_problems @ (n_min > 0))
    unattributed = float(agg.total_problems) - attributed
    return CriticalClusters(
        problems, unattributed, minimal, attributed_problems, attributed_sessions
    )
