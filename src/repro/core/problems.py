"""Problem-cluster identification (paper Section 3.1).

A *problem cluster* in an epoch is a cluster whose problem ratio is at
least ``1.5x`` the epoch's global problem ratio (roughly two standard
deviations of the per-cluster ratio distribution, per the paper) and
which contains at least ``min_sessions`` sessions (the paper uses 1000
out of ~900k sessions/epoch; ``"auto"`` scales that proportion to the
trace at hand).

:class:`ProblemClusters` holds the problem clusters as sorted cluster
ids of the aggregate's :class:`~repro.core.aggregation.EpochLattice`
plus one flag per cluster id, which the critical-cluster detector reads
whole. Detection is one predicate call over the lattice's significant
clusters; coverage is one gather of the flags through each problem
mask's leaf -> cluster row, summing the aggregate's per-leaf problem
counts. The lattice may be an iceberg that pruned the clusters below
its floor: the flags carry one trailing ``False`` slot, which is what a
pruned (-1) leaf -> cluster entry reads, and a config whose floor is
below the lattice's raises ``ValueError``
(:meth:`~repro.core.aggregation.EpochAggregate.significant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.aggregation import ClusterStats, EpochAggregate
from repro.core.clusters import ClusterKey

#: The paper's min cluster size (1000) as a fraction of its ~900k
#: sessions per epoch — used by ``min_sessions="auto"``.
PAPER_MIN_SESSION_FRACTION = 1000.0 / 900_000.0


def cluster_problem_flags(
    sessions: np.ndarray,
    problems: np.ndarray,
    *,
    global_ratio: float,
    ratio_threshold: float,
    min_sessions: int,
    min_problems: int,
    significance_sigmas: float,
) -> np.ndarray:
    """The problem-cluster predicate on raw count arrays (vectorised).

    This is the single authority both detection
    (:func:`find_problem_clusters`) and the critical-cluster
    ancestor-removal test (:meth:`ProblemClusters.counts_are_problem`)
    evaluate, so the two can never disagree through float rounding —
    the ratio condition is ``problems / sessions >= ratio_threshold``
    in both, never the algebraically-equal-but-not-float-equal
    ``problems >= ratio_threshold * sessions``.
    """
    sessions = np.asarray(sessions)
    problems = np.asarray(problems)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sessions > 0, problems / sessions, 0.0)
    expected = global_ratio * sessions
    sigma = np.sqrt(
        np.maximum(global_ratio * (1.0 - global_ratio) * sessions, 0.0)
    )
    return (
        (sessions >= min_sessions)
        & (problems >= min_problems)
        & (ratio >= ratio_threshold)
        & (problems >= expected + significance_sigmas * sigma)
    )


@dataclass(frozen=True)
class ProblemClusterConfig:
    """Thresholds for statistical significance of problem clusters.

    The paper's two conditions — ratio >= 1.5x global and >= 1000
    sessions — rely on its enormous per-epoch volume (expected ~100
    problem sessions per borderline cluster). At synthetic scale the
    same *relative* thresholds would admit clusters whose excess is one
    or two problem sessions of pure noise, so two extra
    significance guards are applied: a minimum absolute problem count
    (``min_problems``) and a normal-approximation binomial test
    (``significance_sigmas`` standard deviations above the expected
    problem count under the global ratio). Both are no-ops at
    paper scale.
    """

    ratio_multiplier: float = 1.5
    min_sessions: int | str = "auto"
    auto_fraction: float = PAPER_MIN_SESSION_FRACTION
    auto_floor: int = 60
    min_problems: int = 5
    significance_sigmas: float = 2.0

    def __post_init__(self) -> None:
        if self.ratio_multiplier <= 0:
            raise ValueError("ratio_multiplier must be positive")
        if self.min_problems < 1:
            raise ValueError("min_problems must be >= 1")
        if self.significance_sigmas < 0:
            raise ValueError("significance_sigmas must be non-negative")
        if isinstance(self.min_sessions, bool):
            # bool is a subclass of int: min_sessions=True would
            # silently mean a floor of 1 session.
            raise ValueError(
                f"min_sessions must be an int or 'auto', got {self.min_sessions!r}"
            )
        if isinstance(self.min_sessions, str):
            if self.min_sessions != "auto":
                raise ValueError(
                    f"min_sessions must be an int or 'auto', got {self.min_sessions!r}"
                )
        elif self.min_sessions < 1:
            raise ValueError("min_sessions must be >= 1")
        if self.auto_fraction <= 0 or self.auto_fraction >= 1:
            raise ValueError("auto_fraction must be in (0, 1)")
        if self.auto_floor < 1:
            raise ValueError("auto_floor must be >= 1")

    def resolve_min_sessions(self, total_sessions: int) -> int:
        """Concrete session floor for an epoch with ``total_sessions``."""
        if isinstance(self.min_sessions, int):
            return self.min_sessions
        return max(self.auto_floor, int(round(self.auto_fraction * total_sessions)))


class ProblemClusters:
    """Problem-cluster flags for one (epoch, metric) aggregate.

    ``significant`` holds the sorted ids of the clusters at or above the
    session floor, ``ids`` the sorted ids of the problem clusters and
    ``is_problem`` one flag per cluster id of ``agg.lattice`` plus the
    trailing ``False`` slot (:meth:`EpochLattice.flags
    <repro.core.aggregation.EpochLattice.flags>`).
    """

    __slots__ = (
        "agg",
        "config",
        "min_sessions",
        "ratio_threshold",
        "significant",
        "ids",
        "is_problem",
        "_covered_leaves",
    )

    def __init__(
        self,
        agg: EpochAggregate,
        config: ProblemClusterConfig,
        min_sessions: int,
        ratio_threshold: float,
        significant: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        self.agg = agg
        self.config = config
        self.min_sessions = min_sessions
        self.ratio_threshold = ratio_threshold
        self.significant = significant
        self.ids = ids
        self.is_problem = agg.lattice.flags(ids)
        self._covered_leaves: np.ndarray | None = None

    @property
    def n_clusters(self) -> int:
        """Total number of problem clusters in the epoch."""
        return int(self.ids.size)

    def counts_are_problem(
        self, sessions: np.ndarray, problems: np.ndarray
    ) -> np.ndarray:
        """The problem-cluster predicate on raw count arrays.

        Used by the critical-cluster ancestor-removal test, which must
        re-evaluate clusters after subtracting a candidate's sessions
        under exactly the same significance rules.
        """
        return cluster_problem_flags(
            sessions,
            problems,
            global_ratio=self.agg.global_ratio,
            ratio_threshold=self.ratio_threshold,
            min_sessions=self.min_sessions,
            min_problems=self.config.min_problems,
            significance_sigmas=self.config.significance_sigmas,
        )

    def iter_clusters(self) -> Iterator[tuple[int, int, ClusterStats]]:
        """Yield ``(mask, packed_key, stats)`` for every problem cluster."""
        agg = self.agg
        masks = agg.lattice.mask_of(self.ids).tolist()
        for mask, cid in zip(masks, self.ids.tolist()):
            yield (
                mask,
                int(agg.lattice.keys[cid]),
                ClusterStats(int(agg.sessions[cid]), int(agg.problems[cid])),
            )

    def decoded(self) -> dict[ClusterKey, ClusterStats]:
        """Problem-cluster counts keyed by stable, human-facing identity."""
        stats = (stats for _, _, stats in self.iter_clusters())
        return dict(zip(self.cluster_keys(), stats))

    def cluster_keys(self) -> list[ClusterKey]:
        """Decoded identities of every problem cluster."""
        return [self.agg.lattice.key_of(cid) for cid in self.ids.tolist()]

    def contains(self, mask: int, packed: int) -> bool:
        cid = self.agg.lattice.find(mask, packed)
        return bool(cid >= 0 and self.is_problem[cid])

    @property
    def covered_leaves(self) -> np.ndarray:
        """Boolean per leaf: belongs to at least one problem cluster.

        One gather of the flags through the leaf -> cluster rows of the
        masks that hold a problem cluster, computed once and cached.
        """
        if self._covered_leaves is None:
            lattice = self.agg.lattice
            masks = np.unique(lattice.mask_of(self.ids))
            self._covered_leaves = self.is_problem[
                lattice.leaf_cluster[masks]
            ].any(axis=0)
        return self._covered_leaves

    @property
    def covered_problem_sessions(self) -> int:
        """Problem sessions belonging to at least one problem cluster."""
        return int(self.agg.leaf_problems[self.covered_leaves].sum())

    @property
    def coverage(self) -> float:
        """Fraction of the epoch's problem sessions in problem clusters."""
        total = self.agg.total_problems
        if total == 0:
            return 0.0
        return self.covered_problem_sessions / total


def find_problem_clusters(
    agg: EpochAggregate, config: ProblemClusterConfig | None = None
) -> ProblemClusters:
    """Flag the problem clusters of one epoch aggregate.

    Only clusters at or above the session floor can pass the predicate,
    and they are typically a small fraction of the epoch's distinct
    clusters — so the predicate runs once over the significant ids of
    the whole lattice. Session counts are threshold-independent, so
    those ids are cached on the aggregate's lattice and shared by every
    thresholds variant of a config sweep.
    """
    config = config or ProblemClusterConfig()
    min_sessions = config.resolve_min_sessions(agg.total_sessions)
    ratio_threshold = config.ratio_multiplier * agg.global_ratio
    significant = agg.significant(min_sessions)
    ok = cluster_problem_flags(
        agg.sessions[significant],
        agg.problems[significant],
        global_ratio=agg.global_ratio,
        ratio_threshold=ratio_threshold,
        min_sessions=min_sessions,
        min_problems=config.min_problems,
        significance_sigmas=config.significance_sigmas,
    )
    return ProblemClusters(
        agg=agg,
        config=config,
        min_sessions=min_sessions,
        ratio_threshold=ratio_threshold,
        significant=significant,
        ids=significant[ok],
    )
