"""Problem-cluster identification (paper Section 3.1).

A *problem cluster* in an epoch is a cluster whose problem ratio is at
least ``1.5x`` the epoch's global problem ratio (roughly two standard
deviations of the per-cluster ratio distribution, per the paper) and
which contains at least ``min_sessions`` sessions (the paper uses 1000
out of ~900k sessions/epoch; ``"auto"`` scales that proportion to the
trace at hand).

:class:`ProblemClusters` holds per-mask boolean flags aligned with the
:class:`~repro.core.aggregation.EpochAggregate` arrays, plus the
leaf-projection index matrix that the critical-cluster detector reuses.
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
    """Problem-cluster flags for one (epoch, metric) aggregate."""

    __slots__ = (
        "agg",
        "config",
        "min_sessions",
        "ratio_threshold",
        "is_problem",
        "leaf_proj_index",
        "_covered_leaves",
        "_leaf_problem_matrix",
        "_significant_rows",
        "_problem_rows",
        "_n_clusters",
    )

    def __init__(
        self,
        agg: EpochAggregate,
        config: ProblemClusterConfig,
        min_sessions: int,
        ratio_threshold: float,
        is_problem: dict[int, np.ndarray],
        leaf_proj_index: dict[int, np.ndarray],
    ) -> None:
        self.agg = agg
        self.config = config
        self.min_sessions = min_sessions
        self.ratio_threshold = ratio_threshold
        self.is_problem = is_problem
        self.leaf_proj_index = leaf_proj_index
        self._covered_leaves: np.ndarray | None = None
        self._leaf_problem_matrix: np.ndarray | None = None
        self._significant_rows: dict[int, np.ndarray] | None = None
        self._problem_rows: dict[int, np.ndarray] | None = None
        self._n_clusters: int | None = None

    @property
    def significant_rows(self) -> dict[int, np.ndarray]:
        """Per mask: sorted indices of clusters at/above the session floor.

        The only clusters the predicate can flag; the critical-cluster
        descendants test seeds from them. Populated for free by
        :func:`find_problem_clusters` (shared across a config sweep via
        the epoch view); recomputed here only for hand-built instances.
        """
        if self._significant_rows is None:
            self._significant_rows = {
                m: np.nonzero(mask_agg.sessions >= self.min_sessions)[0]
                for m, mask_agg in self.agg.per_mask.items()
            }
        return self._significant_rows

    @property
    def problem_rows(self) -> dict[int, np.ndarray]:
        """Per mask: sorted indices of the problem clusters."""
        if self._problem_rows is None:
            self._problem_rows = {
                m: np.nonzero(flags)[0] for m, flags in self.is_problem.items()
            }
        return self._problem_rows

    @property
    def n_clusters(self) -> int:
        """Total number of problem clusters in the epoch."""
        if self._n_clusters is None:
            self._n_clusters = int(
                sum(int(flags.sum()) for flags in self.is_problem.values())
            )
        return self._n_clusters

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
        for mask, rows in self.problem_rows.items():
            agg = self.agg.per_mask[mask]
            for i in rows:
                yield (
                    mask,
                    int(agg.keys[i]),
                    ClusterStats(int(agg.sessions[i]), int(agg.problems[i])),
                )

    def cluster_keys(self) -> list[ClusterKey]:
        """Decoded identities of every problem cluster."""
        return [
            self.agg.decode(mask, packed)
            for mask, packed, _ in self.iter_clusters()
        ]

    def contains(self, mask: int, packed: int) -> bool:
        agg = self.agg.per_mask.get(mask)
        if agg is None:
            return False
        idx = agg.index_of(packed)
        return bool(idx >= 0 and self.is_problem[mask][idx])

    def leaf_problem_matrix(self) -> np.ndarray:
        """(n_leaves, n_masks+1) bool: leaf's projection is a problem cluster.

        Column ``m`` (for non-empty masks) tells, for each distinct leaf
        combination, whether its projection onto mask ``m`` is a problem
        cluster. Column 0 (the root) is always False — the root's ratio
        *is* the global ratio. Computed once and cached; masks with no
        problem cluster are skipped (their columns stay False).
        """
        if self._leaf_problem_matrix is None:
            full = self.agg.codec.full_mask
            n_leaves = len(self.agg.leaf)
            matrix = np.zeros((n_leaves, full + 1), dtype=bool)
            for m in range(1, full + 1):
                if self.problem_rows[m].size == 0:
                    continue
                matrix[:, m] = self.is_problem[m][self.leaf_proj_index[m]]
            self._leaf_problem_matrix = matrix
        return self._leaf_problem_matrix

    @property
    def covered_leaves(self) -> np.ndarray:
        """Boolean per leaf: belongs to at least one problem cluster.

        Computed once and cached (``coverage`` and the critical-cluster
        summary both read it); masks with no problem cluster contribute
        nothing and are skipped.
        """
        if self._covered_leaves is None:
            n_leaves = len(self.agg.leaf)
            covered = np.zeros(n_leaves, dtype=bool)
            for m in range(1, self.agg.codec.full_mask + 1):
                if self.problem_rows[m].size:
                    covered |= self.is_problem[m][self.leaf_proj_index[m]]
            self._covered_leaves = covered
        return self._covered_leaves

    @property
    def covered_problem_sessions(self) -> int:
        """Problem sessions belonging to at least one problem cluster."""
        return int(self.agg.leaf.problems[self.covered_leaves].sum())

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
    clusters — so the predicate is evaluated once over the *significant*
    clusters of all masks concatenated flat, and the results scattered
    back into full-size per-mask flag arrays. Session counts are
    threshold-independent, so when the aggregate came from an
    :class:`~repro.core.index.EpochClusterView` the significant subset
    is cached on the view and shared by every thresholds variant
    of a config sweep (the leaf-projection index matrix likewise comes
    precomputed from the view — no per-epoch ``searchsorted`` at all).
    """
    config = config or ProblemClusterConfig()
    min_sessions = config.resolve_min_sessions(agg.total_sessions)
    ratio_threshold = config.ratio_multiplier * agg.global_ratio
    full = agg.codec.full_mask
    masks = range(1, full + 1)

    significant = None
    if agg.index is not None:
        significant = agg.index.significant_clusters(agg.metric_name, min_sessions)
    if significant is None:
        significant = {
            m: np.nonzero(agg.per_mask[m].sessions >= min_sessions)[0]
            for m in masks
        }

    ok_flat = cluster_problem_flags(
        np.concatenate([agg.per_mask[m].sessions[significant[m]] for m in masks]),
        np.concatenate([agg.per_mask[m].problems[significant[m]] for m in masks]),
        global_ratio=agg.global_ratio,
        ratio_threshold=ratio_threshold,
        min_sessions=min_sessions,
        min_problems=config.min_problems,
        significance_sigmas=config.significance_sigmas,
    )
    is_problem: dict[int, np.ndarray] = {}
    problem_rows: dict[int, np.ndarray] = {}
    start = 0
    for m in masks:
        sig = significant[m]
        ok = ok_flat[start : start + sig.size]
        start += sig.size
        flags = np.zeros(agg.per_mask[m].keys.size, dtype=bool)
        flags[sig] = ok
        is_problem[m] = flags
        problem_rows[m] = sig[ok]

    if agg.index is not None:
        # Indexed aggregate: the leaf -> cluster inverses were computed
        # once per epoch view, shared by every metric.
        leaf_proj_index = agg.index.leaf_to_cluster
    else:
        leaf_proj_index = {}
        field_masks = agg.codec.field_masks()
        leaf_keys = agg.leaf.keys
        for m in masks:
            if m == full:
                leaf_proj_index[m] = np.arange(leaf_keys.size)
            else:
                proj = leaf_keys & field_masks[m]
                # projections always exist by construction
                leaf_proj_index[m] = np.searchsorted(agg.per_mask[m].keys, proj)

    out = ProblemClusters(
        agg=agg,
        config=config,
        min_sessions=min_sessions,
        ratio_threshold=ratio_threshold,
        is_problem=is_problem,
        leaf_proj_index=leaf_proj_index,
    )
    out._significant_rows = significant
    out._problem_rows = problem_rows
    out._n_clusters = int(ok_flat.sum())
    return out
