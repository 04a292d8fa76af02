"""Problem-cluster identification (paper Section 3.1).

A *problem cluster* in an epoch is a cluster whose problem ratio is at
least ``1.5x`` the epoch's global problem ratio (roughly two standard
deviations of the per-cluster ratio distribution, per the paper) and
which contains at least ``min_sessions`` sessions (the paper uses 1000
out of ~900k sessions/epoch; ``"auto"`` scales that proportion to the
trace at hand).

:class:`ProblemClusters` holds the problem clusters of one (epoch,
metric, config) *unit* as sorted cluster ids of the aggregate's
:class:`~repro.core.aggregation.EpochLattice` plus one flag per cluster
id, which the critical-cluster detector reads whole.
:func:`detect_problem_clusters` flags every unit of an epoch at once: a
sweep's units (configs x metrics) share one lattice, so the predicate
is one call over a units x clusters matrix of counts, with each unit's
thresholds as a column. :func:`find_problem_clusters` is its one-unit
case. Coverage is one gather of the flags through the leaf -> cluster
rows of the masks holding a *coarsest* problem cluster (one with no
problem-cluster ancestor): every problem cluster lies under one, so
their leaves are all the problem clusters' leaves. The lattice may be
an iceberg that pruned the clusters below its floor: the flags carry
one trailing ``False`` slot, which is what a pruned (-1) leaf ->
cluster entry reads, and a unit whose floor is below the lattice's
raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.aggregation import ClusterStats, EpochAggregate, EpochLattice
from repro.core.clusters import ClusterKey

#: The paper's min cluster size (1000) as a fraction of its ~900k
#: sessions per epoch — used by ``min_sessions="auto"``.
PAPER_MIN_SESSION_FRACTION = 1000.0 / 900_000.0


def cluster_problem_flags(
    sessions: np.ndarray,
    problems: np.ndarray,
    *,
    global_ratio: float | np.ndarray,
    ratio_threshold: float | np.ndarray,
    min_sessions: int | np.ndarray,
    min_problems: int | np.ndarray,
    significance_sigmas: float | np.ndarray,
) -> np.ndarray:
    """The problem-cluster predicate on raw count arrays (vectorised).

    This is the single authority both detection
    (:func:`detect_problem_clusters`) and the critical-cluster
    ancestor-removal test evaluate, so the two can never disagree
    through float rounding — the ratio condition is
    ``problems / sessions >= ratio_threshold`` in both, never the
    algebraically-equal-but-not-float-equal
    ``problems >= ratio_threshold * sessions``. Each threshold is a
    scalar or an array broadcast against the counts (one value per
    unit); every operation is elementwise, so a unit's flags do not
    depend on what else is evaluated with it.
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
    """Problem-cluster flags for one (epoch, metric, config) unit.

    ``predicate`` holds the unit's keyword arguments of
    :func:`cluster_problem_flags` (its global ratio, resolved session
    floor and thresholds), which the critical-cluster removal test
    evaluates again. ``is_problem`` holds one flag per cluster id of
    ``agg.lattice`` plus the trailing ``False`` slot
    (:meth:`EpochLattice.flags
    <repro.core.aggregation.EpochLattice.flags>`), and ``ids`` the
    sorted ids of the problem clusters.
    """

    __slots__ = (
        "agg",
        "config",
        "predicate",
        "ids",
        "is_problem",
        "_covered_leaves",
    )

    def __init__(
        self,
        agg: EpochAggregate,
        config: ProblemClusterConfig,
        predicate: dict[str, float],
        is_problem: np.ndarray,
    ) -> None:
        self.agg = agg
        self.config = config
        self.predicate = predicate
        self.is_problem = is_problem
        self.ids = np.flatnonzero(is_problem)
        self._covered_leaves: np.ndarray | None = None

    @property
    def min_sessions(self) -> int:
        """The session floor the unit's config resolved to."""
        return self.predicate["min_sessions"]

    @property
    def ratio_threshold(self) -> float:
        return self.predicate["ratio_threshold"]

    @property
    def n_clusters(self) -> int:
        """Total number of problem clusters in the epoch."""
        return int(self.ids.size)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The problem clusters as columns, in cluster-id order: mask,
        packed key (against the lattice's codec), sessions, problems."""
        ids, agg = self.ids, self.agg
        lattice = agg.lattice
        return (
            lattice.mask_of(ids),
            lattice.keys[ids],
            agg.sessions[ids],
            agg.problems[ids],
        )

    def iter_clusters(self) -> Iterator[tuple[int, int, ClusterStats]]:
        """Yield ``(mask, packed_key, stats)`` for every problem cluster."""
        mask, key, sessions, problems = (col.tolist() for col in self.columns())
        return zip(mask, key, map(ClusterStats, sessions, problems))

    def decoded(self) -> dict[ClusterKey, ClusterStats]:
        """Problem-cluster counts keyed by stable, human-facing identity."""
        stats = (stats for _, _, stats in self.iter_clusters())
        return dict(zip(self.cluster_keys(), stats))

    def cluster_keys(self) -> list[ClusterKey]:
        """Decoded identities of every problem cluster."""
        return self.agg.lattice.keys_of(self.ids)

    def contains(self, mask: int, packed: int) -> bool:
        cid = self.agg.lattice.find(mask, packed)
        return bool(cid >= 0 and self.is_problem[cid])

    @property
    def covered_leaves(self) -> np.ndarray:
        """Boolean per leaf: belongs to at least one problem cluster.

        One gather of the flags through the leaf -> cluster rows of the
        masks that hold a coarsest problem cluster, computed once and
        cached. A problem cluster is coarsest when it owns no ancestor
        pair (:meth:`EpochLattice.pairs
        <repro.core.aggregation.EpochLattice.pairs>`) whose ancestor is
        a problem cluster too.
        """
        if self._covered_leaves is None:
            lattice = self.agg.lattice
            owner, ancestor = lattice.pairs()
            is_problem = self.is_problem
            finer = lattice.flags(
                owner[is_problem[owner] & is_problem[ancestor]]
            )
            coarsest = self.ids[~finer[self.ids]]
            masks = np.unique(lattice.mask_of(coarsest))
            self._covered_leaves = is_problem[lattice.leaf_cluster[masks]].any(
                axis=0
            )
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


def _shared_lattice(aggs: Iterable[EpochAggregate]) -> EpochLattice:
    """The one lattice every aggregate of a detection pass is built on."""
    lattices = {id(agg.lattice): agg.lattice for agg in aggs}
    if len(lattices) != 1:
        raise ValueError(
            f"one detection pass needs one epoch lattice, got {len(lattices)}"
        )
    (lattice,) = lattices.values()
    return lattice


def detect_problem_clusters(
    units: Sequence[tuple[EpochAggregate, ProblemClusterConfig]],
) -> list[ProblemClusters]:
    """Flag the problem clusters of every (aggregate, config) unit.

    Every aggregate must be built on one lattice (an epoch's view
    serves all metrics and configs). The predicate runs once over the
    units x clusters matrix of session and problem counts, each unit's
    :attr:`ProblemClusters.predicate` argument a column: elementwise
    the same float operations as one unit alone, so the flags are
    identical. A unit whose floor is below the lattice's raises
    ``ValueError`` (the clusters the lattice pruned could clear it).
    """
    if not units:
        return []
    lattice = _shared_lattice(agg for agg, _ in units)
    predicates = []
    for agg, config in units:
        floor = config.resolve_min_sessions(agg.total_sessions)
        if floor < lattice.floor:
            raise ValueError(
                f"session floor {floor} is below the floor "
                f"{lattice.floor} the epoch lattice was built for"
            )
        global_ratio = agg.global_ratio
        predicates.append(
            {
                "global_ratio": global_ratio,
                "ratio_threshold": config.ratio_multiplier * global_ratio,
                "min_sessions": floor,
                "min_problems": config.min_problems,
                "significance_sigmas": config.significance_sigmas,
            }
        )
    columns = _stack_predicates(predicates)
    flags = np.zeros((len(units), lattice.n_clusters + 1), dtype=bool)
    flags[:, :-1] = cluster_problem_flags(
        np.stack([agg.sessions for agg, _ in units]),
        np.stack([agg.problems for agg, _ in units]),
        **{name: column[:, None] for name, column in columns.items()},
    )
    return [
        ProblemClusters(agg, config, predicate, row)
        for (agg, config), predicate, row in zip(units, predicates, flags)
    ]


def _stack_predicates(
    predicates: Sequence[dict[str, float]],
) -> dict[str, np.ndarray]:
    """Per-unit predicate arguments as one array per keyword."""
    return {
        name: np.array([predicate[name] for predicate in predicates])
        for name in predicates[0]
    }


def find_problem_clusters(
    agg: EpochAggregate, config: ProblemClusterConfig | None = None
) -> ProblemClusters:
    """Flag the problem clusters of one epoch aggregate: the one-unit
    case of :func:`detect_problem_clusters`."""
    (problems,) = detect_problem_clusters([(agg, config or ProblemClusterConfig())])
    return problems
