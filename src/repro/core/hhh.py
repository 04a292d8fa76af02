"""Hierarchical heavy hitters — the baseline the paper contrasts with.

Section 7 ("Clustering algorithms") notes that critical-cluster
detection is *conceptually similar* to hierarchical heavy hitters
(HHH, Zhang et al., IMC 2004) but differs in a key way: HHH finds
clusters whose *volume* (here, problem-session count) remains above a
threshold after discounting descendants already reported, whereas the
critical-cluster algorithm attributes problems to one specific cluster
via the phase-transition test.

This module implements the classic bottom-up HHH detector over the same
per-epoch aggregates so the ablation bench (`abl-hhh`) can compare both
detectors against planted ground-truth events. It reads the whole
lattice, i.e. an aggregate of a floor-1
:class:`~repro.core.index.EpochClusterView`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import EpochAggregate
from repro.core.attributes import popcount
from repro.core.clusters import ClusterKey


@dataclass(frozen=True)
class HHHConfig:
    """Threshold for HHH detection.

    ``phi`` is the heavy-hitter fraction: a cluster is reported when its
    *discounted* problem-session count is at least ``phi *
    total_problem_sessions`` of the epoch.
    """

    phi: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.phi <= 1:
            raise ValueError("phi must be in (0, 1]")


@dataclass(frozen=True)
class HeavyHitter:
    """One reported HHH cluster."""

    key: ClusterKey
    discounted_problems: float
    raw_problems: int


def find_hierarchical_heavy_hitters(
    agg: EpochAggregate, config: HHHConfig | None = None
) -> list[HeavyHitter]:
    """Bottom-up HHH over one epoch's problem-session counts.

    Processes masks from the leaf level upward. For each cluster, the
    discounted count subtracts the raw problem counts of all *reported*
    descendants (each descendant discounted once via leaf-level
    bookkeeping: a leaf's problems are claimed by the deepest reported
    cluster containing it).

    Needs the whole lattice (a floor-1 view): a heavy hitter's
    discounted count can clear ``phi`` while its session count is below
    any §3.1 floor, so an aggregate over an iceberg lattice raises
    ``ValueError``. A floor-1 view also keeps zero-count clusters for
    leaves with no valid session for the metric; their discounted count
    is 0, below ``phi`` times a non-zero total, so they are never
    reported and the list is the one a lattice without them gives.
    """
    config = config or HHHConfig()
    lattice = agg.lattice
    if lattice.floor > 1:
        raise ValueError(
            f"HHH needs the whole lattice; this one was built for a "
            f"floor of {lattice.floor} sessions"
        )
    total = agg.total_problems
    if total == 0:
        return []
    threshold = config.phi * total

    full = agg.codec.full_mask
    # Unclaimed problem mass per leaf; claimed mass is removed as soon
    # as a descendant cluster is reported.
    unclaimed = agg.leaf_problems.astype(np.float64).copy()

    hitters: list[HeavyHitter] = []
    masks_by_depth = sorted(range(1, full + 1), key=popcount, reverse=True)
    current_depth = None
    pending_claims: list[np.ndarray] = []

    def apply_claims() -> None:
        for rows in pending_claims:
            unclaimed[rows] = 0.0
        pending_claims.clear()

    for m in masks_by_depth:
        depth = popcount(m)
        if depth != current_depth:
            # Entering a new (shallower) level: descendants reported at
            # deeper levels now discount their leaves.
            apply_claims()
            current_depth = depth
        span = lattice.span(m)
        idx = lattice.leaf_cluster[m] - span.start
        discounted = np.zeros(span.stop - span.start, dtype=np.float64)
        np.add.at(discounted, idx, unclaimed)
        hits = np.nonzero(discounted >= threshold)[0]
        for j in hits:
            hitters.append(
                HeavyHitter(
                    key=lattice.key_of(span.start + int(j)),
                    discounted_problems=float(discounted[j]),
                    raw_problems=int(agg.problems[span.start + j]),
                )
            )
            pending_claims.append(np.nonzero(idx == j)[0])
    apply_claims()
    return hitters
