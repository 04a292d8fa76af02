"""Engagement impact of quality problems (the paper's motivation).

The paper's premise (Section 1, citing Dobrian et al. SIGCOMM'11 and
Krishnan & Sitaraman IMC'12) is that quality problems cost *engagement*
— viewing minutes and return visits — and therefore revenue. The
evaluation then counts problem *sessions*; this module closes the
motivational loop by weighting problems with an engagement model:

* buffering: each percentage point of buffering ratio costs
  ``minutes_lost_per_buffering_point`` minutes of viewing (the paper
  quotes 3-4 minutes per 1%, Section 2);
* join failures: the entire expected session is lost;
* slow joins: abandonment probability grows with join time beyond a
  patience threshold (Krishnan & Sitaraman's quasi-experiments);
* low bitrate: a mild multiplicative engagement discount.

``engagement_weighted_ranking`` re-ranks critical clusters by estimated
viewing-minutes lost, which can differ substantially from the
session-count ranking — a cluster of short mobile sessions counts the
same in sessions but much less in minutes.

Clusters are priced over the table's leaf index, not its rows
(:func:`cluster_engagement_impact`): the per-session losses are
evaluated once and summed per leaf, and each cluster's loss is the sum
over the leaves under it, one vectorised pass per attribute mask for
all the clusters of that mask. The report prices the union of every
metric's critical identities with one call. Sessions are exact; minutes
equal a scan of every row up to summation order (the row scan is the
test suite's oracle, ``tests/analysis/rowscan_engagement.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.clusters import ClusterKey
from repro.core.index import TraceClusterIndex
from repro.core.pipeline import MetricAnalysis
from repro.core.sessions import SessionTable


@dataclass(frozen=True)
class EngagementModel:
    """Calibration of quality -> lost viewing minutes."""

    #: Minutes of viewing lost per percentage point of buffering ratio
    #: (paper Section 2: "even a 1% increase in buffering ratio can
    #: lead to 3-4 minutes of lost viewership").
    minutes_lost_per_buffering_point: float = 3.5
    #: Expected minutes a successful session would have delivered,
    #: used to price a join failure.
    expected_session_minutes: float = 12.0
    #: Join-time patience: abandonment probability approaches 1 as
    #: join time grows; at ``join_patience_s`` it is ~63%.
    join_patience_s: float = 15.0
    #: Engagement discount per halving of bitrate below the reference.
    bitrate_reference_kbps: float = 2000.0
    bitrate_discount_per_halving: float = 0.06

    def __post_init__(self) -> None:
        if self.minutes_lost_per_buffering_point < 0:
            raise ValueError("minutes lost must be non-negative")
        if self.expected_session_minutes <= 0:
            raise ValueError("expected session minutes must be positive")
        if self.join_patience_s <= 0:
            raise ValueError("join patience must be positive")
        if not 0 <= self.bitrate_discount_per_halving < 1:
            raise ValueError("bitrate discount must be in [0, 1)")

    # -- per-session losses (vectorised) -----------------------------------
    def buffering_minutes_lost(self, table: SessionTable) -> np.ndarray:
        """Viewing minutes lost to rebuffering, per session."""
        ratio_points = table.buffering_ratio * 100.0
        return np.where(
            table.join_failed, 0.0,
            ratio_points * self.minutes_lost_per_buffering_point,
        )

    def join_failure_minutes_lost(self, table: SessionTable) -> np.ndarray:
        """Whole expected sessions lost to join failures."""
        return np.where(
            table.join_failed, self.expected_session_minutes, 0.0
        )

    def join_time_minutes_lost(self, table: SessionTable) -> np.ndarray:
        """Expected abandonment loss from slow joins."""
        join = np.nan_to_num(table.join_time_s, nan=0.0)
        abandon_p = 1.0 - np.exp(-join / self.join_patience_s)
        return np.where(
            table.join_failed, 0.0,
            abandon_p * self.expected_session_minutes,
        )

    def bitrate_minutes_lost(self, table: SessionTable) -> np.ndarray:
        """Engagement discount from sub-reference bitrates."""
        bitrate = np.nan_to_num(table.bitrate_kbps, nan=self.bitrate_reference_kbps)
        halvings = np.maximum(
            np.log2(self.bitrate_reference_kbps / np.maximum(bitrate, 1.0)), 0.0
        )
        watched_minutes = np.where(
            table.join_failed, 0.0, table.duration_s / 60.0
        )
        discount = np.minimum(
            halvings * self.bitrate_discount_per_halving, 0.95
        )
        return watched_minutes * discount

    def total_minutes_lost(self, table: SessionTable) -> np.ndarray:
        """All quality-driven engagement losses, per session."""
        return (
            self.buffering_minutes_lost(table)
            + self.join_failure_minutes_lost(table)
            + self.join_time_minutes_lost(table)
            + self.bitrate_minutes_lost(table)
        )


@dataclass
class EngagementImpact:
    """Engagement loss attributed to one cluster."""

    key: ClusterKey
    sessions: int
    minutes_lost: float
    minutes_lost_share: float


def cluster_engagement_impact(
    table: SessionTable,
    keys: list[ClusterKey],
    model: EngagementModel | None = None,
) -> list[EngagementImpact]:
    """Estimated viewing-minutes lost within each cluster, in input order.

    Clusters may overlap; shares are of the trace's total loss, so
    overlapping clusters can sum past 1.

    Every session is priced once, the table's
    :class:`~repro.core.index.TraceClusterIndex` is built (one pack and
    one ``np.unique``), and losses and sessions are summed per leaf with
    one ``bincount`` each over ``row_to_leaf``. A cluster's loss is the
    sum over the leaves under it: keys are grouped by attribute mask,
    and per mask one projection of the leaf keys, one ``searchsorted``
    against the mask's sorted wanted keys and one ``bincount`` per sum
    price all of its keys. A key with a label the table has never seen
    holds no session; duplicate keys get equal impacts. Raises
    ``ValueError`` when the table's vocabularies need more than the
    packed key's 62 bits.
    """
    model = model or EngagementModel()
    losses = model.total_minutes_lost(table)
    total = float(losses.sum())
    index = TraceClusterIndex.build(table)
    leaf_minutes = np.bincount(
        index.row_to_leaf, weights=losses, minlength=index.n_leaves
    )
    leaf_sessions = np.bincount(
        index.row_to_leaf, minlength=index.n_leaves
    ).astype(np.float64)
    codec = index.codec
    codes = np.zeros((len(keys), codec.n_attrs), dtype=np.int64)
    masks = np.array([key.mask(table.schema) for key in keys], dtype=np.int64)
    known = np.ones(len(keys), dtype=bool)
    for k, key in enumerate(keys):
        for attribute, value in key.pairs:
            code = table.code_of(attribute, value)
            if code is None:
                known[k] = False
                break
            codes[k, table.schema.index(attribute)] = code
    packed = codec.pack(codes)
    minutes = np.zeros(len(keys))
    sessions = np.zeros(len(keys))
    field_masks = codec.field_masks()
    for mask in np.unique(masks[known]):
        members = np.flatnonzero(known & (masks == mask))
        wanted, slot_of = np.unique(packed[members], return_inverse=True)
        projected = index.leaf_keys & field_masks[mask]
        pos = np.searchsorted(wanted, projected)
        hit = np.flatnonzero(wanted.take(pos, mode="clip") == projected)
        minutes[members] = np.bincount(
            pos[hit], weights=leaf_minutes[hit], minlength=wanted.size
        )[slot_of]
        sessions[members] = np.bincount(
            pos[hit], weights=leaf_sessions[hit], minlength=wanted.size
        )[slot_of]
    return [
        EngagementImpact(
            key=key,
            sessions=int(sessions[k]),
            minutes_lost=float(minutes[k]),
            minutes_lost_share=float(minutes[k]) / total if total else 0.0,
        )
        for k, key in enumerate(keys)
    ]


def rank_by_loss(
    impacts: Iterable[EngagementImpact], top_k: int
) -> list[EngagementImpact]:
    """The ``top_k`` impacts with the largest loss; ties keep input order."""
    return sorted(impacts, key=lambda i: -i.minutes_lost)[:top_k]


def engagement_weighted_ranking(
    table: SessionTable,
    ma: MetricAnalysis,
    model: EngagementModel | None = None,
    top_k: int = 20,
) -> list[EngagementImpact]:
    """Critical clusters re-ranked by engagement loss.

    Takes the metric's critical identities (union over epochs),
    estimates each one's viewing-minutes loss over the whole trace, and
    returns them ordered by that loss — the ranking an
    advertising/subscription business would act on.
    """
    keys = list(ma.critical_timelines().keys())
    return rank_by_loss(cluster_engagement_impact(table, keys, model=model), top_k)
