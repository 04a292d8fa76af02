"""Cluster engagement losses by a scan of every row: the oracle.

The library prices clusters over one leaf index of the table
(:func:`~repro.analysis.engagement.cluster_engagement_impact`). This
module keeps the slow, obvious path it replaced: for each key, mark the
rows whose codes match every (attribute, value) pair and sum their
losses. Sessions match the library exactly; minutes within
floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.engagement import EngagementImpact, EngagementModel
from repro.core.clusters import ClusterKey
from repro.core.sessions import SessionTable


def cluster_engagement_impact(
    table: SessionTable,
    keys: list[ClusterKey],
    model: EngagementModel | None = None,
) -> list[EngagementImpact]:
    model = model or EngagementModel()
    losses = model.total_minutes_lost(table)
    total = float(losses.sum())
    impacts = []
    for key in keys:
        rows = np.ones(len(table), dtype=bool)
        for attribute, value in key.pairs:
            col = table.schema.index(attribute)
            code = table.code_of(attribute, value)
            if code is None:
                rows[:] = False
                break
            rows &= table.codes[:, col] == code
        cluster_loss = float(losses[rows].sum())
        impacts.append(
            EngagementImpact(
                key=key,
                sessions=int(rows.sum()),
                minutes_lost=cluster_loss,
                minutes_lost_share=cluster_loss / total if total else 0.0,
            )
        )
    return impacts


def ranking(
    table: SessionTable,
    keys: list[ClusterKey],
    model: EngagementModel | None = None,
    top_k: int = 20,
) -> list[EngagementImpact]:
    """The keys ordered by loss, largest first; ties keep key order."""
    impacts = cluster_engagement_impact(table, keys, model=model)
    impacts.sort(key=lambda i: -i.minutes_lost)
    return impacts[:top_k]
