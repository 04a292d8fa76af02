"""Critical-cluster type breakdown (paper Figure 10).

Figure 10 attributes every problem session to the *type* of critical
cluster that explains it — the combination of attribute dimensions
(e.g. ``[Site, *, *, *, *, *, *]`` or ``[*, CDN, *, ConnectionType, *,
*, *]``) — plus two residual sectors: problem sessions in problem
clusters that no critical cluster explains, and problem sessions
outside any (significant) problem cluster.

Both breakdowns read the analysis's result columns
(:class:`repro.core.pipeline.ResultTable`): a critical cluster's
attribute-type signature is its row's attribute ``mask``, so no
cluster key is decoded and no per-epoch mapping is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.core.pipeline import MetricAnalysis

#: Residual sector labels (mirroring the paper's legend).
NOT_ATTRIBUTED = "Not attributed to critical cluster"
NOT_IN_PROBLEM_CLUSTER = "Not in any problem cluster"


@dataclass
class BreakdownSector:
    """One pie sector: an attribute-type signature and its share."""

    signature: str
    problem_sessions: float
    fraction: float


def signature_label(attributes: tuple[str, ...], schema: AttributeSchema) -> str:
    """Paper-style signature, e.g. ``[Site, *, ASN, *, *, *, *]``."""
    constrained = set(attributes)
    parts = [name if name in constrained else "*" for name in schema.names]
    return "[" + ", ".join(parts) + "]"


def _running_sum(values: np.ndarray) -> float:
    """``values`` added one by one in order, from 0.0 (``cumsum`` adds
    sequentially, as a Python running total does)."""
    return float(np.cumsum(values, dtype=np.float64)[-1]) if values.size else 0.0


def _attributed_by_signature(
    ma: MetricAnalysis,
) -> tuple[dict[tuple[str, ...], float], float]:
    """Attributed problem sessions per critical-cluster signature, in
    order of first appearance, and their total.

    The critical rows run in epoch order, then row order, so one
    ``bincount`` over their masks (it adds in input order) gives each
    signature the running sum a loop over every epoch's critical
    clusters would, float for float.
    """
    table = ma.table
    masks = table.critical["mask"]
    weights = table.critical["attributed_problems"]
    distinct, first, ids = np.unique(masks, return_index=True, return_inverse=True)
    sums = np.bincount(ids, weights=weights, minlength=distinct.size)
    names_of = table.codecs[0].schema.names_of
    by_signature = {
        names_of(int(distinct[i])): float(sums[i]) for i in np.argsort(first)
    }
    return by_signature, _running_sum(weights)


def critical_type_breakdown(
    ma: MetricAnalysis,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    max_sectors: int = 8,
) -> list[BreakdownSector]:
    """Figure 10 for one metric.

    Aggregates attributed problem sessions over the whole trace by the
    attribute-type signature of the critical cluster, keeps the top
    ``max_sectors`` signatures, folds the rest into "Other
    combinations", and appends the two residual sectors.
    """
    epochs = ma.table.epochs
    total_problems = _running_sum(epochs["problems"])
    in_problem_clusters = _running_sum(epochs["coverage"] * epochs["problems"])
    by_signature, attributed = _attributed_by_signature(ma)

    if total_problems <= 0:
        return []

    ranked = sorted(by_signature.items(), key=lambda kv: -kv[1])
    sectors = [
        BreakdownSector(
            signature=signature_label(sig, schema),
            problem_sessions=count,
            fraction=count / total_problems,
        )
        for sig, count in ranked[:max_sectors]
    ]
    other = sum(count for _, count in ranked[max_sectors:])
    if other > 0:
        sectors.append(
            BreakdownSector(
                signature="Other combinations",
                problem_sessions=other,
                fraction=other / total_problems,
            )
        )
    unexplained = max(in_problem_clusters - attributed, 0.0)
    outside = max(total_problems - in_problem_clusters, 0.0)
    sectors.append(
        BreakdownSector(
            signature=NOT_ATTRIBUTED,
            problem_sessions=unexplained,
            fraction=unexplained / total_problems,
        )
    )
    sectors.append(
        BreakdownSector(
            signature=NOT_IN_PROBLEM_CLUSTER,
            problem_sessions=outside,
            fraction=outside / total_problems,
        )
    )
    return sectors


def single_attribute_share(
    ma: MetricAnalysis, attributes: tuple[str, ...] = ("site", "cdn", "asn", "connection_type")
) -> dict[str, float]:
    """Share of attributed problem sessions per single-attribute type.

    The paper's headline: Site, CDN, ASN and ConnectionType dominate
    the critical clusters across metrics (Section 4.3).
    """
    by_signature, attributed = _attributed_by_signature(ma)
    totals = {a: by_signature.get((a,), 0.0) for a in attributes}
    if attributed == 0:
        return {a: 0.0 for a in attributes}
    return {a: v / attributed for a, v in totals.items()}
