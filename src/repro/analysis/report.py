"""One-shot markdown report of a trace analysis.

Collects the headline pieces of every evaluation artifact — dataset
statistics, problem structure, prevalence/persistence, cross-metric
overlap, top critical clusters, what-if potential — into a single
markdown document an operator (or a reviewer) can read top to bottom.
Backs the CLI's ``report`` subcommand.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from repro.analysis.breakdown import single_attribute_share
from repro.analysis.cdfs import headline_statistics
from repro.analysis.engagement import cluster_engagement_impact, rank_by_loss
from repro.analysis.render import render_kv, render_table
from repro.analysis.tables import coverage_table, jaccard_table
from repro.analysis.timeseries import cross_metric_correlation
from repro.analysis.whatif import (
    rank_critical_clusters,
    reactive_simulation,
    topk_improvement_curve,
)
from repro.core.pipeline import TraceAnalysis
from repro.core.sessions import SessionTable
from repro.core.streaks import (
    max_persistence_values,
    median_persistence_values,
    prevalence_values,
)
from repro.obs import current_tracer
from repro.trace.events import EventCatalog


def _code_block(text: str) -> str:
    return "```\n" + text + "\n```"


def build_report(
    table: SessionTable,
    analysis: TraceAnalysis,
    catalog: EventCatalog | None = None,
    title: str = "Video quality problem-structure report",
) -> str:
    """Render the full markdown report (under a ``report.build`` span)."""
    with current_tracer().span("report.build", sessions=len(table)):
        return _render(table, analysis, catalog, title)


def _render(
    table: SessionTable,
    analysis: TraceAnalysis,
    catalog: EventCatalog | None,
    title: str,
) -> str:
    lines: list[str] = [f"# {title}", ""]
    grid = analysis.grid
    lines += [
        f"*{len(table):,} sessions over {grid.n_epochs} hourly epochs; "
        f"{len(analysis.metrics)} quality metrics analysed.*",
        "",
    ]

    lines += ["## Dataset quality overview", ""]
    lines.append(_code_block(render_kv(headline_statistics(table))))
    lines.append("")

    lines += ["## Problem structure (per metric)", ""]
    rows = coverage_table(analysis)
    lines.append(_code_block(render_table(
        ["Metric", "Problem clusters/epoch", "Critical clusters/epoch",
         "Problem coverage", "Critical coverage"],
        [
            [r.metric, r.mean_problem_clusters, r.mean_critical_clusters,
             r.mean_problem_cluster_coverage, r.mean_critical_cluster_coverage]
            for r in rows
        ],
    )))
    lines.append("")

    lines += ["## Recurrence and persistence", ""]
    recurrence_rows = []
    for name, ma in analysis.metrics.items():
        timelines = ma.problem_timelines()
        prevalence = prevalence_values(timelines)
        medians = median_persistence_values(timelines)
        peaks = max_persistence_values(timelines)
        recurrence_rows.append([
            name,
            float((prevalence >= 0.1).mean()) if prevalence.size else 0.0,
            float((medians >= 2).mean()) if medians.size else 0.0,
            float(peaks.max()) if peaks.size else 0.0,
        ])
    lines.append(_code_block(render_table(
        ["Metric", "Clusters with prevalence>=10%", "Clusters median>=2h",
         "Longest streak (h)"],
        recurrence_rows,
    )))
    lines.append("")

    lines += ["## Cross-metric structure", ""]
    overlaps = jaccard_table(analysis, k=100)
    corr = cross_metric_correlation(analysis)
    lines.append(_code_block(render_table(
        ["Metric A", "Metric B", "Jaccard(top-100)", "Temporal correlation"],
        [[a, b, j, corr.get((a, b), corr.get((b, a), 0.0))]
         for (a, b), j in overlaps.items()],
    )))
    lines.append("")

    lines += ["## Top critical clusters", ""]
    planted = {e.cluster_key: e.tag for e in catalog} if catalog else {}
    for name, ma in analysis.metrics.items():
        totals = ma.critical_attribution_totals()
        top = rank_critical_clusters(ma, by="coverage")[:5]
        lines.append(f"### {name}")
        lines.append("")
        lines.append(_code_block(render_table(
            ["Cluster", "Attributed problem sessions", "Ground truth"],
            [
                [key.label(), totals.get(key, 0.0),
                 planted.get(key, "(organic/unknown)")]
                for key in top
            ],
        )))
        lines.append("")
        shares = single_attribute_share(ma)
        lines.append(
            "Single-attribute shares: "
            + ", ".join(f"{k}={v:.0%}" for k, v in shares.items())
        )
        lines.append("")

    lines += ["## Engagement impact (viewing minutes lost)", ""]
    # Every metric's critical identities are priced in one pass over
    # one leaf index of the table, then ranked per metric.
    critical = {
        name: list(ma.critical_timelines()) for name, ma in analysis.metrics.items()
    }
    union = list(dict.fromkeys(chain.from_iterable(critical.values())))
    priced = dict(zip(union, cluster_engagement_impact(table, union)))
    engagement_rows = []
    for name, keys in critical.items():
        for impact in rank_by_loss([priced[k] for k in keys], top_k=3):
            engagement_rows.append(
                [name, impact.key.label(), impact.minutes_lost,
                 impact.minutes_lost_share]
            )
    lines.append(_code_block(render_table(
        ["Metric", "Cluster", "Minutes lost", "Share of all loss"],
        engagement_rows,
        precision=1,
    )))
    lines.append("")

    lines += ["## Improvement potential", ""]
    potential_rows = []
    for name, ma in analysis.metrics.items():
        curve = topk_improvement_curve(ma, by="coverage")
        reactive = reactive_simulation(ma, detection_delay_epochs=1)
        potential_rows.append([
            name,
            curve.at_fraction(0.01),
            float(curve.improvement[-1]) if curve.improvement.size else 0.0,
            reactive.improvement,
        ])
    lines.append(_code_block(render_table(
        ["Metric", "Fix top 1% (oracle)", "Fix all critical clusters",
         "Reactive (1h delay)"],
        potential_rows,
    )))
    lines.append("")
    return "\n".join(lines)


def write_report(
    path: str | Path,
    table: SessionTable,
    analysis: TraceAnalysis,
    catalog: EventCatalog | None = None,
    title: str = "Video quality problem-structure report",
) -> Path:
    """Build and write the report; returns the path."""
    path = Path(path)
    path.write_text(
        build_report(table, analysis, catalog=catalog, title=title),
        encoding="utf-8",
    )
    return path
