"""Experiment runners — one per table/figure of the paper's evaluation.

Each runner consumes an :class:`ExperimentContext` and returns an
:class:`ExperimentResult` holding printable text (the same rows/series
the paper reports) and the raw data (for EXPERIMENTS.md and tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from repro.analysis.breakdown import critical_type_breakdown
from repro.analysis.cdfs import default_grid, headline_statistics, quality_cdfs
from repro.analysis.render import render_kv, render_series, render_table
from repro.analysis.tables import (
    coverage_table,
    jaccard_table,
    prevalent_critical_clusters,
)
from repro.analysis.timeseries import (
    cluster_count_timeseries,
    cross_metric_correlation,
    problem_ratio_timeseries,
)
from repro.analysis.validation import validate_all
from repro.analysis.whatif import (
    attribute_restricted_curves,
    proactive_simulation,
    reactive_simulation,
    topk_improvement_curve,
)
from repro.core.aggregation import aggregate_epoch
from repro.core.epoching import split_into_epochs
from repro.core.hhh import HHHConfig, find_hierarchical_heavy_hitters
from repro.core.metrics import MetricThresholds, metric_by_name
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.problems import ProblemClusterConfig
from repro.core.substrate import analyze_sweep
from repro.core.streaks import (
    max_persistence_values,
    median_persistence_values,
    prevalence_values,
)
from repro.experiments.context import ExperimentContext
from repro.trace.generator import generate_trace
from repro.trace.workloads import StandardWorkloads

#: Metric display order matching the paper's tables.
METRIC_ORDER = ("buffering_ratio", "bitrate", "join_time", "join_failure")


@dataclass
class ExperimentResult:
    """Printable + machine-readable output of one experiment."""

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


def _inverse_cdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of ``values`` >= each grid point (Figs. 7/8 y-axis)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return np.zeros(grid.size)
    below = np.searchsorted(values, grid, side="left")
    return 1.0 - below / values.size


# ---------------------------------------------------------------------------
# Figures 1-2: dataset-level statistics
# ---------------------------------------------------------------------------
def run_fig1(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 1: CDFs of buffering ratio, bitrate and join time."""
    cdfs = quality_cdfs(ctx.trace.table)
    blocks = []
    data: dict = {"headline": headline_statistics(ctx.trace.table)}
    for name, ecdf in cdfs.items():
        grid = default_grid(metric_by_name(name))
        x, y = ecdf.curve(grid)
        data[name] = {"x": x.tolist(), "cdf": y.tolist()}
        blocks.append(
            render_series(
                x, {"CDF": y}, x_label=name, title=f"Figure 1 — CDF of {name}",
                max_rows=14,
            )
        )
    blocks.append(render_kv(data["headline"], title="Headline statistics"))
    return ExperimentResult("fig1", "Quality metric CDFs", "\n\n".join(blocks), data)


def run_fig2(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 2: hourly problem-session fraction per metric."""
    series = problem_ratio_timeseries(ctx.analysis)
    hours = next(iter(series.values())).hours
    table = {name: s.ratio for name, s in series.items()}
    corr = cross_metric_correlation(ctx.analysis)
    text = render_series(
        hours, table, x_label="hour",
        title="Figure 2 — fraction of problem sessions per hour", max_rows=24,
    )
    stats = {
        f"{name}: mean/std": f"{s.mean:.3f}/{s.std:.4f}" for name, s in series.items()
    }
    text += "\n\n" + render_kv(stats, title="Consistency (paper: mean ~0.1, tiny std)")
    text += "\n\n" + render_kv(
        {f"corr({a},{b})": v for (a, b), v in corr.items()},
        title="Temporal correlation between metrics (paper: weak)",
    )
    data = {
        "hours": hours.tolist(),
        "ratios": {k: v.tolist() for k, v in table.items()},
        "correlation": {f"{a}|{b}": v for (a, b), v in corr.items()},
        "mean": {k: s.mean for k, s in series.items()},
        "std": {k: s.std for k, s in series.items()},
    }
    return ExperimentResult("fig2", "Problem-session timeseries", text, data)


# ---------------------------------------------------------------------------
# Figures 7-8: prevalence and persistence
# ---------------------------------------------------------------------------
def run_fig7(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 7: distribution of problem-cluster prevalence."""
    grid = np.logspace(-3, 0, 16)
    series = {}
    data = {"grid": grid.tolist(), "curves": {}, "stats": {}}
    for name in METRIC_ORDER:
        values = prevalence_values(ctx.analysis[name].problem_timelines())
        curve = _inverse_cdf(values, grid)
        series[name] = curve
        data["curves"][name] = curve.tolist()
        data["stats"][name] = {
            "n_clusters": int(values.size),
            "frac_prevalence_ge_10pct": float((values >= 0.10).mean())
            if values.size
            else 0.0,
        }
    text = render_series(
        grid, series, x_label="prevalence",
        title="Figure 7 — fraction of problem clusters with prevalence >= x",
    )
    text += "\n\n" + render_kv(
        {
            f"{m}: frac clusters with prevalence>=10%": data["stats"][m][
                "frac_prevalence_ge_10pct"
            ]
            for m in METRIC_ORDER
        },
        title="Paper: ~8-12% of problem clusters appear >10% of the time",
    )
    return ExperimentResult("fig7", "Problem-cluster prevalence", text, data)


def run_fig8(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 8: inverse CDFs of median and max persistence."""
    grid = np.unique(
        np.round(np.logspace(0, np.log10(max(ctx.n_epochs, 2)), 12))
    )
    blocks = []
    data = {"grid": grid.tolist(), "median": {}, "max": {}, "stats": {}}
    for which, extractor in (
        ("median", median_persistence_values),
        ("max", max_persistence_values),
    ):
        series = {}
        for name in METRIC_ORDER:
            values = extractor(ctx.analysis[name].problem_timelines())
            series[name] = _inverse_cdf(values, grid)
            data[which][name] = series[name].tolist()
            if which == "median":
                data["stats"][name] = {
                    "frac_median_ge_2h": float((values >= 2).mean())
                    if values.size
                    else 0.0
                }
            else:
                data["stats"][name]["frac_max_ge_24h"] = (
                    float((values >= 24).mean()) if values.size else 0.0
                )
        blocks.append(
            render_series(
                grid, series, x_label="hours",
                title=f"Figure 8({'a' if which == 'median' else 'b'}) — "
                f"fraction of problem clusters with {which} persistence >= x",
            )
        )
    summary = {}
    for name in METRIC_ORDER:
        summary[f"{name}: frac median>=2h"] = data["stats"][name]["frac_median_ge_2h"]
        summary[f"{name}: frac max>=24h"] = data["stats"][name]["frac_max_ge_24h"]
    blocks.append(render_kv(
        summary,
        title="Paper: >20% of clusters median >=2h; ~1% peak >= 1 day",
    ))
    return ExperimentResult(
        "fig8", "Problem-cluster persistence", "\n\n".join(blocks), data
    )


# ---------------------------------------------------------------------------
# Figure 9 / Table 1: problem vs critical clusters
# ---------------------------------------------------------------------------
def run_fig9(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 9: problem vs critical cluster counts (join time)."""
    series = cluster_count_timeseries(ctx.analysis["join_time"])
    text = render_series(
        series.hours,
        {
            "problem_clusters": series.problem_clusters,
            "critical_clusters": series.critical_clusters,
        },
        x_label="hour",
        title="Figure 9 — cluster counts per hour (join time)",
        max_rows=24,
        precision=1,
    )
    text += "\n\n" + render_kv(
        {"mean reduction factor (problem/critical)": series.mean_reduction_factor},
        title="Paper: critical clusters ~50x fewer",
    )
    data = {
        "hours": series.hours.tolist(),
        "problem_clusters": series.problem_clusters.tolist(),
        "critical_clusters": series.critical_clusters.tolist(),
        "reduction_factor": series.mean_reduction_factor,
    }
    return ExperimentResult("fig9", "Cluster count timeseries", text, data)


def run_table1(ctx: ExperimentContext) -> ExperimentResult:
    """Table 1: cluster counts and coverages per metric."""
    rows = coverage_table(ctx.analysis)
    order = {m: i for i, m in enumerate(METRIC_ORDER)}
    rows.sort(key=lambda r: order.get(r.metric, 99))
    text = render_table(
        [
            "Metric",
            "Mean problem clusters",
            "Mean critical clusters",
            "Critical/problem",
            "Problem cluster coverage",
            "Critical cluster coverage",
            "Coverage ratio",
        ],
        [
            [
                r.metric,
                r.mean_problem_clusters,
                r.mean_critical_clusters,
                r.critical_fraction,
                r.mean_problem_cluster_coverage,
                r.mean_critical_cluster_coverage,
                r.coverage_fraction,
            ]
            for r in rows
        ],
        title="Table 1 — reduction via critical clusters "
        "(paper: 2-3% of clusters cover 44-84% of problem sessions)",
    )
    data = {
        r.metric: {
            "mean_problem_clusters": r.mean_problem_clusters,
            "mean_critical_clusters": r.mean_critical_clusters,
            "critical_fraction": r.critical_fraction,
            "problem_cluster_coverage": r.mean_problem_cluster_coverage,
            "critical_cluster_coverage": r.mean_critical_cluster_coverage,
        }
        for r in rows
    }
    return ExperimentResult("tab1", "Critical-cluster coverage", text, data)


# ---------------------------------------------------------------------------
# Figure 10 / Tables 2-3: structure of critical clusters
# ---------------------------------------------------------------------------
def run_fig10(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 10: breakdown of critical-cluster types per metric."""
    blocks = []
    data = {}
    for name in METRIC_ORDER:
        sectors = critical_type_breakdown(ctx.analysis[name])
        data[name] = [
            {"signature": s.signature, "fraction": s.fraction} for s in sectors
        ]
        blocks.append(
            render_table(
                ["Signature", "Problem sessions", "Fraction"],
                [[s.signature, s.problem_sessions, s.fraction] for s in sectors],
                title=f"Figure 10 — critical-cluster type breakdown ({name})",
                precision=3,
            )
        )
    return ExperimentResult(
        "fig10", "Critical-cluster type breakdown", "\n\n".join(blocks), data
    )


def run_table2(ctx: ExperimentContext) -> ExperimentResult:
    """Table 2: Jaccard similarity of top-100 critical clusters."""
    overlaps = jaccard_table(ctx.analysis, k=100)
    rows = [[a, b, v] for (a, b), v in overlaps.items()]
    text = render_table(
        ["Metric A", "Metric B", "Jaccard(top-100)"],
        rows,
        title="Table 2 — cross-metric overlap of critical clusters "
        "(paper: 0.01-0.23)",
    )
    data = {f"{a}|{b}": v for (a, b), v in overlaps.items()}
    return ExperimentResult("tab2", "Cross-metric Jaccard overlap", text, data)


def run_table3(ctx: ExperimentContext) -> ExperimentResult:
    """Table 3: most prevalent critical clusters, with ground truth."""
    table = prevalent_critical_clusters(
        ctx.analysis, prevalence_threshold=0.6, catalog=ctx.trace.catalog
    )
    rows = []
    data = {}
    for metric in METRIC_ORDER:
        data[metric] = {}
        for attr in ("asn", "cdn", "site", "connection_type"):
            clusters = table.cell(metric, attr)
            data[metric][attr] = [
                {
                    "cluster": c.key.label(),
                    "prevalence": c.prevalence,
                    "tag": c.ground_truth_tag,
                }
                for c in clusters
            ]
            for c in clusters[:3]:
                rows.append(
                    [
                        metric,
                        attr,
                        c.key.label(),
                        c.prevalence,
                        c.ground_truth_tag or "(organic/noise)",
                    ]
                )
    text = render_table(
        ["Metric", "Attr type", "Cluster", "Prevalence", "Ground-truth tag"],
        rows,
        title="Table 3 — most prevalent (>60%) critical clusters vs planted causes",
    )
    return ExperimentResult("tab3", "Most prevalent critical clusters", text, data)


# ---------------------------------------------------------------------------
# Section 5: what-if analyses
# ---------------------------------------------------------------------------
def run_fig11(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 11: improvement from fixing top-k critical clusters."""
    blocks = []
    data = {}
    for ranking in ("prevalence", "persistence", "coverage"):
        series = {}
        fractions = None
        for name in METRIC_ORDER:
            curve = topk_improvement_curve(ctx.analysis[name], by=ranking)
            fractions = curve.fractions
            series[name] = curve.improvement
            data.setdefault(ranking, {})[name] = {
                "fractions": curve.fractions.tolist(),
                "improvement": curve.improvement.tolist(),
                "at_1pct": curve.at_fraction(0.01),
            }
        blocks.append(
            render_series(
                fractions, series, x_label="top fraction",
                title=f"Figure 11 — problem sessions alleviated, ranked by {ranking}",
                precision=4,
            )
        )
    at1 = {
        f"{m} @top1% (coverage)": data["coverage"][m]["at_1pct"]
        for m in METRIC_ORDER
    }
    blocks.append(render_kv(
        at1, title="Paper: top 1% by coverage alleviates 15-55% "
        "(join failure ~55-60%)",
    ))
    return ExperimentResult(
        "fig11", "Top-k improvement curves", "\n\n".join(blocks), data
    )


def run_fig12(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 12: attribute-restricted selection (join failure)."""
    curves = attribute_restricted_curves(ctx.analysis["join_failure"])
    fractions = next(iter(curves.values())).fractions
    series = {label: c.improvement for label, c in curves.items()}
    text = render_series(
        fractions, series, x_label="normalized fraction",
        title="Figure 12 — restricted critical-cluster selection (join failure)",
        precision=4,
    )
    data = {
        label: {
            "fractions": c.fractions.tolist(),
            "improvement": c.improvement.tolist(),
        }
        for label, c in curves.items()
    }
    return ExperimentResult("fig12", "Attribute-restricted selection", text, data)


def run_table4(ctx: ExperimentContext) -> ExperimentResult:
    """Table 4: proactive history-based fixing (intra/inter-week)."""
    n = ctx.n_epochs
    splits: dict[str, tuple[range, range]] = {}
    if n >= 168:
        splits["intra-week"] = (range(0, 96), range(96, 168))
    else:  # scaled split for smaller contexts
        cut = (n * 4) // 7
        splits["intra-week"] = (range(0, cut), range(cut, n))
    if n >= 336:
        splits["inter-week"] = (range(0, 168), range(168, 336))

    rows = []
    data = {}
    for split_name, (train_range, test_range) in splits.items():
        for metric in METRIC_ORDER:
            train, test = ctx.split(metric, train_range, test_range)
            result = proactive_simulation(
                train, test, top_fraction=0.01, min_clusters=5
            )
            rows.append(
                [
                    split_name,
                    metric,
                    result.improvement,
                    result.potential,
                    result.fraction_of_potential,
                ]
            )
            data.setdefault(split_name, {})[metric] = {
                "new": result.improvement,
                "potential": result.potential,
                "fraction_of_potential": result.fraction_of_potential,
            }
    text = render_table(
        ["Split", "Metric", "New (proactive)", "Potential (oracle)", "New/Potential"],
        rows,
        title="Table 4 — proactive alleviation "
        "(paper: proactive reaches 61-86% of the oracle)",
    )
    return ExperimentResult("tab4", "Proactive what-if", text, data)


def run_fig13(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 13: reactive-repair timeseries for join failure."""
    result = reactive_simulation(ctx.analysis["join_failure"], detection_delay_epochs=1)
    hours = ctx.analysis["join_failure"].grid.hours()
    text = render_series(
        hours,
        {
            "original": result.original_series,
            "after_reactive": result.after_series,
            "not_in_critical": result.unattributed_series,
        },
        x_label="hour",
        title="Figure 13 — problem sessions before/after reactive repair "
        "(join failure)",
        max_rows=24,
        precision=1,
    )
    text += "\n\n" + render_kv(
        {
            "improvement": result.improvement,
            "potential (zero delay)": result.potential,
        },
        title="Paper: reactive reduces join-failure problems ~50%",
    )
    data = {
        "hours": hours.tolist(),
        "original": result.original_series.tolist(),
        "after": result.after_series.tolist(),
        "unattributed": result.unattributed_series.tolist(),
        "improvement": result.improvement,
        "potential": result.potential,
    }
    return ExperimentResult("fig13", "Reactive repair timeseries", text, data)


def run_table5(ctx: ExperimentContext) -> ExperimentResult:
    """Table 5: mean reactive improvement across metrics."""
    rows = []
    data = {}
    for metric in METRIC_ORDER:
        result = reactive_simulation(ctx.analysis[metric], detection_delay_epochs=1)
        rows.append(
            [metric, result.improvement, result.potential, result.fraction_of_potential]
        )
        data[metric] = {
            "new": result.improvement,
            "potential": result.potential,
            "fraction_of_potential": result.fraction_of_potential,
        }
    text = render_table(
        ["Metric", "New (reactive)", "Potential (zero delay)", "New/Potential"],
        rows,
        title="Table 5 — reactive alleviation (paper: 70-95% of potential)",
    )
    return ExperimentResult("tab5", "Reactive what-if", text, data)


# ---------------------------------------------------------------------------
# Validation & ablations
# ---------------------------------------------------------------------------
def run_validation(ctx: ExperimentContext) -> ExperimentResult:
    """Ground-truth recovery scores (no paper counterpart; substrate
    validation made possible by the synthetic catalogue)."""
    reports = validate_all(ctx.analysis, ctx.trace.catalog, table=ctx.trace.table)
    rows = [
        [
            name,
            r.n_events,
            r.event_recall,
            r.detectable_event_recall,
            r.mean_detectable_epoch_recall,
            r.top_k_precision,
            r.top_k_relaxed_precision,
        ]
        for name, r in reports.items()
    ]
    text = render_table(
        [
            "Metric",
            "Planted events",
            "Event recall",
            "Detectable-event recall",
            "Detectable epoch recall",
            "Top-20 precision",
            "Top-20 relaxed precision",
        ],
        rows,
        title="Ground-truth validation of the critical-cluster detector",
    )
    data = {
        name: {
            "n_events": r.n_events,
            "event_recall": r.event_recall,
            "detectable_event_recall": r.detectable_event_recall,
            "mean_detectable_epoch_recall": r.mean_detectable_epoch_recall,
            "top_k_precision": r.top_k_precision,
            "top_k_relaxed_precision": r.top_k_relaxed_precision,
        }
        for name, r in reports.items()
    }
    return ExperimentResult("validation", "Ground-truth validation", text, data)


def run_ablation_thresholds(ctx: ExperimentContext) -> ExperimentResult:
    """Sensitivity of the structure to the 1.5x ratio multiplier and
    the metric thresholds (paper Section 2: choices are illustrative)."""
    sub_epochs = min(ctx.n_epochs, 48)
    rows_mask = ctx.trace.table.start_time < sub_epochs * 3600.0
    table = ctx.trace.table.select(np.nonzero(rows_mask)[0])
    rows = []
    data = {}
    variants = (
        ("baseline", AnalysisConfig()),
        ("ratio x1.25", AnalysisConfig(
            problem_config=ProblemClusterConfig(ratio_multiplier=1.25))),
        ("ratio x2.0", AnalysisConfig(
            problem_config=ProblemClusterConfig(ratio_multiplier=2.0))),
        ("thresholds x0.5", AnalysisConfig(
            thresholds=MetricThresholds().scaled(0.5))),
        ("thresholds x2.0", AnalysisConfig(
            thresholds=MetricThresholds().scaled(2.0))),
    )
    # One substrate build amortized across all five variants; outputs
    # are bit-identical to per-variant analyze_trace calls.
    analyses = analyze_sweep(table, [config for _, config in variants])
    for (label, config), analysis in zip(variants, analyses):
        for metric in ("buffering_ratio", "join_failure"):
            ma = analysis[metric]
            rows.append(
                [
                    label,
                    metric,
                    ma.mean_problem_clusters,
                    ma.mean_critical_clusters,
                    ma.mean_critical_cluster_coverage,
                ]
            )
            data.setdefault(label, {})[metric] = {
                "problem_clusters": ma.mean_problem_clusters,
                "critical_clusters": ma.mean_critical_clusters,
                "critical_coverage": ma.mean_critical_cluster_coverage,
            }
    text = render_table(
        ["Variant", "Metric", "Problem clusters", "Critical clusters",
         "Critical coverage"],
        rows,
        title="Ablation — threshold sensitivity "
        "(paper claims qualitative robustness)",
    )
    return ExperimentResult("abl-threshold", "Threshold sensitivity", text, data)


def run_ablation_hhh(ctx: ExperimentContext) -> ExperimentResult:
    """Critical clusters vs hierarchical heavy hitters on planted truth."""
    grid, per_epoch = split_into_epochs(ctx.trace.table, ctx.analysis.grid)
    planted = {e.cluster_key for e in ctx.trace.catalog}
    sample = range(0, min(grid.n_epochs, 48))
    rows = []
    data = {}
    for metric in ("join_failure", "buffering_ratio"):
        m = metric_by_name(metric)
        hhh_hits: set = set()
        critical_hits: set = set()
        n_hhh = 0
        n_critical = 0
        for epoch in sample:
            agg = aggregate_epoch(ctx.trace.table, per_epoch[epoch], m, epoch=epoch)
            hitters = find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.02))
            n_hhh += len(hitters)
            hhh_hits |= {h.key for h in hitters if h.key in planted}
            criticals = set(ctx.analysis[metric].epochs[epoch].critical_clusters)
            n_critical += len(criticals)
            critical_hits |= criticals & planted
        rows.append([metric, "critical", n_critical / len(sample),
                     len(critical_hits)])
        rows.append([metric, "hhh(phi=0.02)", n_hhh / len(sample), len(hhh_hits)])
        data[metric] = {
            "critical": {"mean_reported": n_critical / len(sample),
                         "planted_recovered": len(critical_hits)},
            "hhh": {"mean_reported": n_hhh / len(sample),
                    "planted_recovered": len(hhh_hits)},
        }
    text = render_table(
        ["Metric", "Detector", "Mean reported/epoch", "Distinct planted recovered"],
        rows,
        title="Ablation — critical clusters vs hierarchical heavy hitters",
    )
    return ExperimentResult("abl-hhh", "HHH baseline comparison", text, data)


def run_ablation_engines(ctx: ExperimentContext) -> ExperimentResult:
    """Statistical vs mechanistic QoE engine agreement on headline stats."""
    mech_spec = StandardWorkloads.mechanistic_tiny(seed=5)
    stat_spec = replace(mech_spec, name="stat_twin", engine="statistical")
    rows = []
    data = {}
    for label, spec in (("mechanistic", mech_spec), ("statistical", stat_spec)):
        trace = generate_trace(spec)
        stats = headline_statistics(trace.table)
        fail = float(trace.table.join_failed.mean())
        rows.append(
            [
                label,
                fail,
                stats["frac_buffering_ratio_gt_5pct"],
                stats["frac_join_time_gt_10s"],
                stats["frac_bitrate_lt_700kbps"],
            ]
        )
        data[label] = {"join_failure_rate": fail, **stats}
    text = render_table(
        ["Engine", "Join failure rate", "BufRatio>5%", "JoinTime>10s",
         "Bitrate<700kbps"],
        rows,
        title="Ablation — statistical vs chunk-level mechanistic engine",
    )
    return ExperimentResult("abl-engine", "Engine agreement", text, data)


def run_ablation_epoch_length(ctx: ExperimentContext) -> ExperimentResult:
    """Sensitivity to the epoching granularity.

    The paper fixes one-hour epochs because that is its dataset's
    finest granularity (Section 3.1, footnote 2). The synthetic trace
    carries continuous timestamps, so the analysis can re-run at 30
    minutes and 2 hours: coarser epochs pool more sessions (more
    clusters pass the significance floor, streaks shorten in epoch
    units), finer epochs fragment them.
    """
    sub_hours = min(ctx.n_epochs, 48)
    table = ctx.trace.table.select(
        np.nonzero(ctx.trace.table.start_time < sub_hours * 3600.0)[0]
    )
    rows = []
    data = {}
    lengths = (("30 min", 1800.0), ("1 h (paper)", 3600.0), ("2 h", 7200.0))
    # The sweep groups configs by epoch grid, so the pack/index build is
    # still shared across all three granularities.
    analyses = analyze_sweep(
        table,
        [AnalysisConfig(epoch_seconds=seconds) for _, seconds in lengths],
    )
    for (label, seconds), analysis in zip(lengths, analyses):
        ma = analysis["join_failure"]
        timelines = ma.problem_timelines()
        medians = median_persistence_values(timelines)
        rows.append([
            label,
            analysis.grid.n_epochs,
            ma.mean_problem_clusters,
            ma.mean_critical_clusters,
            ma.mean_critical_cluster_coverage,
            float(np.median(medians)) if medians.size else 0.0,
        ])
        data[label] = {
            "n_epochs": analysis.grid.n_epochs,
            "problem_clusters": ma.mean_problem_clusters,
            "critical_clusters": ma.mean_critical_clusters,
            "critical_coverage": ma.mean_critical_cluster_coverage,
        }
    text = render_table(
        ["Epoch length", "Epochs", "Problem clusters", "Critical clusters",
         "Critical coverage", "Median streak (epochs)"],
        rows,
        title="Ablation — epoching granularity (join failure, first "
        f"{sub_hours} h)",
    )
    return ExperimentResult(
        "abl-epoch", "Epoch-length sensitivity", text, data
    )


def run_ablation_scale(ctx: ExperimentContext) -> ExperimentResult:
    """Pipeline throughput vs per-epoch session volume."""
    import time

    rows = []
    data = {}
    for per_epoch in (500, 2000, 8000):
        spec = StandardWorkloads.tiny(seed=9)
        spec = replace(
            spec,
            name=f"scale_{per_epoch}",
            n_epochs=6,
            arrivals=replace(spec.arrivals, base_sessions_per_epoch=per_epoch),
        )
        trace = generate_trace(spec)
        start = time.perf_counter()
        analyze_trace(trace.table, grid=trace.grid)
        elapsed = time.perf_counter() - start
        throughput = trace.n_sessions / elapsed
        rows.append([per_epoch, trace.n_sessions, elapsed, throughput])
        data[per_epoch] = {
            "sessions": trace.n_sessions,
            "seconds": elapsed,
            "sessions_per_second": throughput,
        }
    text = render_table(
        ["Sessions/epoch", "Total sessions", "Analysis seconds",
         "Sessions/second"],
        rows,
        title="Ablation — analysis throughput vs trace volume",
    )
    return ExperimentResult("abl-scale", "Scale ablation", text, data)


def run_ablation_parallel(ctx: ExperimentContext) -> ExperimentResult:
    """Parallel ablation: serial vs a process pool over every CPU.

    Re-analyzes a slice of the context's trace twice — serially
    (``workers=0``) and fanned over a process pool
    (``workers="auto"``) — and reports wall time, sessions/second and
    the per-phase counters the instrumented pipeline collects. Results
    of both runs are verified identical before reporting.
    """
    import os
    import time

    sub_hours = min(ctx.n_epochs, 24)
    table = ctx.trace.table.select(
        np.nonzero(ctx.trace.table.start_time < sub_hours * 3600.0)[0]
    )
    n_cpus = os.cpu_count() or 1
    rows = []
    data: dict = {"cpus": n_cpus, "sessions": len(table)}
    analyses = {}
    parallel_label = f"parallel(auto={n_cpus})"
    for label, workers in (("serial", 0), (parallel_label, "auto")):
        start = time.perf_counter()
        analysis = analyze_trace(table, workers=workers)
        elapsed = time.perf_counter() - start
        analyses[label] = analysis
        t = analysis.timings
        rows.append([
            label, elapsed, len(table) / elapsed,
            t.pack_s + t.index_build_s, t.aggregate_s, t.problems_s,
            t.critical_s,
        ])
        data[label] = {
            "seconds": elapsed,
            "sessions_per_second": len(table) / elapsed,
            **t.as_dict(),
        }
    serial, parallel = analyses["serial"], analyses[parallel_label]
    identical = all(
        serial[name].epochs == parallel[name].epochs
        for name in serial.metric_names
    )
    speedup = data["serial"]["seconds"] / data[parallel_label]["seconds"]
    data["speedup"] = speedup
    data["identical_results"] = identical
    speedup_note = (
        f"{speedup:.2f}x"
        if n_cpus > 1
        else f"{speedup:.2f}x (1 CPU: overhead only, not a speedup)"
    )
    text = render_table(
        ["Run", "Seconds", "Sessions/s", "Pack/index s", "Aggregate s",
         "Problems s", "Critical s"],
        rows,
        title=f"Ablation — serial vs parallel ({n_cpus} CPUs, "
        f"first {sub_hours} h)",
    )
    text += "\n\n" + render_kv(
        {"speedup (serial/parallel)": speedup_note,
         "results identical": str(identical)},
        title="Parallel ablation (identical output is a hard invariant)",
    )
    return ExperimentResult("abl-parallel", "Parallel ablation", text, data)
