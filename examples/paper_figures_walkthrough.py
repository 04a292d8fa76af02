#!/usr/bin/env python3
"""Reconstructing the paper's illustration figures (3, 4, 5, 6).

The methodology section explains itself with four toy scenarios:

* Figure 3 — problem clusters over a 2-ASN x 2-CDN grid;
* Figure 4 — the cluster DAG where a bad CDN explains several problem
  clusters;
* Figure 5 — the phase transition: a CDN x ASN *combination* is the
  critical cluster, its parents stop being problem clusters once it is
  removed;
* Figure 6 — prevalence and persistence over six epochs.

This walkthrough builds each scenario with the library and shows the
algorithms producing exactly the paper's answers.

Run:  python examples/paper_figures_walkthrough.py
"""

import numpy as np

from repro.analysis.render import render_table
from repro.core import (
    ClusterKey,
    JOIN_FAILURE,
    ProblemClusterConfig,
    Session,
    SessionTable,
)
from repro.core.critical import find_critical_clusters
from repro.core.index import TraceClusterIndex
from repro.core.problems import find_problem_clusters
from repro.core.streaks import build_timelines

CONFIG = ProblemClusterConfig(
    min_sessions=40, min_problems=3, significance_sigmas=0.0
)


def make_sessions(counts, seed=0):
    """counts: {(asn, cdn): (n_sessions, n_failures)}."""
    rng = np.random.default_rng(seed)
    sessions = []
    for (asn, cdn), (n, failures) in counts.items():
        for i in range(n):
            sessions.append(Session(
                attrs={
                    "asn": asn, "cdn": cdn,
                    "site": f"site_{rng.integers(0, 2)}",
                    "content_type": "vod", "player": "flash",
                    "browser": "chrome", "connection_type": "dsl",
                },
                start_time=0.0, duration_s=600.0, buffering_s=0.0,
                join_time_s=float("nan") if i < failures else 2.0,
                bitrate_kbps=float("nan") if i < failures else 2000.0,
                join_failed=i < failures,
            ))
    return SessionTable.from_sessions(sessions)


def analyze(table):
    view = TraceClusterIndex.build(table).epoch_view(np.arange(len(table)))
    agg = view.aggregate(JOIN_FAILURE)
    problems = find_problem_clusters(agg, CONFIG)
    critical = find_critical_clusters(problems)
    return agg, problems, critical


def dag_edges(keys):
    """Figure 4's DAG over ``keys``, as (parent, child) pairs: an edge
    from each present parent, or from the root when no parent is
    present."""
    present = set(keys)
    edges = []
    for key in present:
        parents = [p for p in key.parents() if p.depth and p in present]
        edges += [(p, key) for p in parents] or [(ClusterKey.root(), key)]
    return edges


def figure_3_and_4():
    print("=" * 70)
    print("Figures 3 & 4 — one bad CDN manifests as several problem clusters")
    print("=" * 70)
    # CDN1 fails everywhere; CDN2 is healthy.
    table = make_sessions({
        ("ASN1", "CDN1"): (300, 90),   # 30% failures
        ("ASN2", "CDN1"): (300, 90),
        ("ASN1", "CDN2"): (300, 15),   # 5%
        ("ASN2", "CDN2"): (300, 15),
    })
    agg, problems, critical = analyze(table)
    print(f"global problem ratio: {agg.global_ratio:.3f} "
          f"(problem threshold: {problems.ratio_threshold:.3f})\n")

    found = problems.decoded()
    interesting = [k for k in found if set(k.attributes) <= {"asn", "cdn"}]
    rows = []
    for key in sorted(interesting, key=lambda k: (k.depth, k.label())):
        stats = found[key]
        rows.append([key.label(), stats.sessions, stats.problems, stats.ratio])
    print(render_table(["Problem cluster", "Sessions", "Failures", "Ratio"],
                       rows, title="Problem clusters (Figure 4's red boxes)"))

    print("\nDAG edges (parent -> child):")
    for parent, child in sorted(dag_edges(interesting), key=str):
        print(f"  {parent.label()} -> {child.label()}")

    print("\nCritical clusters (the single underlying cause):")
    for key, att in critical.decoded().items():
        print(f"  {key.label()}: attributed {att.attributed_problems:.0f} "
              "problem sessions")
    assert list(critical.decoded()) == [ClusterKey.from_mapping({"cdn": "CDN1"})]
    print()


def figure_5():
    print("=" * 70)
    print("Figure 5 — the phase transition pins a CDN x ASN combination")
    print("=" * 70)
    # Only the (CDN1, ASN1) path fails.
    table = make_sessions({
        ("ASN1", "CDN1"): (300, 120),  # 40%
        ("ASN2", "CDN1"): (300, 12),
        ("ASN1", "CDN2"): (300, 12),
        ("ASN2", "CDN2"): (300, 12),
    }, seed=1)
    agg, problems, critical = analyze(table)

    combo = ClusterKey.from_mapping({"asn": "ASN1", "cdn": "CDN1"})
    parent_asn = ClusterKey.from_mapping({"asn": "ASN1"})
    parent_cdn = ClusterKey.from_mapping({"cdn": "CDN1"})
    # All three are problem clusters, so the detector's own counts
    # give their ratios.
    found = problems.decoded()
    assert {parent_asn, parent_cdn, combo} <= set(found)
    rows = [
        [key.label(), found[key].ratio, "yes"]
        for key in (parent_asn, parent_cdn, combo)
    ]
    print(render_table(
        ["Cluster", "Failure ratio", "Problem cluster?"], rows,
        title="Parents are problem clusters only because of the combination",
    ))

    decoded = critical.decoded()
    print("\nCritical clusters found:", [k.label() for k in decoded])
    assert combo in decoded
    assert parent_asn not in decoded and parent_cdn not in decoded
    print("-> removing (ASN1, CDN1) sessions makes both parents healthy, "
          "so the combination is the phase-transition point.\n")


def figure_6():
    print("=" * 70)
    print("Figure 6 — prevalence and persistence over six epochs")
    print("=" * 70)
    a1c1 = ClusterKey.from_mapping({"asn": "ASN1", "cdn": "CDN1"})
    asn2 = ClusterKey.from_mapping({"asn": "ASN2"})
    cdn2 = ClusterKey.from_mapping({"cdn": "CDN2"})
    # The paper's timeline: A1C1 in epochs {1,2,4,5}; ASN2 in {2..5};
    # CDN2 in {1,2,3,5,6} (1-indexed in the figure; 0-indexed here).
    per_epoch = [
        {a1c1, cdn2},
        {a1c1, asn2, cdn2},
        {asn2, cdn2},
        {a1c1, asn2},
        {a1c1, asn2, cdn2},
        {cdn2},
    ]
    timelines = build_timelines(per_epoch)
    rows = []
    for key in (a1c1, asn2, cdn2):
        tl = timelines[key]
        rows.append([
            key.label(),
            f"{tl.n_occurrences}/6",
            tl.prevalence,
            tl.median_persistence,
            tl.max_persistence,
        ])
    print(render_table(
        ["Cluster", "Occurrences", "Prevalence", "Median streak",
         "Max streak"],
        rows,
        title="Prevalence = occurrences/epochs; streaks coalesce "
        "consecutive epochs",
    ))
    assert timelines[a1c1].prevalence == 4 / 6
    assert timelines[asn2].max_persistence == 4
    print()


def main() -> None:
    figure_3_and_4()
    figure_5()
    figure_6()
    print("All three scenarios reproduce the paper's illustrated answers.")


if __name__ == "__main__":
    main()
