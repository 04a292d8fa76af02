"""Tests for the critical-cluster phase-transition algorithm.

The scenarios mirror the paper's Figures 4 and 5: a single underlying
cause (e.g. one CDN) manifesting as many problem clusters must be
attributed to the one critical cluster; combination causes (CDN x ASN)
must be pinned at the combination, not at either parent.
"""

import numpy as np
import pytest

from repro.core.clusters import ClusterKey
from repro.core.critical import find_critical_clusters
from repro.core.metrics import JOIN_FAILURE
from repro.core.problems import ProblemClusterConfig, find_problem_clusters
from repro.core.sessions import SessionTable
from tests.conftest import make_session
from tests.core.direct_aggregate import aggregate_epoch


def key(**pairs):
    return ClusterKey.from_mapping(pairs)


def build(groups, seed=0):
    """groups: (attrs, n, fail_probability); randomised fill attrs."""
    rng = np.random.default_rng(seed)
    sessions = []
    for attrs, n, fail_p in groups:
        for _ in range(n):
            merged = {
                "asn": f"AS{rng.integers(0, 4)}",
                "cdn": f"cdn_{rng.integers(0, 3)}",
                "site": f"site_{rng.integers(0, 3)}",
            }
            merged.update(attrs)
            sessions.append(
                make_session(join_failed=bool(rng.random() < fail_p), **merged)
            )
    return SessionTable.from_sessions(sessions)


def run(table, **config_kwargs):
    config_kwargs.setdefault("min_sessions", 50)
    config_kwargs.setdefault("min_problems", 3)
    config_kwargs.setdefault("significance_sigmas", 0.0)
    agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    problems = find_problem_clusters(agg, ProblemClusterConfig(**config_kwargs))
    return find_critical_clusters(problems)


class TestSingleCause:
    def test_bad_cdn_attributed_to_cdn_cluster(self):
        table = build(
            [({"cdn": "cdn_bad"}, 1500, 0.5), ({}, 4500, 0.04)], seed=1
        )
        critical = run(table)
        decoded = critical.decoded()
        assert key(cdn="cdn_bad") in decoded
        best = max(decoded.items(), key=lambda kv: kv[1].attributed_problems)
        assert best[0] == key(cdn="cdn_bad")

    def test_single_cause_dominates_attribution(self):
        table = build(
            [({"cdn": "cdn_bad"}, 1500, 0.5), ({}, 4500, 0.04)], seed=2
        )
        critical = run(table)
        att = critical.decoded()[key(cdn="cdn_bad")]
        # The bad CDN's ~750 failures dominate the epoch's problems.
        assert att.attributed_problems > 500
        assert att.own_stats.ratio > 0.4

    def test_descendants_not_reported_separately(self):
        # Children like (cdn_bad, AS1) are problem clusters but should
        # fold into the cdn_bad critical cluster.
        table = build(
            [({"cdn": "cdn_bad"}, 2000, 0.5), ({}, 6000, 0.04)], seed=3
        )
        decoded = run(table).decoded()
        for k in decoded:
            if "cdn" in k.attributes and k.value_of("cdn") == "cdn_bad":
                assert k == key(cdn="cdn_bad"), f"unexpected deeper critical {k}"


class TestCombinationCause:
    def test_pairwise_cause_pinned_at_combination(self):
        # Only the (cdn_bad, AS_bad) path fails; neither parent alone.
        table = build(
            [
                ({"cdn": "cdn_bad", "asn": "AS_bad"}, 600, 0.6),
                ({"cdn": "cdn_bad"}, 2000, 0.04),
                ({"asn": "AS_bad"}, 2000, 0.04),
                ({}, 4000, 0.04),
            ],
            seed=4,
        )
        decoded = run(table).decoded()
        assert key(cdn="cdn_bad", asn="AS_bad") in decoded
        assert key(cdn="cdn_bad") not in decoded
        assert key(asn="AS_bad") not in decoded

    def test_removal_condition_rejects_parent(self):
        # cdn_bad fails everywhere -> parent is the right grain even
        # though (cdn_bad, AS1) has a high ratio too.
        table = build(
            [({"cdn": "cdn_bad"}, 1500, 0.5), ({}, 4500, 0.03)], seed=5
        )
        decoded = run(table).decoded()
        combos = [k for k in decoded if k.depth >= 2 and "cdn" in k.attributes
                  and k.value_of("cdn") == "cdn_bad"]
        assert combos == []


class TestCoverageAccounting:
    def test_coverage_bounded_by_problem_coverage(self):
        table = build(
            [({"cdn": "cdn_bad"}, 1000, 0.5), ({}, 4000, 0.05)], seed=6
        )
        agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
        problems = find_problem_clusters(
            agg,
            ProblemClusterConfig(
                min_sessions=50, min_problems=3, significance_sigmas=0.0
            ),
        )
        critical = find_critical_clusters(problems)
        assert critical.coverage <= problems.coverage + 1e-9

    def test_attribution_conserves_problem_sessions(self):
        table = build(
            [({"cdn": "cdn_bad"}, 1000, 0.5), ({}, 4000, 0.05)], seed=7
        )
        critical = run(table)
        total_attributed = critical.attributed_problem_sessions
        assert (
            total_attributed + critical.unattributed_problem_sessions
            == pytest.approx(critical.agg.total_problems)
        )

    def test_attributed_sessions_positive(self):
        table = build(
            [({"cdn": "cdn_bad"}, 1000, 0.5), ({}, 4000, 0.05)], seed=8
        )
        for att in run(table).decoded().values():
            assert att.attributed_sessions > 0
            assert att.attributed_problems <= att.attributed_sessions + 1e-9


class TestEdgeCases:
    def test_no_problems_yields_no_criticals(self):
        table = build([({}, 2000, 0.0)], seed=9)
        critical = run(table)
        assert critical.n_clusters == 0
        assert critical.coverage == 0.0

    def test_uniform_problems_yield_no_criticals(self):
        # Failures evenly spread: no cluster is 1.5x the global rate.
        table = build([({}, 8000, 0.1)], seed=10)
        critical = run(table)
        assert critical.n_clusters == 0

    def test_empty_epoch(self):
        table = build([({}, 10, 0.0)], seed=11)
        agg = aggregate_epoch(table, np.array([], dtype=np.int64), JOIN_FAILURE)
        problems = find_problem_clusters(agg, ProblemClusterConfig(min_sessions=5))
        critical = find_critical_clusters(problems)
        assert critical.n_clusters == 0

    def test_critical_clusters_are_problem_clusters(self, failure_table):
        agg = aggregate_epoch(
            failure_table, np.arange(len(failure_table)), JOIN_FAILURE
        )
        problems = find_problem_clusters(
            agg,
            ProblemClusterConfig(
                min_sessions=50, min_problems=3, significance_sigmas=0.0
            ),
        )
        critical = find_critical_clusters(problems)
        assert critical.n_clusters >= 1
        for mask, packed, _ in critical.iter_clusters():
            assert problems.contains(mask, packed)

    def test_two_independent_causes_both_found(self):
        table = build(
            [
                ({"cdn": "cdn_bad"}, 1000, 0.5),
                ({"site": "site_bad"}, 1000, 0.45),
                ({}, 6000, 0.03),
            ],
            seed=12,
        )
        decoded = run(table).decoded()
        assert key(cdn="cdn_bad") in decoded
        assert key(site="site_bad") in decoded
