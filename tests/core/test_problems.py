"""Tests for problem-cluster identification (Section 3.1 semantics)."""

import numpy as np
import pytest

from repro.core.clusters import ClusterKey
from repro.core.metrics import JOIN_FAILURE
from repro.core.problems import (
    ProblemClusterConfig,
    cluster_problem_flags,
    find_problem_clusters,
)
from repro.core.sessions import SessionTable
from tests.conftest import make_session
from tests.core.direct_aggregate import aggregate_epoch


def build_table(groups):
    """groups: list of (attrs_dict, n_sessions, n_failures)."""
    sessions = []
    for attrs, n, failures in groups:
        for i in range(n):
            sessions.append(make_session(join_failed=i < failures, **attrs))
    return SessionTable.from_sessions(sessions)


def find(table, **config_kwargs):
    config_kwargs.setdefault("min_sessions", 50)
    config_kwargs.setdefault("min_problems", 3)
    config_kwargs.setdefault("significance_sigmas", 0.0)
    agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    return find_problem_clusters(agg, ProblemClusterConfig(**config_kwargs))


class TestConfig:
    def test_defaults(self):
        config = ProblemClusterConfig()
        assert config.ratio_multiplier == 1.5
        assert config.min_sessions == "auto"

    def test_auto_min_sessions_scales(self):
        config = ProblemClusterConfig()
        assert config.resolve_min_sessions(900_000) == 1000  # the paper's setup
        assert config.resolve_min_sessions(1_000) == config.auto_floor

    def test_explicit_min_sessions(self):
        config = ProblemClusterConfig(min_sessions=123)
        assert config.resolve_min_sessions(10**9) == 123

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ProblemClusterConfig(ratio_multiplier=0.0)
        with pytest.raises(ValueError):
            ProblemClusterConfig(min_sessions="bogus")
        with pytest.raises(ValueError):
            ProblemClusterConfig(min_sessions=0)
        with pytest.raises(ValueError):
            ProblemClusterConfig(auto_fraction=1.5)
        with pytest.raises(ValueError):
            ProblemClusterConfig(min_problems=0)
        with pytest.raises(ValueError):
            ProblemClusterConfig(significance_sigmas=-1.0)


class TestDetection:
    def test_planted_bad_cdn_flagged(self):
        table = build_table(
            [
                ({"cdn": "bad"}, 200, 100),  # 50% failure
                ({"cdn": "ok1"}, 400, 20),  # 5%
                ({"cdn": "ok2"}, 400, 20),
            ]
        )
        pc = find(table)
        keys = pc.cluster_keys()
        assert ClusterKey.from_mapping({"cdn": "bad"}) in keys

    def test_healthy_cluster_not_flagged(self):
        table = build_table(
            [
                ({"cdn": "bad"}, 200, 100),
                ({"cdn": "ok1"}, 400, 20),
            ]
        )
        pc = find(table)
        assert ClusterKey.from_mapping({"cdn": "ok1"}) not in pc.cluster_keys()

    def test_small_cluster_culled(self):
        # The bad cluster has only 30 sessions: below the 50 floor.
        table = build_table(
            [
                ({"cdn": "bad"}, 30, 25),
                ({"cdn": "ok"}, 800, 30),
            ]
        )
        pc = find(table)
        assert ClusterKey.from_mapping({"cdn": "bad"}) not in pc.cluster_keys()

    def test_ratio_threshold_is_relative_to_global(self):
        # 12% failing cluster against a 10% global: below 1.5x.
        table = build_table(
            [
                ({"cdn": "slightly_bad"}, 500, 60),  # 12%
                ({"cdn": "ok"}, 500, 40),  # 8%
            ]
        )
        pc = find(table)
        assert ClusterKey.from_mapping({"cdn": "slightly_bad"}) not in pc.cluster_keys()

    def test_min_problems_guard(self):
        # 4 failures of 100 vs near-zero global: huge relative ratio
        # but absolutely insignificant under min_problems=5.
        table = build_table(
            [
                ({"cdn": "noisy"}, 100, 4),
                ({"cdn": "ok"}, 2000, 2),
            ]
        )
        pc = find(table, min_problems=5)
        assert ClusterKey.from_mapping({"cdn": "noisy"}) not in pc.cluster_keys()

    def test_significance_sigmas_guard(self):
        # 10 failures of 60 at global ~10%: expected ~6, sigma ~2.3;
        # passes the 1.5x ratio cut but not a 2-sigma excess.
        table = build_table(
            [
                ({"cdn": "borderline"}, 60, 10),
                ({"cdn": "ok"}, 940, 91),
            ]
        )
        loose = find(table, significance_sigmas=0.0)
        strict = find(table, significance_sigmas=2.0)
        key = ClusterKey.from_mapping({"cdn": "borderline"})
        assert key in loose.cluster_keys()
        assert key not in strict.cluster_keys()

    def test_no_problems_no_clusters(self):
        table = build_table([({"cdn": "ok"}, 500, 0)])
        pc = find(table)
        assert pc.n_clusters == 0
        assert pc.coverage == 0.0

    def test_contains(self):
        table = build_table(
            [({"cdn": "bad"}, 200, 100), ({"cdn": "ok"}, 800, 30)]
        )
        pc = find(table)
        agg = pc.agg
        mask = agg.codec.schema.mask_of(["cdn"])
        bad_code = table.attr_labels("cdn").index("bad")
        packed = bad_code << int(agg.codec.offsets[agg.codec.schema.index("cdn")])
        assert pc.contains(mask, packed)
        assert not pc.contains(mask, packed + 10_000)


class TestCoverage:
    def test_coverage_counts_problem_sessions_in_clusters(self):
        table = build_table(
            [
                ({"cdn": "bad", "asn": "AS1"}, 200, 100),
                # diffuse failures spread over many small ASNs
                *[
                    ({"cdn": "ok", "asn": f"AS_{i}"}, 20, 2)
                    for i in range(20)
                ],
            ]
        )
        pc = find(table)
        # bad-cdn cluster holds 100 problems; the ok-cdn cluster (400
        # sessions, 40 failures = 10% vs global 28.6%) is not flagged,
        # so those 40 problems are uncovered.
        assert pc.covered_problem_sessions == 100
        assert pc.coverage == pytest.approx(100 / 140)

    def test_full_coverage_when_all_problems_clustered(self):
        table = build_table([({"cdn": "bad"}, 200, 100), ({"cdn": "ok"}, 800, 8)])
        pc = find(table)
        assert pc.coverage == pytest.approx(100 / 108)

    def test_counts_are_problem_matches_flags(self):
        table = build_table(
            [({"cdn": "bad"}, 200, 100), ({"cdn": "ok"}, 800, 30)]
        )
        pc = find(table)
        recomputed = cluster_problem_flags(
            pc.agg.sessions, pc.agg.problems, **pc.predicate
        )
        # One flag per cluster id plus the trailing False slot that a
        # pruned (-1) leaf -> cluster entry reads.
        assert pc.is_problem.size == pc.agg.lattice.n_clusters + 1
        assert not pc.is_problem[-1]
        assert np.array_equal(recomputed, pc.is_problem[:-1])
        assert np.array_equal(np.flatnonzero(pc.is_problem), pc.ids)
        assert pc.n_clusters > 0


class TestConfigRejectsBooleans:
    """bool is an int subclass; min_sessions=True must not mean 1."""

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_min_sessions_rejected(self, flag):
        with pytest.raises(ValueError, match="min_sessions"):
            ProblemClusterConfig(min_sessions=flag)

    def test_int_and_auto_still_accepted(self):
        assert ProblemClusterConfig(min_sessions=7).min_sessions == 7
        assert ProblemClusterConfig(min_sessions="auto").min_sessions == "auto"
