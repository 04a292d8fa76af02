"""Tests for the engagement-impact model."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.engagement import (
    EngagementModel,
    cluster_engagement_impact,
    engagement_weighted_ranking,
)
from repro.analysis.render import render_table
from repro.analysis.report import build_report
from repro.core.clusters import ClusterKey
from repro.core.sessions import SessionTable
from tests.analysis import rowscan_engagement as rowscan
from tests.conftest import make_session
from tests.core.test_packing_limit import wide_table


def key(**pairs):
    return ClusterKey.from_mapping(pairs)


@pytest.fixture(scope="module")
def model():
    return EngagementModel()


class TestModelValidation:
    def test_defaults_valid(self):
        EngagementModel()

    def test_bad_values(self):
        with pytest.raises(ValueError):
            EngagementModel(minutes_lost_per_buffering_point=-1.0)
        with pytest.raises(ValueError):
            EngagementModel(expected_session_minutes=0.0)
        with pytest.raises(ValueError):
            EngagementModel(join_patience_s=0.0)
        with pytest.raises(ValueError):
            EngagementModel(bitrate_discount_per_halving=1.0)


class TestPerSessionLosses:
    def test_buffering_loss_matches_paper_quote(self, model):
        # 1% buffering ratio -> 3.5 minutes lost (paper: 3-4 minutes).
        table = SessionTable.from_sessions(
            [make_session(duration_s=600, buffering_s=6.0)]
        )
        loss = model.buffering_minutes_lost(table)
        assert loss[0] == pytest.approx(3.5, rel=0.01)

    def test_healthy_session_loses_little(self, model):
        table = SessionTable.from_sessions(
            [make_session(duration_s=600, buffering_s=0.0, join_time_s=0.5,
                          bitrate_kbps=3000)]
        )
        assert model.total_minutes_lost(table)[0] < 0.6

    def test_join_failure_costs_full_session(self, model):
        table = SessionTable.from_sessions([make_session(join_failed=True)])
        assert model.join_failure_minutes_lost(table)[0] == pytest.approx(
            model.expected_session_minutes
        )
        # ... and nothing else (no double counting).
        assert model.buffering_minutes_lost(table)[0] == 0.0
        assert model.join_time_minutes_lost(table)[0] == 0.0

    def test_join_time_loss_monotone(self, model):
        table = SessionTable.from_sessions(
            [make_session(join_time_s=j) for j in (1.0, 5.0, 20.0, 60.0)]
        )
        losses = model.join_time_minutes_lost(table)
        assert (np.diff(losses) > 0).all()
        assert losses[-1] < model.expected_session_minutes

    def test_bitrate_loss_grows_with_degradation(self, model):
        table = SessionTable.from_sessions(
            [make_session(bitrate_kbps=b, duration_s=1200)
             for b in (2000, 1000, 250)]
        )
        losses = model.bitrate_minutes_lost(table)
        assert losses[0] == 0.0
        assert losses[1] < losses[2]

    def test_total_is_sum_of_components(self, model):
        table = SessionTable.from_sessions(
            [make_session(duration_s=600, buffering_s=30, join_time_s=12,
                          bitrate_kbps=500)]
        )
        total = model.total_minutes_lost(table)[0]
        parts = (
            model.buffering_minutes_lost(table)[0]
            + model.join_failure_minutes_lost(table)[0]
            + model.join_time_minutes_lost(table)[0]
            + model.bitrate_minutes_lost(table)[0]
        )
        assert total == pytest.approx(parts)


class TestClusterImpact:
    def test_bad_cluster_dominates(self, model):
        sessions = []
        for i in range(200):
            sessions.append(make_session(cdn="bad", join_failed=i % 2 == 0))
        for i in range(200):
            sessions.append(make_session(cdn="ok"))
        table = SessionTable.from_sessions(sessions)
        impacts = cluster_engagement_impact(
            table, [key(cdn="bad"), key(cdn="ok")], model=model
        )
        by_key = {i.key: i for i in impacts}
        assert by_key[key(cdn="bad")].minutes_lost > (
            3 * by_key[key(cdn="ok")].minutes_lost
        )
        assert by_key[key(cdn="bad")].minutes_lost_share > 0.5

    def test_unknown_value_zero_impact(self, model):
        table = SessionTable.from_sessions([make_session()])
        impacts = cluster_engagement_impact(table, [key(cdn="mars")], model)
        assert impacts[0].sessions == 0
        assert impacts[0].minutes_lost == 0.0


class TestEngagementRanking:
    def test_ranking_on_generated_trace(self, tiny_ctx, model):
        impacts = engagement_weighted_ranking(
            tiny_ctx.trace.table,
            tiny_ctx.analysis["buffering_ratio"],
            model=model,
            top_k=5,
        )
        assert impacts
        losses = [i.minutes_lost for i in impacts]
        assert losses == sorted(losses, reverse=True)
        assert all(i.minutes_lost >= 0 for i in impacts)

    def test_ranking_can_differ_from_session_ranking(self, tiny_ctx, model):
        """Weighting by minutes is a different lens than counting
        sessions; at minimum both lenses agree the clusters matter."""
        from repro.analysis.whatif import rank_critical_clusters

        ma = tiny_ctx.analysis["buffering_ratio"]
        by_minutes = [
            i.key for i in engagement_weighted_ranking(
                tiny_ctx.trace.table, ma, model=model, top_k=10
            )
        ]
        by_sessions = rank_critical_clusters(ma, by="coverage")[:10]
        assert set(by_minutes) & set(by_sessions)


def assert_impacts_match(got, want):
    """Same keys and sessions; minutes and shares within 1e-12 relative."""
    assert [i.key for i in got] == [i.key for i in want]
    for g, w in zip(got, want):
        assert g.sessions == w.sessions
        assert g.minutes_lost == pytest.approx(w.minutes_lost, rel=1e-12, abs=0)
        assert g.minutes_lost_share == pytest.approx(
            w.minutes_lost_share, rel=1e-12, abs=0
        )


def critical_union(analysis) -> list[ClusterKey]:
    return list(dict.fromkeys(chain.from_iterable(
        ma.critical_timelines() for ma in analysis.metrics.values()
    )))


class TestLeafIndexEqualsRowScan:
    def test_every_critical_identity_of_a_generated_trace(self, tiny_ctx, model):
        table = tiny_ctx.trace.table
        keys = critical_union(tiny_ctx.analysis)
        assert len(keys) > 50
        assert_impacts_match(
            cluster_engagement_impact(table, keys, model),
            rowscan.cluster_engagement_impact(table, keys, model),
        )

    def test_rankings_follow_the_row_scan(self, tiny_ctx, model):
        table = tiny_ctx.trace.table
        for ma in tiny_ctx.analysis.metrics.values():
            keys = list(ma.critical_timelines())
            assert_impacts_match(
                engagement_weighted_ranking(table, ma, model, top_k=len(keys)),
                rowscan.ranking(table, keys, model, top_k=len(keys)),
            )

    def test_report_section_equals_the_row_scan(self, tiny_ctx):
        table = tiny_ctx.trace.table
        rows = []
        for name, ma in tiny_ctx.analysis.metrics.items():
            for impact in rowscan.ranking(table, list(ma.critical_timelines()), top_k=3):
                rows.append([name, impact.key.label(), impact.minutes_lost,
                             impact.minutes_lost_share])
        section = render_table(
            ["Metric", "Cluster", "Minutes lost", "Share of all loss"],
            rows, precision=1,
        )
        assert section in build_report(table, tiny_ctx.analysis)

    def test_many_keys_of_one_mask(self, tiny_ctx, model):
        """Thirty keys of one mask share one ``searchsorted``: they get
        the row scan's sessions, and the same impacts as when priced
        three at a time."""
        table = tiny_ctx.trace.table
        keys = [key(asn=label) for label in table.attr_labels("asn")[:30]]
        assert len(keys) == 30
        together = cluster_engagement_impact(table, keys, model)
        assert_impacts_match(
            together, rowscan.cluster_engagement_impact(table, keys, model)
        )
        apart = list(chain.from_iterable(
            cluster_engagement_impact(table, keys[i : i + 3], model)
            for i in range(0, len(keys), 3)
        ))
        assert apart == together

    def test_absent_labels_root_and_duplicates(self, model):
        sessions = [
            make_session(cdn=f"c{i % 3}", asn=f"AS{i % 4}",
                         buffering_s=float(i % 7), join_failed=i % 11 == 0)
            for i in range(120)
        ]
        table = SessionTable.from_sessions(sessions)
        keys = [
            key(cdn="c1"),
            key(cdn="mars"),
            ClusterKey.root(),
            key(cdn="c1", asn="AS2"),
            key(cdn="c1"),
            key(cdn="c2", asn="AS9"),
            key(asn="AS3"),
            ClusterKey.root(),
        ]
        got = cluster_engagement_impact(table, keys, model)
        assert_impacts_match(got, rowscan.cluster_engagement_impact(table, keys, model))
        assert got[1].sessions == 0 and got[1].minutes_lost == 0.0
        assert got[5].sessions == 0 and got[5].minutes_lost == 0.0
        assert got[2].sessions == len(table)
        assert got[0] == got[4] and got[2] == got[7]

    def test_empty_inputs(self, model):
        assert cluster_engagement_impact(SessionTable.empty(), [], model) == []
        (root,) = cluster_engagement_impact(
            SessionTable.empty(), [ClusterKey.root()], model
        )
        assert (root.sessions, root.minutes_lost, root.minutes_lost_share) == (
            0, 0.0, 0.0
        )

    def test_past_the_packing_limit_raises(self, model):
        table = wide_table(n_last=257)  # 6 * 9 + 9 = 63 bits
        with pytest.raises(ValueError, match="63 bits"):
            cluster_engagement_impact(table, [key(cdn="cdn1")], model)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                  st.floats(0, 60), st.booleans()),
        min_size=0, max_size=60,
    ),
    st.lists(
        st.dictionaries(
            st.sampled_from(["asn", "cdn", "site"]), st.integers(0, 4), max_size=3
        ),
        max_size=12,
    ),
)
def test_leaf_sums_equal_row_scan_on_random_tables(rows, wanted):
    table = SessionTable.from_sessions(
        make_session(asn=f"AS{a}", cdn=f"c{c}", site=f"s{s}",
                     buffering_s=b, join_failed=failed)
        for a, c, s, b, failed in rows
    )
    prefix = {"asn": "AS", "cdn": "c", "site": "s"}
    keys = [
        ClusterKey.from_mapping({k: f"{prefix[k]}{v}" for k, v in pairs.items()})
        for pairs in wanted
    ]
    model = EngagementModel()
    assert_impacts_match(
        cluster_engagement_impact(table, keys, model),
        rowscan.cluster_engagement_impact(table, keys, model),
    )
