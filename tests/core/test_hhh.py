"""Tests for the hierarchical-heavy-hitters baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clusters import ClusterKey
from repro.core.hhh import HHHConfig, find_hierarchical_heavy_hitters
from repro.core.index import TraceClusterIndex
from repro.core.metrics import BITRATE, JOIN_FAILURE, JOIN_TIME
from repro.core.sessions import SessionTable
from tests.conftest import make_session
from tests.core.direct_aggregate import aggregate_epoch


def agg_from(groups, seed=0):
    rng = np.random.default_rng(seed)
    sessions = []
    for attrs, n, fail_p in groups:
        for _ in range(n):
            merged = {
                "asn": f"AS{rng.integers(0, 4)}",
                "site": f"site_{rng.integers(0, 4)}",
            }
            merged.update(attrs)
            sessions.append(
                make_session(join_failed=bool(rng.random() < fail_p), **merged)
            )
    table = SessionTable.from_sessions(sessions)
    return aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)


class TestHHHConfig:
    def test_default_phi(self):
        assert HHHConfig().phi == 0.02

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            HHHConfig(phi=0.0)
        with pytest.raises(ValueError):
            HHHConfig(phi=1.5)


class TestDetection:
    def test_dominant_cluster_reported_at_coarse_phi(self):
        # With phi above any single (asn/site-refined) slice's share,
        # the bad CDN is pinned without splitting over the varying
        # attributes. (Attributes that never vary — player, browser,
        # ... — ride along at full depth; HHH has no minimality rule,
        # which is the paper's argument against it.)
        agg = agg_from([({"cdn": "bad"}, 1000, 0.5), ({"cdn": "ok"}, 3000, 0.02)])
        hitters = find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.3))
        assert len(hitters) == 1
        pinned = dict(hitters[0].key.pairs)
        assert pinned.get("cdn") == "bad"
        assert "asn" not in pinned and "site" not in pinned

    def test_fine_phi_reports_descendants(self):
        # With a small phi the per-ASN descendants qualify first and
        # claim the mass — the paper's argument for why plain HHH is
        # not a critical-cluster detector (Section 7).
        agg = agg_from([({"cdn": "bad"}, 1000, 0.5), ({"cdn": "ok"}, 3000, 0.02)])
        hitters = find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.1))
        assert hitters
        for h in hitters:
            assert dict(h.key.pairs).get("cdn") == "bad"
            assert h.key.depth > 1

    def test_no_problems_no_hitters(self):
        agg = agg_from([({"cdn": "ok"}, 500, 0.0)])
        assert find_hierarchical_heavy_hitters(agg) == []

    def test_discount_prevents_double_reporting(self):
        # One concentrated leaf-ish cause: once the deep cluster is
        # reported, its ancestors' discounted counts drop below phi.
        agg = agg_from(
            [
                ({"cdn": "bad", "asn": "AS_x", "site": "s_x"}, 800, 0.6),
                ({"cdn": "ok"}, 4000, 0.01),
            ],
            seed=1,
        )
        hitters = find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.3))
        # Every reported cluster must have discounted >= threshold
        total = agg.total_problems
        for h in hitters:
            assert h.discounted_problems >= 0.3 * total

    def test_discounted_never_exceeds_raw(self):
        agg = agg_from(
            [({"cdn": "bad"}, 1000, 0.4), ({"cdn": "ok"}, 2000, 0.05)], seed=2
        )
        for h in find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.05)):
            assert h.discounted_problems <= h.raw_problems + 1e-9

    def test_lower_phi_reports_more(self):
        agg = agg_from(
            [({"cdn": "bad"}, 1000, 0.4), ({"site": "s_bad"}, 800, 0.3),
             ({"cdn": "ok"}, 3000, 0.03)],
            seed=3,
        )
        few = find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.3))
        many = find_hierarchical_heavy_hitters(agg, HHHConfig(phi=0.02))
        assert len(many) >= len(few)

    def test_iceberg_lattice_rejected(self):
        # A heavy hitter's discounted count can clear phi below any
        # session floor, so HHH needs the whole lattice.
        from repro.core.index import TraceClusterIndex

        table = SessionTable.from_sessions(
            make_session(cdn="bad" if i < 100 else "ok", join_failed=i < 50)
            for i in range(400)
        )
        rows = np.arange(len(table))
        view = TraceClusterIndex.build(table).epoch_view(rows, floor=60)
        with pytest.raises(ValueError, match="whole lattice"):
            find_hierarchical_heavy_hitters(view.aggregate(JOIN_FAILURE))
        whole = TraceClusterIndex.build(table).epoch_view(rows)
        assert find_hierarchical_heavy_hitters(whole.aggregate(JOIN_FAILURE))


# Sessions over a few ASNs, CDNs and sites; a failed join has no join
# time and no bitrate, so those metrics see only part of the table.
hhh_rows = st.lists(
    st.tuples(
        st.integers(0, 3),  # asn
        st.integers(0, 2),  # cdn
        st.integers(0, 1),  # site
        st.booleans(),  # join failed
        st.floats(0.5, 20.0),  # join time (problem above 10 s)
        st.floats(200.0, 3000.0),  # bitrate (problem below 700 kbps)
    ),
    min_size=1,
    max_size=120,
)


class TestFloorOneView:
    """The abl-hhh ablation reads a floor-1 view, not the direct
    aggregate. The view also keeps zero-count clusters (leaves whose
    sessions are all invalid for the metric); their discounted count is
    0, below phi times the total, so the heavy hitters do not change."""

    @settings(max_examples=60, deadline=None)
    @given(hhh_rows, st.sampled_from([JOIN_TIME, BITRATE, JOIN_FAILURE]))
    def test_view_equals_direct_lattice(self, rows, metric):
        table = SessionTable.from_sessions(
            make_session(
                asn=f"AS{a}", cdn=f"c{c}", site=f"s{s}", join_failed=failed,
                join_time_s=join, bitrate_kbps=rate,
            )
            for a, c, s, failed, join, rate in rows
        )
        every = np.arange(len(table))
        view = TraceClusterIndex.build(table).epoch_view(every).aggregate(metric)
        direct = aggregate_epoch(table, every, metric)
        for phi in (0.01, 0.05, 0.2, 0.5, 1.0):
            config = HHHConfig(phi=phi)
            assert find_hierarchical_heavy_hitters(
                view, config
            ) == find_hierarchical_heavy_hitters(direct, config)

    def test_view_keeps_clusters_the_direct_path_drops(self):
        # The property above is not vacuous: with invalid sessions the
        # two lattices differ.
        table = SessionTable.from_sessions(
            [make_session(cdn="c0", join_time_s=15.0),
             make_session(cdn="c1", join_failed=True)]
        )
        every = np.arange(len(table))
        view = TraceClusterIndex.build(table).epoch_view(every)
        direct = aggregate_epoch(table, every, JOIN_TIME)
        assert view.lattice.n_clusters > direct.lattice.n_clusters
        assert find_hierarchical_heavy_hitters(
            view.aggregate(JOIN_TIME)
        ) == find_hierarchical_heavy_hitters(direct)
