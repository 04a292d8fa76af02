"""Tests for per-epoch cluster aggregation."""

import numpy as np
import pytest

from repro.core.aggregation import ClusterStats, KeyCodec
from repro.core.clusters import ClusterKey
from repro.core.index import TraceClusterIndex
from repro.core.metrics import BUFFERING_RATIO, JOIN_FAILURE, JOIN_TIME
from repro.core.sessions import SessionTable
from tests.conftest import make_session


@pytest.fixture()
def small_table() -> SessionTable:
    sessions = []
    # 6 failing of 10 on (AS1, cdn_a); 1 failing of 10 on (AS2, cdn_b)
    for i in range(10):
        sessions.append(make_session(asn="AS1", cdn="cdn_a", join_failed=i < 6))
    for i in range(10):
        sessions.append(make_session(asn="AS2", cdn="cdn_b", join_failed=i < 1))
    return SessionTable.from_sessions(sessions)


def agg_of(table, metric=JOIN_FAILURE, rows=None):
    """The whole lattice's counts: a floor-1 view of ``rows`` (all)."""
    rows = np.arange(len(table)) if rows is None else rows
    return TraceClusterIndex.build(table).epoch_view(rows).aggregate(metric)


def stats_of(agg, key: ClusterKey) -> ClusterStats | None:
    """One cluster's counts, found by its decoded identity (``None``
    when the lattice has no such cluster)."""
    if key == ClusterKey.root():
        return agg.global_stats
    for cid in range(agg.lattice.n_clusters):
        if agg.lattice.key_of(cid) == key:
            return ClusterStats(int(agg.sessions[cid]), int(agg.problems[cid]))
    return None


class TestClusterStats:
    def test_ratio(self):
        assert ClusterStats(10, 3).ratio == pytest.approx(0.3)

    def test_zero_sessions_ratio(self):
        assert ClusterStats(0, 0).ratio == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ClusterStats(-1, 0)

    def test_problems_exceeding_sessions_rejected(self):
        with pytest.raises(ValueError):
            ClusterStats(5, 6)


class TestAggregation:
    def test_global_counts(self, small_table):
        agg = agg_of(small_table)
        assert agg.total_sessions == 20
        assert agg.total_problems == 7
        assert agg.global_ratio == pytest.approx(0.35)

    def test_single_attribute_cluster_counts(self, small_table):
        agg = agg_of(small_table)
        stats = stats_of(agg, ClusterKey.from_mapping({"asn": "AS1"}))
        assert stats == ClusterStats(10, 6)
        stats = stats_of(agg, ClusterKey.from_mapping({"cdn": "cdn_b"}))
        assert stats == ClusterStats(10, 1)

    def test_combination_cluster_counts(self, small_table):
        agg = agg_of(small_table)
        stats = stats_of(agg, 
            ClusterKey.from_mapping({"asn": "AS1", "cdn": "cdn_a"})
        )
        assert stats == ClusterStats(10, 6)

    def test_absent_cluster_returns_none(self, small_table):
        agg = agg_of(small_table)
        assert stats_of(agg, 
            ClusterKey.from_mapping({"asn": "AS1", "cdn": "cdn_b"})
        ) is None
        assert stats_of(agg, ClusterKey.from_mapping({"asn": "AS99"})) is None

    def test_root_key_gives_global(self, small_table):
        agg = agg_of(small_table)
        assert stats_of(agg, ClusterKey.root()) == agg.global_stats

    def test_every_mask_conserves_totals(self, small_table):
        agg = agg_of(small_table)
        for mask in range(1, agg.codec.full_mask + 1):
            span = agg.lattice.span(mask)
            assert int(agg.sessions[span].sum()) == agg.total_sessions, mask
            assert int(agg.problems[span].sum()) == agg.total_problems, mask

    def test_mask_count(self, small_table):
        agg = agg_of(small_table)
        assert np.count_nonzero(np.diff(agg.lattice.starts)) == (1 << 7) - 1

    def test_invalid_sessions_excluded(self, small_table):
        # join time is undefined for failed joins: only 13 valid sessions
        agg = agg_of(small_table, JOIN_TIME)
        assert agg.total_sessions == 13
        assert agg.total_problems == 0

    def test_rows_subset(self, small_table):
        agg = agg_of(small_table, rows=np.arange(10))
        assert agg.total_sessions == 10
        assert agg.total_problems == 6

    def test_empty_rows(self, small_table):
        agg = agg_of(small_table, rows=np.array([], dtype=np.int64))
        assert agg.total_sessions == 0
        assert agg.global_ratio == 0.0


class TestKeyCodec:
    def test_decode_round_trip(self, small_table):
        codec = KeyCodec.from_table(small_table)
        packed = codec.pack(small_table.codes[:1])[0]
        key = codec.decode(codec.full_mask, int(packed))
        assert key.as_dict() == dict(next(small_table.rows()).attrs)

    def test_decode_partial_mask(self, small_table):
        codec = KeyCodec.from_table(small_table)
        packed = codec.pack(small_table.codes[:1])[0]
        mask = small_table.schema.mask_of(["cdn"])
        fm = codec.field_masks()
        key = codec.decode(mask, int(packed) & int(fm[mask]))
        assert key == ClusterKey.from_mapping({"cdn": "cdn_a"})

    def test_field_masks_cached(self, small_table):
        codec = KeyCodec.from_table(small_table)
        assert codec.field_masks() is codec.field_masks()

    def test_layout_widths_and_offsets(self):
        widths, offsets = KeyCodec.layout([0, 1, 2, 3, 4, 5, 256])
        assert widths.tolist() == [1, 1, 1, 2, 2, 3, 8]
        assert offsets.tolist() == [0, 1, 2, 3, 5, 7, 10]

    def test_layout_limit_is_62_bits(self):
        widths, _ = KeyCodec.layout([512] * 6 + [256])
        assert int(widths.sum()) == 62
        with pytest.raises(ValueError, match="63 bits"):
            KeyCodec.layout([512] * 6 + [257])

    def test_index_of_vector(self, small_table):
        agg = agg_of(small_table)
        full = agg.codec.full_mask
        span = agg.lattice.span(full)
        keys = agg.lattice.keys[span]
        ids = [agg.lattice.find(full, int(k)) for k in keys]
        assert ids == list(range(span.start, span.stop))

    def test_index_of_missing(self, small_table):
        agg = agg_of(small_table)
        full = agg.codec.full_mask
        missing = int(agg.lattice.keys[agg.lattice.span(full)].max()) + 1
        assert agg.lattice.find(full, missing) == -1
        assert agg.lattice.find(0, 0) == -1


class TestBufferingAggregation:
    def test_buffering_problems_counted(self):
        sessions = [
            make_session(duration_s=100, buffering_s=b) for b in (0, 2, 10, 20)
        ]
        table = SessionTable.from_sessions(sessions)
        agg = agg_of(table, BUFFERING_RATIO)
        assert agg.total_problems == 2  # ratios 0.10 and 0.20
