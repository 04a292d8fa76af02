"""Tests for per-epoch cluster aggregation."""

import numpy as np
import pytest

from repro.core.aggregation import (
    ClusterStats,
    KeyCodec,
    aggregate_epoch,
)
from repro.core.clusters import ClusterKey
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


def agg_of(table, metric=JOIN_FAILURE):
    return aggregate_epoch(table, np.arange(len(table)), metric)


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
        stats = agg.stats_of_key(ClusterKey.from_mapping({"asn": "AS1"}))
        assert stats == ClusterStats(10, 6)
        stats = agg.stats_of_key(ClusterKey.from_mapping({"cdn": "cdn_b"}))
        assert stats == ClusterStats(10, 1)

    def test_combination_cluster_counts(self, small_table):
        agg = agg_of(small_table)
        stats = agg.stats_of_key(
            ClusterKey.from_mapping({"asn": "AS1", "cdn": "cdn_a"})
        )
        assert stats == ClusterStats(10, 6)

    def test_absent_cluster_returns_none(self, small_table):
        agg = agg_of(small_table)
        assert agg.stats_of_key(
            ClusterKey.from_mapping({"asn": "AS1", "cdn": "cdn_b"})
        ) is None
        assert agg.stats_of_key(ClusterKey.from_mapping({"asn": "AS99"})) is None

    def test_root_key_gives_global(self, small_table):
        agg = agg_of(small_table)
        assert agg.stats_of_key(ClusterKey.root()) == agg.global_stats

    def test_every_mask_conserves_totals(self, small_table):
        agg = agg_of(small_table)
        for mask, mask_agg in agg.per_mask.items():
            assert int(mask_agg.sessions.sum()) == agg.total_sessions, mask
            assert int(mask_agg.problems.sum()) == agg.total_problems, mask

    def test_mask_count(self, small_table):
        agg = agg_of(small_table)
        assert len(agg.per_mask) == (1 << 7) - 1

    def test_invalid_sessions_excluded(self, small_table):
        # join time is undefined for failed joins: only 13 valid sessions
        agg = agg_of(small_table, JOIN_TIME)
        assert agg.total_sessions == 13
        assert agg.total_problems == 0

    def test_problem_flags_override(self, small_table):
        flags = np.zeros(len(small_table), dtype=bool)
        flags[:3] = True
        agg = aggregate_epoch(
            small_table,
            np.arange(len(small_table)),
            JOIN_FAILURE,
            problem_flags=flags,
        )
        assert agg.total_problems == 3

    def test_problem_flags_wrong_shape_rejected(self, small_table):
        with pytest.raises(ValueError, match="problem_flags shape"):
            aggregate_epoch(
                small_table,
                np.arange(len(small_table)),
                JOIN_FAILURE,
                problem_flags=np.zeros(3, dtype=bool),
            )

    def test_rows_subset(self, small_table):
        agg = aggregate_epoch(small_table, np.arange(10), JOIN_FAILURE)
        assert agg.total_sessions == 10
        assert agg.total_problems == 6

    def test_empty_rows(self, small_table):
        agg = aggregate_epoch(small_table, np.array([], dtype=np.int64), JOIN_FAILURE)
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

    def test_index_of_vector(self, small_table):
        agg = agg_of(small_table)
        leaf = agg.leaf
        idx = leaf.index_of(leaf.keys)
        assert idx.tolist() == list(range(len(leaf)))

    def test_index_of_missing(self, small_table):
        agg = agg_of(small_table)
        leaf = agg.leaf
        missing = int(leaf.keys.max()) + 1
        assert leaf.index_of(missing) == -1


class TestBufferingAggregation:
    def test_buffering_problems_counted(self):
        sessions = [
            make_session(duration_s=100, buffering_s=b) for b in (0, 2, 10, 20)
        ]
        table = SessionTable.from_sessions(sessions)
        agg = agg_of(table, BUFFERING_RATIO)
        assert agg.total_problems == 2  # ratios 0.10 and 0.20


class TestKeyCodecEncode:
    def test_encode_key_roundtrip(self, small_table):
        codec = KeyCodec.from_table(small_table)
        key = ClusterKey.from_mapping({"asn": "AS1", "cdn": "cdn_a"})
        encoded = codec.encode_key(key)
        assert encoded is not None
        mask, packed = encoded
        assert codec.decode(mask, packed) == key

    def test_encode_unknown_label_is_none(self, small_table):
        codec = KeyCodec.from_table(small_table)
        key = ClusterKey.from_mapping({"asn": "AS_nope"})
        assert codec.encode_key(key) is None

    def test_code_maps_cached(self, small_table):
        codec = KeyCodec.from_table(small_table)
        assert codec.code_maps() is codec.code_maps()
