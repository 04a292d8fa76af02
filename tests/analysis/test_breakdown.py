"""Tests for the Figure 10 breakdown."""

import pytest

from repro.analysis.breakdown import (
    NOT_ATTRIBUTED,
    NOT_IN_PROBLEM_CLUSTER,
    critical_type_breakdown,
    signature_label,
    single_attribute_share,
)
from repro.core.aggregation import ClusterStats
from repro.core.attributes import DEFAULT_SCHEMA
from repro.core.clusters import ClusterKey
from repro.core.critical import CriticalAttribution
from repro.core.epoching import EpochGrid
from repro.core.metrics import JOIN_FAILURE
from repro.core.pipeline import EpochAnalysis, MetricAnalysis
from tests.core.dict_results import single_attribute_shares, type_breakdown


class TestSignatureLabel:
    def test_paper_style(self):
        assert signature_label(("site",), DEFAULT_SCHEMA) == (
            "[*, *, site, *, *, *, *]"
        )
        assert signature_label(("asn", "cdn"), DEFAULT_SCHEMA) == (
            "[asn, cdn, *, *, *, *, *]"
        )

    def test_empty_signature(self):
        assert signature_label((), DEFAULT_SCHEMA) == "[*, *, *, *, *, *, *]"


class TestBreakdown:
    def test_fractions_sum_to_one(self, tiny_analysis):
        for name, ma in tiny_analysis.metrics.items():
            sectors = critical_type_breakdown(ma)
            total = sum(s.fraction for s in sectors)
            assert total == pytest.approx(1.0, abs=1e-6), name

    def test_residual_sectors_present(self, tiny_analysis):
        sectors = critical_type_breakdown(tiny_analysis["join_failure"])
        labels = [s.signature for s in sectors]
        assert NOT_ATTRIBUTED in labels
        assert NOT_IN_PROBLEM_CLUSTER in labels

    def test_max_sectors_folds_tail(self, tiny_analysis):
        sectors = critical_type_breakdown(tiny_analysis["join_failure"],
                                          max_sectors=2)
        named = [
            s for s in sectors
            if s.signature not in (NOT_ATTRIBUTED, NOT_IN_PROBLEM_CLUSTER,
                                   "Other combinations")
        ]
        assert len(named) <= 2

    def test_sectors_ordered_by_mass(self, tiny_analysis):
        sectors = critical_type_breakdown(tiny_analysis["buffering_ratio"])
        named = [
            s for s in sectors
            if s.signature not in (NOT_ATTRIBUTED, NOT_IN_PROBLEM_CLUSTER,
                                   "Other combinations")
        ]
        masses = [s.problem_sessions for s in named]
        assert masses == sorted(masses, reverse=True)

    def test_nonnegative(self, tiny_analysis):
        for ma in tiny_analysis.metrics.values():
            for s in critical_type_breakdown(ma):
                assert s.fraction >= 0
                assert s.problem_sessions >= 0

    def test_empty_analysis(self):
        ma = MetricAnalysis(metric=JOIN_FAILURE, grid=EpochGrid(n_epochs=0),
                            epochs=[])
        assert critical_type_breakdown(ma) == []


class TestSingleAttributeShare:
    def test_shares_bounded(self, tiny_analysis):
        for ma in tiny_analysis.metrics.values():
            shares = single_attribute_share(ma)
            assert set(shares) == {"site", "cdn", "asn", "connection_type"}
            assert all(0 <= v <= 1 for v in shares.values())
            assert sum(shares.values()) <= 1.0 + 1e-9

    def test_dominant_types(self, tiny_analysis):
        """Paper Section 4.3: Site/CDN/ASN/ConnType dominate the
        critical clusters — most attributed mass sits on them."""
        total_single = 0.0
        for ma in tiny_analysis.metrics.values():
            total_single += sum(single_attribute_share(ma).values())
        assert total_single / len(tiny_analysis.metrics) > 0.5


def _epoch(epoch, critical):
    """A hand-built epoch whose critical clusters attribute the given
    problem sessions, in the given row order."""
    return EpochAnalysis(
        epoch=epoch,
        total_sessions=1000,
        total_problems=40,
        min_sessions=10,
        problem_cluster_coverage=0.75,
        problem_clusters={},
        critical_clusters={
            ClusterKey(pairs): CriticalAttribution(attributed, attributed, ClusterStats(100, 10))
            for pairs, attributed in critical
        },
    )


class TestColumnsAgainstTheEpochLoop:
    def test_tied_signatures_keep_first_seen_order(self):
        """Equal totals rank in the order the signatures first appear
        (CDN before ASN here), not in attribute-mask order."""
        epochs = [
            _epoch(0, [((("cdn", "c1"),), 3.5), ((("asn", "a1"),), 2.0)]),
            _epoch(1, [((("asn", "a2"),), 1.5), ((("asn", "a1"), ("site", "s1")), 6.0)]),
            _epoch(2, [((("cdn", "c2"),), 0.25), ((("asn", "a1"),), 0.25)]),
        ]
        ma = MetricAnalysis(JOIN_FAILURE, EpochGrid(n_epochs=3), epochs=epochs)
        for max_sectors in (8, 2, 1):
            sectors = critical_type_breakdown(ma, max_sectors=max_sectors)
            assert sectors == type_breakdown(epochs, max_sectors)
        labels = [s.signature for s in critical_type_breakdown(ma)][:3]
        assert labels == [
            signature_label(names, DEFAULT_SCHEMA)
            for names in (("asn", "site"), ("cdn",), ("asn",))
        ]
        assert single_attribute_share(ma) == single_attribute_shares(epochs)
