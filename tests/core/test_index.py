"""Unit tests for the trace-global cluster index and its epoch views."""

import pickle

import numpy as np
import pytest

from repro.core.aggregation import KeyCodec
from repro.core.critical import find_critical_clusters
from repro.core.index import EpochClusterView, TraceClusterIndex
from repro.core.metrics import (
    ALL_METRICS,
    BUFFERING_RATIO,
    JOIN_FAILURE,
    MetricThresholds,
)
from repro.core.problems import ProblemClusterConfig, find_problem_clusters
from repro.core.sessions import SessionTable
from tests.conftest import make_session, planted_failure_table, views_in_batches
from tests.core.direct_aggregate import aggregate_epoch


@pytest.fixture(scope="module")
def table() -> SessionTable:
    return planted_failure_table(n=2000, seed=3)


@pytest.fixture(scope="module")
def index(table) -> TraceClusterIndex:
    return TraceClusterIndex.build(table)


class TestBuild:
    def test_leaf_universe_matches_direct_pack(self, table, index):
        codec = KeyCodec.from_table(table)
        packed = codec.pack(table.codes)
        expected = np.unique(packed)
        np.testing.assert_array_equal(index.leaf_keys, expected)
        np.testing.assert_array_equal(
            index.leaf_keys[index.row_to_leaf], packed
        )

    def test_mask_keys_are_sorted_projections(self, table, index):
        view = index.epoch_view(np.arange(len(table)))
        field_masks = index.codec.field_masks()
        for m in range(1, index.codec.full_mask + 1):
            expected = np.unique(index.leaf_keys & field_masks[m])
            np.testing.assert_array_equal(view.keys(m), expected)

    def test_leaf_to_cluster_inverts_projection(self, table, index):
        view = index.epoch_view(np.arange(len(table)))
        lattice = view.lattice
        field_masks = index.codec.field_masks()
        leaves = view.keys(index.codec.full_mask)
        for m in range(1, index.codec.full_mask + 1):
            ids = lattice.leaf_cluster[m]
            span = lattice.span(m)
            assert ((ids >= span.start) & (ids < span.stop)).all()
            np.testing.assert_array_equal(
                lattice.keys[ids], leaves & field_masks[m]
            )

    def test_kept_iff_at_floor(self, table, index):
        """A cluster is kept if and only if its all-sessions count is at
        or above the floor, with each leaf's id per mask -1 exactly
        where its floor-1 cluster is below the floor."""
        rows = np.arange(0, len(table), 2)
        whole_view = index.epoch_view(rows)
        whole = whole_view.lattice
        leaf_rows = np.bincount(whole_view.row_leaf_local)
        counts = np.zeros(whole.n_clusters, dtype=np.int64)
        for m in range(1, index.codec.full_mask + 1):
            np.add.at(counts, whole.leaf_cluster[m], leaf_rows)
        # the leaves hold 6-21 sessions and the epoch 1,000
        for floor in (7, 12, 40, 400, 1001):
            lattice = index.epoch_view(rows, floor=floor).lattice
            assert lattice.floor == floor
            kept = counts >= floor
            assert not kept.all()
            np.testing.assert_array_equal(lattice.keys, whole.keys[kept])
            np.testing.assert_array_equal(
                np.diff(lattice.starts),
                np.bincount(
                    whole.mask_of(np.flatnonzero(kept)),
                    minlength=whole.starts.size - 1,
                ),
            )
            # leaf -> cluster: the same cluster where kept, -1 where pruned
            new_id = np.full(whole.n_clusters + 1, -1)
            new_id[np.flatnonzero(kept)] = np.arange(lattice.n_clusters)
            np.testing.assert_array_equal(
                lattice.leaf_cluster, new_id[whole.leaf_cluster]
            )
            # every kept cluster's representative leaf lies under it
            ids = np.arange(lattice.n_clusters)
            np.testing.assert_array_equal(
                lattice.leaf_cluster[lattice.mask_of(ids), lattice.rep_leaf], ids
            )

    def test_counts(self, index, table):
        assert index.n_leaves == index.leaf_keys.size
        assert index.memory_bytes() >= (
            index.leaf_keys.nbytes + index.row_to_leaf.nbytes
        )
        assert index.memory_bytes() > 0


@pytest.fixture(scope="module")
def view(table, index) -> EpochClusterView:
    return index.epoch_view(np.arange(0, len(table), 3))


class TestProjectIndex:
    """A cluster's ancestor on a submask is its representative leaf's
    cluster there: ``leaf_cluster[coarse, rep_leaf[ids]]``."""

    def test_matches_searchsorted(self, index, view):
        lattice = view.lattice
        field_masks = index.codec.field_masks()
        full = index.codec.full_mask
        for fine, coarse in [(full, 1), (3, 1), (7, 5), (full, full >> 1)]:
            span = lattice.span(fine)
            fine_ids = np.arange(span.start, span.stop)
            got = lattice.leaf_cluster[coarse, lattice.rep_leaf[fine_ids]]
            expected = lattice.span(coarse).start + np.searchsorted(
                view.keys(coarse), view.keys(fine) & field_masks[coarse]
            )
            np.testing.assert_array_equal(got, expected)

    def test_ancestor_pairs_cover_every_submask(self, index, view):
        lattice = view.lattice
        field_masks = index.codec.field_masks()
        ids = np.arange(0, lattice.n_clusters, 97)
        owner, ancestor = lattice.ancestors(ids)
        expected = sorted(
            (i, a)
            for i, m in enumerate(lattice.mask_of(ids).tolist())
            for a in range(1, m)
            if a & m == a
        )
        got = sorted(zip(owner.tolist(), lattice.mask_of(ancestor).tolist()))
        assert got == expected
        np.testing.assert_array_equal(
            lattice.keys[ancestor],
            lattice.keys[ids[owner]] & field_masks[lattice.mask_of(ancestor)],
        )

    def test_cached_identity(self, view):
        # Every thresholds variant of the epoch reads one lattice, so
        # one ancestor-pair table and one decoded key per cluster.
        a = view.aggregate(JOIN_FAILURE)
        b = view.aggregate(JOIN_FAILURE, thresholds=MetricThresholds().scaled(2.0))
        assert a.lattice.pairs() is b.lattice.pairs()
        assert view.lattice.key_of(3) is view.lattice.key_of(3)


class TestMetricMasks:
    def test_cached_per_metric_and_thresholds(self, index, table):
        a = index.metric_masks(JOIN_FAILURE)
        assert index.metric_masks(JOIN_FAILURE)[0] is a[0]
        other = index.metric_masks(
            BUFFERING_RATIO, MetricThresholds(buffering_ratio=0.5)
        )
        assert other[0] is not a[0]

    def test_values_match_metric(self, index, table):
        valid, problem = index.metric_masks(JOIN_FAILURE)
        np.testing.assert_array_equal(valid, JOIN_FAILURE.valid_mask(table))
        np.testing.assert_array_equal(
            problem, JOIN_FAILURE.problem_mask(table, MetricThresholds())
        )

    def test_warm_prefills(self, table):
        idx = TraceClusterIndex.build(table)
        idx.warm_metric_masks(ALL_METRICS)
        before = idx.memory_bytes()
        for metric in ALL_METRICS:
            idx.metric_masks(metric)
        assert idx.memory_bytes() == before


def assert_equal_aggregates(a, b):
    """`b` must contain exactly `a`'s clusters plus (possibly) clusters
    whose counts are all zero, with identical counts on the shared ones."""
    assert a.total_sessions == b.total_sessions
    assert a.total_problems == b.total_problems
    for m in range(1, a.codec.full_mask + 1):
        sa, sb = a.lattice.span(m), b.lattice.span(m)
        keys_a, keys_b = a.lattice.keys[sa], b.lattice.keys[sb]
        pos = np.searchsorted(keys_b, keys_a)
        np.testing.assert_array_equal(keys_b[pos], keys_a)
        np.testing.assert_array_equal(b.sessions[sb][pos], a.sessions[sa])
        np.testing.assert_array_equal(b.problems[sb][pos], a.problems[sa])
        extra = np.ones(keys_b.size, dtype=bool)
        extra[pos] = False
        assert not b.sessions[sb][extra].any()
        assert not b.problems[sb][extra].any()


class TestEpochViewAggregate:
    """The view oracle (:mod:`tests.core.direct_aggregate`) against each
    view built alone and inside batches of other epochs."""

    def test_matches_legacy_aggregate(self, table, index):
        rows = np.arange(0, len(table), 2)
        for metric in ALL_METRICS:
            legacy = aggregate_epoch(table, rows, metric, epoch=4)
            indexed = index.epoch_view(rows, epoch=4).aggregate(metric)
            assert indexed.epoch == 4
            assert indexed.metric_name == metric.name
            assert_equal_aggregates(legacy, indexed)
            for view in views_in_batches(index, rows):
                assert_equal_aggregates(legacy, view.aggregate(metric))

    def test_view_shared_across_metrics(self, table, index):
        rows = np.arange(100)
        for view in views_in_batches(index, rows):
            for metric in ALL_METRICS:
                agg = view.aggregate(metric)
                assert agg.lattice is view.lattice
                assert_equal_aggregates(
                    aggregate_epoch(table, rows, metric, epoch=1), agg
                )

    def test_empty_rows(self, index):
        agg = index.epoch_view(np.arange(0)).aggregate(JOIN_FAILURE)
        assert agg.total_sessions == 0
        assert agg.lattice.n_leaves == 0
        assert agg.lattice.n_clusters == 0

    def test_view_project_index_local(self, index, table):
        view = index.epoch_view(np.arange(0, len(table), 3))
        lattice = view.lattice
        full = index.codec.full_mask
        for fine, coarse in [(full, 1), (7, 5)]:
            span = lattice.span(fine)
            ancestor = lattice.leaf_cluster[
                coarse, lattice.rep_leaf[span.start : span.stop]
            ]
            field = index.codec.field_masks()[coarse]
            np.testing.assert_array_equal(
                lattice.keys[ancestor], view.keys(fine) & field
            )

    def test_downstream_detection_matches_legacy(self, table, index):
        rows = np.arange(len(table))
        config = ProblemClusterConfig(
            min_sessions=20, min_problems=2, significance_sigmas=0.0
        )
        legacy_agg = aggregate_epoch(table, rows, JOIN_FAILURE)
        legacy = find_critical_clusters(find_problem_clusters(legacy_agg, config))
        for view in views_in_batches(index, rows):
            indexed = find_critical_clusters(
                find_problem_clusters(view.aggregate(JOIN_FAILURE), config)
            )
            assert legacy.problems.cluster_keys() == indexed.problems.cluster_keys()
            assert legacy.decoded() == indexed.decoded()
            assert legacy.unattributed_problem_sessions == pytest.approx(
                indexed.unattributed_problem_sessions
            )
            # the planted CDN produces structure, so equality is not vacuous
            assert indexed.problems.n_clusters > 0

    def test_index_survives_pickling(self, index, table):
        clone = pickle.loads(pickle.dumps(index))
        rows = np.arange(0, len(table), 5)
        a = index.epoch_view(rows).aggregate(JOIN_FAILURE)
        b = clone.epoch_view(rows).aggregate(JOIN_FAILURE)
        assert_equal_aggregates(a, b)
        assert_equal_aggregates(b, a)


class TestViewConstruction:
    def test_active_keys_sorted_subsets(self, index, table):
        view = index.epoch_view(np.arange(0, 300))
        whole = index.epoch_view(np.arange(len(table)))
        for m in range(1, index.codec.full_mask + 1):
            keys = view.keys(m)
            assert np.all(np.diff(keys) > 0)
            assert np.isin(keys, whole.keys(m)).all()

    def test_single_row(self, index):
        view = index.epoch_view(np.array([7]))
        assert view.n_leaves == 1
        for m in range(1, index.codec.full_mask + 1):
            assert view.keys(m).size == 1
