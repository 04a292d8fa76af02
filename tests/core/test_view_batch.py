"""Epoch views built in batches against the same epochs built alone.

:meth:`~repro.core.index.TraceClusterIndex.epoch_views` builds the
iceberg lattices of many epochs in one pass. Each epoch's lattice (its
keys, mask starts, each leaf's cluster per mask, representative leaves
and ancestor pairs) and every aggregate of it must equal a batch of
that epoch alone, whatever else shares its batch, and a sweep must give
the same answer serially, in a pool and at any view budget.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.substrate as substrate_mod
from repro.core.aggregation import KeyCodec
from repro.core.attributes import DEFAULT_SCHEMA, AttributeSchema
from repro.core.index import TraceClusterIndex
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE, MetricThresholds
from repro.core.pipeline import analyze_trace
from repro.core.sessions import SessionTable
from repro.core.substrate import AnalysisSubstrate, analyze_sweep, epoch_floors
from tests.conftest import make_session, planted_failure_table
from tests.core.direct_aggregate import aggregate_epoch
from tests.core.test_index import assert_equal_aggregates
from tests.property.test_parallel_equivalence import (
    ALL_METRICS_CONFIG,
    SMALL_CONFIG,
    assert_equal_analyses,
    reference_analysis,
)


def assert_same_view(batched, alone):
    """Two views of one epoch hold the same lattice and aggregates."""
    a, b = batched.lattice, alone.lattice
    assert batched.epoch == alone.epoch
    assert a.floor == b.floor
    for name in ("keys", "starts", "leaf_cluster", "rep_leaf"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == getattr(b, name).dtype
    for x, y in zip(a.pairs(), b.pairs()):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(batched.rows, alone.rows)
    np.testing.assert_array_equal(batched.row_leaf_local, alone.row_leaf_local)
    for metric in ALL_METRICS:
        for thresholds in (None, MetricThresholds().scaled(0.5)):
            x = batched.aggregate(metric, thresholds)
            y = alone.aggregate(metric, thresholds)
            assert (x.epoch, x.total_sessions, x.total_problems) == (
                y.epoch,
                y.total_sessions,
                y.total_problems,
            )
            for name in ("sessions", "problems", "leaf_sessions", "leaf_problems"):
                np.testing.assert_array_equal(getattr(x, name), getattr(y, name))


def assert_batch_matches_alone(index, rows_list, floors, epochs=None):
    """One batch over ``rows_list`` gives each epoch its lone view."""
    epochs = list(range(len(rows_list))) if epochs is None else epochs
    views = index.epoch_views(rows_list, epochs, floors)
    assert [v.epoch for v in views] == epochs
    for view, rows, epoch, floor in zip(views, rows_list, epochs, floors):
        assert_same_view(view, index.epoch_view(rows, epoch=epoch, floor=floor))
    return views


@pytest.fixture(scope="module")
def table() -> SessionTable:
    return planted_failure_table(n=1500, seed=5)


@pytest.fixture(scope="module")
def index(table) -> TraceClusterIndex:
    return TraceClusterIndex.build(table)


class TestEdgeShapes:
    """Each shape sits first, in the middle and last of its batch."""

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_empty_epoch(self, index, table, at):
        rows_list = [np.arange(0, 500), np.arange(500, 1100)]
        rows_list.insert(at, np.arange(0))
        views = assert_batch_matches_alone(index, rows_list, [5, 5, 5])
        assert views[at].n_leaves == 0
        assert views[at].lattice.n_clusters == 0
        assert views[at].aggregate(ALL_METRICS[0]).total_sessions == 0

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_one_session_epoch(self, index, at):
        rows_list = [np.arange(0, 400), np.arange(400, 900)]
        rows_list.insert(at, np.array([1234]))
        views = assert_batch_matches_alone(index, rows_list, [1, 1, 1])
        assert views[at].n_leaves == 1
        full = index.codec.full_mask
        assert views[at].lattice.n_clusters == full

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_root_under_its_floor(self, index, at):
        rows_list = [np.arange(0, 400), np.arange(400, 900)]
        rows_list.insert(at, np.arange(900, 950))
        floors = [10, 10]
        floors.insert(at, 51)
        views = assert_batch_matches_alone(index, rows_list, floors)
        assert views[at].lattice.n_clusters == 0
        assert (views[at].lattice.leaf_cluster == -1).all()
        assert views[at].aggregate(JOIN_FAILURE).total_sessions == 50

    def test_different_floors_per_epoch(self, index, table):
        rng = np.random.default_rng(2)
        rows_list = [
            np.sort(rng.choice(len(table), size, replace=False))
            for size in (300, 700, 120, 1000)
        ]
        floors = [1, 40, 7, 300]
        views = assert_batch_matches_alone(index, rows_list, floors)
        assert [v.lattice.floor for v in views] == floors
        # the floors differ enough that the kept lattices do too
        assert len({v.lattice.n_clusters for v in views}) == 4

    def test_overlapping_and_repeated_rows(self, index):
        # The batch never assumes its epochs' rows are disjoint.
        rows = np.arange(0, 600)
        assert_batch_matches_alone(index, [rows, rows, rows[::2]], [3, 20, 3])

    def test_views_equal_the_direct_aggregate(self, index, table):
        rows_list = [np.arange(0, 700), np.arange(700, 1500)]
        for view, rows in zip(index.epoch_views(rows_list, [3, 4], [1, 1]), rows_list):
            for metric in ALL_METRICS:
                assert_equal_aggregates(
                    aggregate_epoch(table, rows, metric, epoch=view.epoch),
                    view.aggregate(metric),
                )


def _epoch_chunk(epoch: int, n_labels: int) -> SessionTable:
    """One hour of sessions over ``n_labels`` ASN labels."""
    return SessionTable.from_sessions(
        make_session(
            start_time=epoch * 3600.0 + 7.0 * i,
            asn=f"AS{i % n_labels}",
            cdn=f"c{i % 3}",
            join_failed=(i + epoch) % 6 == 0,
        )
        for i in range(120)
    )


def test_stream_crossing_a_power_of_two_between_epochs():
    """Epochs appended before and after an ASN vocabulary grows past
    a power of two (a packed-key layout change) batch together on the
    rebuilt index exactly as they view alone, and the batch path over
    the stream equals a fresh build."""
    stream = AnalysisSubstrate.build(SessionTable.empty(DEFAULT_SCHEMA))
    rows_list = []
    widths = []
    for epoch, n_labels in enumerate((3, 4, 9, 17)):
        rows_list.append(stream.append(_epoch_chunk(epoch, n_labels)))
        widths.append(int(stream.codec.widths[0]))
    assert widths == [2, 2, 4, 5]
    floors = epoch_floors(
        stream.index, rows_list, [(SMALL_CONFIG.problem_config, JOIN_FAILURE)]
    )
    assert_batch_matches_alone(stream.index, rows_list, list(floors))

    fresh = TraceClusterIndex.build(stream.table)
    for batched, alone in zip(
        stream.index.epoch_views(rows_list, [0, 1, 2, 3], [1] * 4),
        fresh.epoch_views(rows_list, [0, 1, 2, 3], [1] * 4),
    ):
        for metric in ALL_METRICS:
            assert_equal_aggregates(batched.aggregate(metric), alone.aggregate(metric))
    assert_equal_analyses(
        stream.analyze(SMALL_CONFIG), analyze_trace(stream.table, SMALL_CONFIG)
    )


REGION_SCHEMA = AttributeSchema(names=DEFAULT_SCHEMA.names + ("region",))


def packed_limit_table(n_epochs: int = 4, n_rows: int = 1200) -> SessionTable:
    """Eight attributes whose fields fill the packed key's 62 bits
    (six of 8 bits, two of 7), spread over ``n_epochs`` hours. Every
    session of the region's first two labels fails to join."""
    i = np.arange(n_rows)
    sizes = (256,) * 6 + (128, 128)
    codes = np.empty((n_rows, len(sizes)), dtype=np.int32)
    for k, size in enumerate(sizes):
        codes[:, k] = (i * (2 * k + 1) + k) % size
    codes[:, -1] = i % 6
    vocabs = [
        [f"{name}{c}" for c in range(size)]
        for name, size in zip(REGION_SCHEMA.names, sizes)
    ]
    failed = codes[:, -1] < 2
    return SessionTable(
        schema=REGION_SCHEMA,
        vocabs=vocabs,
        codes=codes,
        start_time=(i * n_epochs // n_rows) * 3600.0 + (i % 50) * 60.0,
        duration_s=np.where(failed, 0.0, 600.0),
        buffering_s=np.where(i % 5 == 0, 30.0, 0.0) * ~failed,
        join_time_s=np.where(failed, np.nan, 1.0 + i % 7),
        bitrate_kbps=np.where(failed, np.nan, 500.0 + 100.0 * (i % 13)),
        join_failed=failed,
    )


def test_packing_limit_table_through_a_batched_sweep(monkeypatch):
    table = packed_limit_table()
    assert len(table.schema) == 8
    assert int(KeyCodec.from_table(table).widths.sum()) == 62
    configs = [
        ALL_METRICS_CONFIG,
        dataclasses.replace(
            ALL_METRICS_CONFIG, thresholds=MetricThresholds().scaled(0.5)
        ),
    ]
    serial = analyze_sweep(table, configs, workers=0)
    for config, analysis in zip(configs, serial):
        assert_equal_analyses(reference_analysis(table, config), analysis)
        assert analysis.timings.n_view_batches == 1
    critical = serial[0]["join_failure"].epochs[0].critical_clusters
    assert {key.label() for key in critical} == {"[region=region0]", "[region=region1]"}
    for analysis, other in zip(serial, analyze_sweep(table, configs, workers=2)):
        assert_equal_analyses(analysis, other)
    monkeypatch.setattr(substrate_mod, "_VIEW_BUDGET", 1)
    for analysis, other in zip(serial, analyze_sweep(table, configs, workers=0)):
        assert_equal_analyses(analysis, other)
        assert other.timings.n_view_batches == other.grid.n_epochs


class TestSweepBatching:
    @pytest.fixture(scope="class")
    def ragged(self) -> SessionTable:
        """Six hours: full, empty, one session, full, a lone cluster
        under its floor, full."""
        sessions = []
        for epoch, n in enumerate((300, 0, 1, 300, 20, 300)):
            sessions += [
                make_session(
                    start_time=epoch * 3600.0 + 5.0 * i,
                    asn=f"AS{(i * 7 + epoch) % 5}",
                    cdn=f"c{i % 3}",
                    site=f"s{i % 4}",
                    join_failed=(i % 5 == 0) or (i % 3 == 0 and epoch == 3),
                )
                for i in range(n)
            ]
        return SessionTable.from_sessions(sessions)

    @pytest.mark.parametrize("budget", [1, 2_000, 1 << 19])
    def test_serial_and_pool_sweeps_are_equal_at_any_budget(
        self, ragged, monkeypatch, budget
    ):
        configs = [
            SMALL_CONFIG,
            ALL_METRICS_CONFIG,
            dataclasses.replace(SMALL_CONFIG, epoch_seconds=1800.0),
        ]
        reference = analyze_sweep(ragged, configs, workers=0)
        for config, analysis in zip(configs, reference):
            assert_equal_analyses(reference_analysis(ragged, config), analysis)
        monkeypatch.setattr(substrate_mod, "_VIEW_BUDGET", budget)
        for workers in (0, 2):
            for a, b in zip(reference, analyze_sweep(ragged, configs, workers=workers)):
                assert_equal_analyses(a, b)

    def test_batches_respect_the_budget(self, ragged, monkeypatch):
        # 128 cells per row on 7 attributes; the epochs' rows are
        # 300, 0, 1, 300, 20, 300, so a 320-row budget gives the runs
        # [300, 0, 1], [300, 20] and [300].
        monkeypatch.setattr(substrate_mod, "_VIEW_BUDGET", 320 * 128)
        timings = analyze_trace(ragged, SMALL_CONFIG, workers=0).timings
        assert timings.n_view_batches == 3
        assert "view batches             :         3 (2.0 epochs each)" in (
            timings.render()
        )

    def test_progress_arrives_as_each_batch_completes(self, ragged, monkeypatch):
        monkeypatch.setattr(substrate_mod, "_VIEW_BUDGET", 320 * 128)
        events = []
        sweep_epoch = substrate_mod._sweep_epoch

        def logged(view, *args):
            events.append(("epoch", view.epoch))
            return sweep_epoch(view, *args)

        monkeypatch.setattr(substrate_mod, "_sweep_epoch", logged)
        analyze_trace(
            ragged,
            SMALL_CONFIG,
            workers=0,
            progress=lambda done, total: events.append(("progress", done)),
        )
        assert events == [
            ("epoch", 0), ("epoch", 1), ("epoch", 2),
            ("progress", 1), ("progress", 2), ("progress", 3),
            ("epoch", 3), ("epoch", 4),
            ("progress", 4), ("progress", 5),
            ("epoch", 5),
            ("progress", 6),
        ]  # fmt: skip

    def test_view_batches_split_by_group_budget_and_epoch_cap(self, monkeypatch):
        monkeypatch.setattr(substrate_mod, "_VIEW_BUDGET", 14)
        rows = [np.arange(n) for n in (3, 3, 3, 3, 1)]
        units = [(0, e, r) for e, r in enumerate(rows[:4])] + [(1, 0, rows[4])]
        # Two 3-row epochs fill 12 of the 14 cells at 2 masks, three
        # fill 9 at 1 mask, where the 3-epoch cap cuts the run.
        runs = substrate_mod._view_batches(units, 2, 3)
        assert [(gi, [e for e, _ in run]) for gi, run in runs] == [
            (0, [0, 1]),
            (0, [2, 3]),
            (1, [0]),
        ]
        runs = substrate_mod._view_batches(units, 1, 3)
        assert [(gi, [e for e, _ in run]) for gi, run in runs] == [
            (0, [0, 1, 2]),
            (0, [3]),
            (1, [0]),
        ]
