"""Tests for epoch partitioning."""

import numpy as np
import pytest

from repro.core.epoching import EpochGrid, split_into_epochs
from repro.core.sessions import SessionTable
from tests.conftest import make_session


def table_at(times) -> SessionTable:
    return SessionTable.from_sessions([make_session(start_time=t) for t in times])


class TestEpochGrid:
    def test_covering_rounds_origin_down(self):
        grid = EpochGrid.covering(table_at([4000.0, 8000.0]))
        assert grid.origin == 3600.0
        assert grid.n_epochs == 2

    def test_covering_single_session(self):
        grid = EpochGrid.covering(table_at([100.0]))
        assert grid.origin == 0.0
        assert grid.n_epochs == 1

    def test_covering_empty_table(self):
        grid = EpochGrid.covering(SessionTable.empty())
        assert grid.n_epochs == 0

    def test_epoch_of(self):
        grid = EpochGrid(origin=0.0, epoch_seconds=3600.0, n_epochs=3)
        epochs = grid.epoch_of(np.array([0.0, 3599.9, 3600.0, 7300.0]))
        assert epochs.tolist() == [0, 0, 1, 2]

    def test_epoch_of_before_origin_is_negative(self):
        grid = EpochGrid(origin=3600.0, epoch_seconds=3600.0, n_epochs=2)
        assert grid.epoch_of(np.array([0.0]))[0] == -1

    def test_epoch_start(self):
        grid = EpochGrid(origin=7200.0, epoch_seconds=3600.0, n_epochs=5)
        assert grid.epoch_start(2) == 7200.0 + 2 * 3600.0

    def test_hours(self):
        grid = EpochGrid(n_epochs=3)
        assert grid.hours().tolist() == [0.0, 1.0, 2.0]

    def test_len(self):
        assert len(EpochGrid(n_epochs=7)) == 7

    def test_invalid_epoch_seconds(self):
        with pytest.raises(ValueError):
            EpochGrid(epoch_seconds=0.0)

    def test_custom_epoch_length(self):
        grid = EpochGrid.covering(table_at([0.0, 250.0]), epoch_seconds=100.0)
        assert grid.n_epochs == 3

    def test_covering_keeps_a_start_below_its_rounded_origin(self):
        # floor(1.7 / 0.1) * 0.1 rounds to 1.7000000000000002, past the
        # first session: that origin would give it epoch -1.
        table = table_at([1.7, 1.75, 2.0])
        grid = EpochGrid.covering(table, epoch_seconds=0.1)
        assert grid.origin <= 1.7
        epochs = grid.epoch_of(table.start_time)
        assert epochs.min() == 0 and epochs.max() == grid.n_epochs - 1
        _, per_epoch = split_into_epochs(table, grid)
        assert sum(len(rows) for rows in per_epoch) == 3

    def test_spanning_matches_covering(self):
        table = table_at([4000.0, 8000.0])
        assert EpochGrid.spanning(4000.0, 8000.0) == EpochGrid.covering(table)


class TestSplitIntoEpochs:
    def test_rows_partition_table(self):
        table = table_at([10.0, 3700.0, 3800.0, 7300.0])
        grid, per_epoch = split_into_epochs(table)
        assert grid.n_epochs == 3
        assert [len(rows) for rows in per_epoch] == [1, 2, 1]
        all_rows = np.concatenate(per_epoch)
        assert sorted(all_rows.tolist()) == [0, 1, 2, 3]

    def test_empty_epochs_have_empty_arrays(self):
        table = table_at([10.0, 7300.0])  # epoch 1 is empty
        _, per_epoch = split_into_epochs(table)
        assert len(per_epoch[1]) == 0

    def test_sessions_outside_grid_dropped(self):
        table = table_at([10.0, 5000.0])
        grid = EpochGrid(origin=0.0, epoch_seconds=3600.0, n_epochs=1)
        _, per_epoch = split_into_epochs(table, grid)
        assert len(per_epoch) == 1
        assert per_epoch[0].tolist() == [0]
