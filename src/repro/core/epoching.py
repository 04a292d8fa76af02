"""Partitioning a trace into discrete one-hour epochs.

The paper divides its dataset into one-hour epochs (Section 3.1,
footnote: one hour is the finest granularity of the dataset) and runs
all cluster analysis per epoch. :class:`EpochGrid` owns the mapping
between timestamps and epoch indices; :func:`split_into_epochs` yields
per-epoch row index arrays for a :class:`SessionTable`.

:meth:`EpochGrid.epoch_of` is the one epoch rule. A grid over part of a
longer grid's epochs (a shard's range) does not re-derive epochs from a
shifted origin: at epoch lengths that are not exact in binary,
``floor((t - (origin + lo*s)) / s)`` and ``floor((t - origin) / s) - lo``
disagree for sessions near an epoch edge. Sub-range epochs are the
longer grid's epochs minus ``lo`` (:func:`rows_by_epoch` groups rows by
them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sessions import SessionTable

#: Seconds per epoch — one hour, the paper's granularity.
DEFAULT_EPOCH_SECONDS = 3600.0


@dataclass(frozen=True)
class EpochGrid:
    """A uniform epoch grid starting at ``origin`` (trace seconds)."""

    origin: float = 0.0
    epoch_seconds: float = DEFAULT_EPOCH_SECONDS
    n_epochs: int = 0

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")

    @classmethod
    def covering(
        cls,
        table: SessionTable,
        origin: float | None = None,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
    ) -> "EpochGrid":
        """The smallest grid covering every session start time."""
        if len(table) == 0:
            return cls(origin=origin or 0.0, epoch_seconds=epoch_seconds, n_epochs=0)
        start = float(table.start_time.min()) if origin is None else origin
        return cls.spanning(start, float(table.start_time.max()), epoch_seconds)

    @classmethod
    def spanning(
        cls, start: float, last: float, epoch_seconds: float = DEFAULT_EPOCH_SECONDS
    ) -> "EpochGrid":
        """The smallest grid, with its origin a whole number of epochs,
        whose epochs hold every time in ``[start, last]``.

        The origin is ``floor(start / s) * s``, one epoch earlier when
        rounding puts that product past ``start`` (a session there
        would otherwise get epoch -1 and drop out of the analysis).
        """
        first = np.floor(start / epoch_seconds)
        origin = first * epoch_seconds
        if origin > start:
            origin = (first - 1) * epoch_seconds
        if last < origin:
            raise ValueError(f"origin {origin} is after the last session at {last}")
        n = int(np.floor((last - origin) / epoch_seconds)) + 1
        return cls(origin=float(origin), epoch_seconds=epoch_seconds, n_epochs=n)

    def epoch_of(self, timestamps: np.ndarray) -> np.ndarray:
        """Epoch index of each timestamp (may be out of [0, n_epochs))."""
        ts = np.asarray(timestamps, dtype=np.float64)
        return np.floor((ts - self.origin) / self.epoch_seconds).astype(np.int64)

    def epoch_start(self, epoch: int) -> float:
        """Start timestamp of epoch ``epoch``."""
        return self.origin + epoch * self.epoch_seconds

    def hours(self) -> np.ndarray:
        """Start times of all epochs, in hours since the origin."""
        return np.arange(self.n_epochs) * (self.epoch_seconds / 3600.0)

    def __len__(self) -> int:
        return self.n_epochs


def split_into_epochs(
    table: SessionTable, grid: EpochGrid | None = None
) -> tuple[EpochGrid, list[np.ndarray]]:
    """Split ``table`` rows by epoch.

    Returns the grid and a list of row-index arrays, one per epoch, in
    epoch order. Sessions outside the grid are dropped (only possible
    with an explicitly narrower grid).
    """
    if grid is None:  # NOT `or`: a zero-epoch grid is falsy but valid
        grid = EpochGrid.covering(table)
    return grid, rows_by_epoch(grid.epoch_of(table.start_time), grid.n_epochs)


def rows_by_epoch(epoch_ids: np.ndarray, n_epochs: int) -> list[np.ndarray]:
    """Row index arrays of epochs ``0 .. n_epochs - 1``, in row order
    within each epoch, from each row's epoch index (rows outside the
    range are dropped)."""
    in_range = (epoch_ids >= 0) & (epoch_ids < n_epochs)
    rows = np.nonzero(in_range)[0]
    order = np.argsort(epoch_ids[rows], kind="stable")
    rows = rows[order]
    sorted_ids = epoch_ids[rows]
    boundaries = np.searchsorted(sorted_ids, np.arange(n_epochs + 1))
    return [rows[boundaries[e] : boundaries[e + 1]] for e in range(n_epochs)]
