"""Partitioning a trace into discrete one-hour epochs.

The paper divides its dataset into one-hour epochs (Section 3.1,
footnote: one hour is the finest granularity of the dataset) and runs
all cluster analysis per epoch. :class:`EpochGrid` owns the mapping
between timestamps and epoch indices; :func:`split_into_epochs` yields
per-epoch row index arrays for a :class:`SessionTable`.
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
        origin_val = np.floor(start / epoch_seconds) * epoch_seconds
        last = float(table.start_time.max())
        if last < origin_val:
            raise ValueError(
                f"origin {origin_val} is after the last session at {last}"
            )
        n = int(np.floor((last - origin_val) / epoch_seconds)) + 1
        return cls(origin=origin_val, epoch_seconds=epoch_seconds, n_epochs=n)

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
    epoch_ids = grid.epoch_of(table.start_time)
    in_range = (epoch_ids >= 0) & (epoch_ids < grid.n_epochs)
    rows = np.nonzero(in_range)[0]
    order = np.argsort(epoch_ids[rows], kind="stable")
    rows = rows[order]
    sorted_ids = epoch_ids[rows]
    boundaries = np.searchsorted(sorted_ids, np.arange(grid.n_epochs + 1))
    per_epoch = [
        rows[boundaries[e] : boundaries[e + 1]] for e in range(grid.n_epochs)
    ]
    return grid, per_epoch
