"""Temporal structure: prevalence and persistence (paper Section 4.1).

* **Prevalence** of a cluster is the fraction of epochs in which it
  appears as a problem cluster (paper Figure 6/7).
* **Persistence** coalesces consecutive problem epochs into logical
  events ("streaks") and studies the streak-length distribution per
  cluster — the paper reports the median and maximum streak length
  (Figure 8).

These functions are agnostic to whether the per-epoch sets hold problem
clusters or critical clusters; the paper applies them to both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class Streak:
    """A maximal run of consecutive epochs: ``[start, start + length)``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("streak length must be >= 1")

    @property
    def end(self) -> int:
        """First epoch after the streak."""
        return self.start + self.length


@dataclass
class ClusterTimeline:
    """Epochs in which one cluster identity was flagged."""

    key: Hashable
    epochs: np.ndarray  # sorted, unique epoch indices
    n_epochs_total: int

    def __post_init__(self) -> None:
        epochs = np.unique(np.asarray(self.epochs, dtype=np.int64))
        if epochs.size and (epochs[0] < 0 or epochs[-1] >= self.n_epochs_total):
            raise ValueError(
                f"epochs out of range [0, {self.n_epochs_total}): "
                f"{epochs[0]}..{epochs[-1]}"
            )
        self.epochs = epochs

    @property
    def n_occurrences(self) -> int:
        return int(self.epochs.size)

    @property
    def prevalence(self) -> float:
        """Fraction of all epochs in which the cluster was flagged."""
        if self.n_epochs_total == 0:
            return 0.0
        return self.n_occurrences / self.n_epochs_total

    def streaks(self) -> list[Streak]:
        """Coalesce consecutive occurrences into logical events."""
        if self.epochs.size == 0:
            return []
        breaks = np.nonzero(np.diff(self.epochs) > 1)[0]
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [self.epochs.size - 1]))
        return [
            Streak(start=int(self.epochs[s]), length=int(self.epochs[e] - self.epochs[s] + 1))
            for s, e in zip(starts, ends)
        ]

    @property
    def median_persistence(self) -> float:
        """Median streak length in epochs (0 if never flagged)."""
        lengths = [s.length for s in self.streaks()]
        if not lengths:
            return 0.0
        return float(np.median(lengths))

    @property
    def max_persistence(self) -> int:
        """Longest streak length in epochs (0 if never flagged)."""
        lengths = [s.length for s in self.streaks()]
        return max(lengths) if lengths else 0


def build_timelines(
    per_epoch_keys: Sequence[Iterable[K]], n_epochs: int | None = None
) -> dict[K, ClusterTimeline]:
    """Invert per-epoch cluster sets into per-cluster timelines.

    ``per_epoch_keys[e]`` holds the identities flagged in epoch ``e``.
    Keys come out in order of first appearance, so ordered inputs
    (e.g. each epoch's result dict, not a set of it) give an order that
    does not depend on string hashing.
    """
    n_epochs = len(per_epoch_keys) if n_epochs is None else n_epochs
    if n_epochs < len(per_epoch_keys):
        raise ValueError(
            f"n_epochs ({n_epochs}) smaller than provided epochs "
            f"({len(per_epoch_keys)})"
        )
    occurrences: dict[K, list[int]] = {}
    for epoch, keys in enumerate(per_epoch_keys):
        for key in keys:
            occurrences.setdefault(key, []).append(epoch)
    return {
        key: ClusterTimeline(
            key=key, epochs=np.array(epochs, dtype=np.int64), n_epochs_total=n_epochs
        )
        for key, epochs in occurrences.items()
    }


def prevalence(timelines: Mapping[K, ClusterTimeline]) -> dict[K, float]:
    """Prevalence per cluster identity."""
    return {key: tl.prevalence for key, tl in timelines.items()}


def persistence_streaks(
    timelines: Mapping[K, ClusterTimeline],
) -> dict[K, list[Streak]]:
    """Streak list per cluster identity."""
    return {key: tl.streaks() for key, tl in timelines.items()}


def prevalence_values(timelines: Mapping[K, ClusterTimeline]) -> np.ndarray:
    """Prevalence values across clusters (input to the Fig. 7 CDF)."""
    return np.array([tl.prevalence for tl in timelines.values()])


def median_persistence_values(
    timelines: Mapping[K, ClusterTimeline],
) -> np.ndarray:
    """Median streak lengths across clusters (Fig. 8(a))."""
    return np.array([tl.median_persistence for tl in timelines.values()])


def max_persistence_values(
    timelines: Mapping[K, ClusterTimeline],
) -> np.ndarray:
    """Max streak lengths across clusters (Fig. 8(b))."""
    return np.array(
        [tl.max_persistence for tl in timelines.values()], dtype=np.float64
    )
