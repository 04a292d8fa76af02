"""Temporal structure: prevalence and persistence (paper Section 4.1).

* **Prevalence** of a cluster is the fraction of epochs in which it
  appears as a problem cluster (paper Figure 6/7).
* **Persistence** coalesces consecutive problem epochs into logical
  events ("streaks") and studies the streak-length distribution per
  cluster — the paper reports the median and maximum streak length
  (Figure 8).

These functions are agnostic to whether the per-epoch sets hold problem
clusters or critical clusters; the paper applies them to both.

:class:`ClusterTimeline` answers per key; the value functions that feed
the figures and the report (:func:`prevalence_values`,
:func:`median_persistence_values`, :func:`max_persistence_values`)
answer for many keys at once. Streaks have one home, :func:`_runs`: an
array pass over the concatenated epochs of any number of timelines
(streak starts from one ``diff``, streak lengths from one
``bincount``). Median and max are per-key segment reductions of its
output, and a timeline's own :meth:`~ClusterTimeline.streaks` and
persistence properties read the same pass over just itself. All of
them are pinned to a reference written from §4.1's text
(``tests/reference/streaks.py``).
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

    @classmethod
    def presorted(
        cls, key: Hashable, epochs: np.ndarray, n_epochs_total: int
    ) -> "ClusterTimeline":
        """A timeline over int64 ``epochs`` that are already sorted,
        unique and in range, taken as they are (no ``np.unique``)."""
        timeline = cls.__new__(cls)
        timeline.key = key
        timeline.epochs = epochs
        timeline.n_epochs_total = n_epochs_total
        return timeline

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
        _, _, start, length = _runs({self.key: self})
        return [Streak(start=int(s), length=int(n)) for s, n in zip(start, length)]

    @property
    def median_persistence(self) -> float:
        """Median streak length in epochs (0 if never flagged)."""
        return float(median_persistence_values({self.key: self})[0])

    @property
    def max_persistence(self) -> int:
        """Longest streak length in epochs (0 if never flagged)."""
        return int(max_persistence_values({self.key: self})[0])


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


def _runs(
    timelines: Mapping[K, ClusterTimeline],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The streaks of every timeline, from the concatenated epochs.

    Returns ``(sizes, owner, start, length)``: each timeline's number
    of flagged epochs, and per streak the position of its timeline in
    the mapping, its first epoch and its length. Streaks come out
    grouped by timeline, in time order. A streak starts at a
    timeline's first epoch and after every gap (one ``diff``); its
    length is the number of epochs it holds (one ``bincount``).
    """
    tls = list(timelines.values())
    sizes = np.fromiter((tl.epochs.size for tl in tls), np.int64, len(tls))
    if not sizes.sum():
        empty = np.empty(0, np.int64)
        return sizes, empty, empty, empty
    epochs = np.concatenate([tl.epochs for tl in tls])
    starts = np.ones(epochs.size, dtype=bool)
    starts[1:] = np.diff(epochs) != 1
    starts[np.cumsum(sizes)[:-1][sizes[1:] > 0]] = True
    length = np.bincount(np.cumsum(starts) - 1)
    owner = np.repeat(np.arange(len(tls)), sizes)
    return sizes, owner[starts], epochs[starts], length


def prevalence_values(timelines: Mapping[K, ClusterTimeline]) -> np.ndarray:
    """Prevalence values across clusters (input to the Fig. 7 CDF)."""
    return np.array([tl.prevalence for tl in timelines.values()])


def median_persistence_values(
    timelines: Mapping[K, ClusterTimeline],
) -> np.ndarray:
    """Median streak lengths across clusters (Fig. 8(a)); 0 for a
    cluster never flagged.

    Sorting streaks by (timeline, length) lays each timeline's lengths
    out in order, so its median is the mean of the two middle entries
    of its segment (one entry twice for an odd count) — what
    ``np.median`` computes per timeline.
    """
    sizes, owner, _, length = _runs(timelines)
    out = np.zeros(sizes.size)
    ordered = length[np.lexsort((length, owner))].astype(np.float64)
    n_runs = np.bincount(owner, minlength=sizes.size)
    first = np.cumsum(n_runs) - n_runs
    has = n_runs > 0
    lo = first[has] + (n_runs[has] - 1) // 2
    hi = first[has] + n_runs[has] // 2
    out[has] = (ordered[lo] + ordered[hi]) / 2
    return out


def max_persistence_values(
    timelines: Mapping[K, ClusterTimeline],
) -> np.ndarray:
    """Max streak lengths across clusters (Fig. 8(b)); 0 for a cluster
    never flagged."""
    sizes, owner, _, length = _runs(timelines)
    out = np.zeros(sizes.size)
    np.maximum.at(out, owner, length)
    return out
