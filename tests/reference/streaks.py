"""Prevalence and persistence, read straight off paper §4.1.

The paper's definitions, applied to a sequence of per-epoch flagged
sets (problem clusters or critical clusters alike):

* a cluster's **prevalence** is the fraction of all epochs in which it
  was flagged;
* its **persistence** coalesces consecutive flagged epochs into one
  logical event (a *streak*); Figure 8 plots, per cluster, the median
  and the maximum streak length in epochs.

A cluster that is never flagged has prevalence 0 and median and max
persistence 0. This module walks the epochs one by one, the way the
text reads, with no numpy and nothing shared with
:mod:`repro.core.streaks`; the tests pin the fast path to it by exact
equality.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence


def flagged_keys(per_epoch_keys: Sequence[Iterable[Hashable]]) -> list[Hashable]:
    """Every key flagged in some epoch, in order of first appearance."""
    seen: dict[Hashable, None] = {}
    for keys in per_epoch_keys:
        for key in keys:
            seen.setdefault(key, None)
    return list(seen)


def streaks(
    per_epoch_keys: Sequence[Iterable[Hashable]], key: Hashable, n_epochs: int
) -> list[tuple[int, int]]:
    """The key's maximal runs of consecutive flagged epochs, as
    ``(start, length)`` pairs in time order. Epochs past the end of
    ``per_epoch_keys`` (up to ``n_epochs``) are unflagged."""
    flagged = [
        epoch < len(per_epoch_keys) and key in set(per_epoch_keys[epoch])
        for epoch in range(n_epochs)
    ]
    runs = []
    start = None
    for epoch, on in enumerate(flagged + [False]):
        if on and start is None:
            start = epoch
        elif not on and start is not None:
            runs.append((start, epoch - start))
            start = None
    return runs


def median(values: list[int]) -> float:
    """The middle value, or the mean of the two middle values."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    if n % 2:
        return float(ordered[n // 2])
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def statistics(
    per_epoch_keys: Sequence[Iterable[Hashable]], n_epochs: int | None = None
) -> dict[Hashable, tuple[float, float, int, list[tuple[int, int]]]]:
    """Per flagged key: ``(prevalence, median persistence, max
    persistence, streaks)`` over ``n_epochs`` epochs (default: one per
    entry of ``per_epoch_keys``)."""
    n_epochs = len(per_epoch_keys) if n_epochs is None else n_epochs
    out = {}
    for key in flagged_keys(per_epoch_keys):
        runs = streaks(per_epoch_keys, key, n_epochs)
        lengths = [length for _, length in runs]
        occurrences = sum(lengths)
        prevalence = occurrences / n_epochs if n_epochs else 0.0
        out[key] = (prevalence, median(lengths), max(lengths, default=0), runs)
    return out
