"""The §4.1 streak statistics, pinned to the paper-text reference.

``tests/reference/streaks.py`` walks per-epoch flagged sets the way
the paper's text reads. ``build_timelines``, the ``ClusterTimeline``
properties and the three value functions must equal it exactly,
dtypes included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.streaks import (
    ClusterTimeline,
    Streak,
    build_timelines,
    max_persistence_values,
    median_persistence_values,
    prevalence_values,
)
from tests.reference import streaks as reference

KEYS = "abcdefg"


@st.composite
def flagged_epochs(draw):
    """Per-epoch flagged lists over 0-60 epochs, some keys flagged in
    every epoch, duplicates within an epoch, and a grid that may run
    past the last epoch with a flag."""
    per_epoch = draw(
        st.lists(
            st.lists(st.sampled_from(KEYS), max_size=6), min_size=0, max_size=60
        )
    )
    always = draw(st.sets(st.sampled_from("XY"), max_size=2))
    per_epoch = [keys + sorted(always) for keys in per_epoch]
    n_epochs = len(per_epoch) + draw(st.integers(0, 10))
    return per_epoch, n_epochs


def assert_values_match(timelines, expected):
    """The three value functions against per-key ``(prevalence, median,
    max)`` triples, in the mapping's order."""
    for fn, column in (
        (prevalence_values, 0),
        (median_persistence_values, 1),
        (max_persistence_values, 2),
    ):
        got = fn(timelines)
        assert got.dtype == np.float64
        assert got.shape == (len(expected),)
        assert got.tolist() == [float(e[column]) for e in expected]


@settings(max_examples=200, deadline=None)
@given(flagged_epochs())
def test_timelines_and_values_equal_the_reference(case):
    per_epoch, n_epochs = case
    timelines = build_timelines(per_epoch, n_epochs=n_epochs)
    expected = reference.statistics(per_epoch, n_epochs)

    assert list(timelines) == list(expected)
    for key, (prev, med, peak, runs) in expected.items():
        tl = timelines[key]
        assert tl.n_epochs_total == n_epochs
        assert tl.epochs.tolist() == [
            s + i for s, length in runs for i in range(length)
        ]
        assert tl.streaks() == [Streak(s, length) for s, length in runs]
        assert tl.n_occurrences == sum(length for _, length in runs)
        assert tl.prevalence == prev
        assert tl.median_persistence == med
        assert tl.max_persistence == peak
        assert type(tl.max_persistence) is int
    assert_values_match(timelines, list(expected.values()))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sets(st.integers(0, 59), max_size=30), st.integers(0, 15)),
        max_size=12,
    )
)
def test_values_over_independent_timelines(specs):
    """A mapping whose timelines have their own grid lengths, some never
    flagged (prevalence, median and max all 0)."""
    timelines = {}
    expected = []
    for i, (epochs, extra) in enumerate(specs):
        n_epochs = (max(epochs) + 1 if epochs else 0) + extra
        timelines[i] = ClusterTimeline(
            key=i, epochs=np.array(sorted(epochs), dtype=np.int64),
            n_epochs_total=n_epochs,
        )
        per_epoch = [["k"] if e in epochs else [] for e in range(n_epochs)]
        stats = reference.statistics(per_epoch, n_epochs)
        expected.append(stats.get("k", (0.0, 0.0, 0, []))[:3])
        tl = timelines[i]
        assert (tl.prevalence, tl.median_persistence, tl.max_persistence) == (
            expected[-1]
        )
    assert_values_match(timelines, expected)


def test_empty_mapping():
    assert build_timelines([]) == {}
    assert build_timelines([[], []], n_epochs=5) == {}
    assert_values_match({}, [])


def test_every_epoch_key_and_trailing_grid():
    timelines = build_timelines([["a"], ["a", "b"], ["a"]], n_epochs=7)
    assert timelines["a"].prevalence == 3 / 7
    assert timelines["a"].max_persistence == 3
    assert timelines["b"].median_persistence == 1.0
    assert_values_match(
        timelines, [(3 / 7, 3.0, 3), (1 / 7, 1.0, 1)]
    )
