"""Property-based tests of per-epoch aggregation invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.metrics import JOIN_FAILURE
from repro.core.problems import ProblemClusterConfig, find_problem_clusters
from repro.core.critical import find_critical_clusters
from repro.core.sessions import SessionTable
from tests.conftest import make_session
from tests.core.direct_aggregate import aggregate_epoch

# Random small traces: up to 4 values per attribute, up to 120 sessions.
session_rows = st.lists(
    st.tuples(
        st.integers(0, 3),  # asn
        st.integers(0, 2),  # cdn
        st.integers(0, 2),  # site
        st.booleans(),  # join failed
    ),
    min_size=1,
    max_size=120,
)


def build_table(rows) -> SessionTable:
    return SessionTable.from_sessions(
        make_session(
            asn=f"AS{a}", cdn=f"c{c}", site=f"s{s}", join_failed=failed
        )
        for a, c, s, failed in rows
    )


@settings(max_examples=60, deadline=None)
@given(session_rows)
def test_every_mask_conserves_totals(rows):
    table = build_table(rows)
    agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    for m in range(1, agg.codec.full_mask + 1):
        span = agg.lattice.span(m)
        assert int(agg.sessions[span].sum()) == agg.total_sessions
        assert int(agg.problems[span].sum()) == agg.total_problems


@settings(max_examples=60, deadline=None)
@given(session_rows)
def test_cluster_problems_bounded_by_sessions(rows):
    table = build_table(rows)
    agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    assert (agg.problems <= agg.sessions).all()
    assert (agg.sessions > 0).all()


@settings(max_examples=60, deadline=None)
@given(session_rows)
def test_parent_counts_dominate_children(rows):
    """Projecting onto fewer attributes can only merge clusters."""
    table = build_table(rows)
    agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    fm = agg.codec.field_masks()
    full = agg.codec.full_mask
    lattice = agg.lattice
    leaf_keys = lattice.keys[lattice.span(full)]
    for m in range(1, full):
        span = lattice.span(m)
        idx = span.start + np.searchsorted(lattice.keys[span], leaf_keys & fm[m])
        np.testing.assert_array_equal(idx, lattice.leaf_cluster[m])
        # every leaf's count is included in its projection's count
        assert (agg.sessions[idx] >= agg.leaf_sessions).all()
        assert (agg.problems[idx] >= agg.leaf_problems).all()


@settings(max_examples=40, deadline=None)
@given(session_rows)
def test_problem_and_critical_invariants(rows):
    table = build_table(rows)
    agg = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    problems = find_problem_clusters(
        agg,
        ProblemClusterConfig(min_sessions=5, min_problems=2,
                             significance_sigmas=0.0),
    )
    critical = find_critical_clusters(problems)
    # Critical clusters are problem clusters.
    for mask, packed, attribution in critical.iter_clusters():
        assert problems.contains(mask, packed)
        assert attribution.attributed_problems >= 0
        assert attribution.attributed_sessions >= attribution.attributed_problems - 1e-9
    # Attribution conserves problem sessions.
    total = critical.attributed_problem_sessions + critical.unattributed_problem_sessions
    assert total == np.float64(agg.total_problems)
    # Coverage ordering.
    assert critical.coverage <= problems.coverage + 1e-9


@settings(max_examples=40, deadline=None)
@given(session_rows, st.integers(0, 2**31 - 1))
def test_aggregation_independent_of_row_order(rows, seed):
    table = build_table(rows)
    order = np.random.default_rng(seed).permutation(len(table))
    agg1 = aggregate_epoch(table, np.arange(len(table)), JOIN_FAILURE)
    agg2 = aggregate_epoch(table, order, JOIN_FAILURE)
    assert agg1.total_sessions == agg2.total_sessions
    assert agg1.total_problems == agg2.total_problems
    assert np.array_equal(agg1.lattice.starts, agg2.lattice.starts)
    assert np.array_equal(agg1.lattice.keys, agg2.lattice.keys)
    assert np.array_equal(agg1.sessions, agg2.sessions)
