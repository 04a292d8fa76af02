"""The whole-lattice detectors against the per-mask reference.

Every test runs :func:`find_problem_clusters` and
:func:`find_critical_clusters` on an aggregate, and
:func:`tests.core.detector_reference.reference_detect` on the whole
lattice of the direct :func:`tests.core.direct_aggregate.aggregate_epoch`,
and requires ``==`` on the problem ``(mask, key)`` list in order, the
critical ``(mask, key) -> attribution`` items in order (the attribution
floats bit for bit), the problem coverage and the unattributed problem
sessions. Aggregates come from both sources: an
:class:`~repro.core.index.EpochClusterView` built at the session floor
the config resolves to (the iceberg production builds) and the direct
aggregate itself. Every view is also built inside batches of other
epochs (:meth:`~repro.core.index.TraceClusterIndex.epoch_views` at
batch sizes 1, 2 and 3, and every epoch of a generated trace), which
must not change what it gives. The batched pass
(:func:`~repro.core.problems.detect_problem_clusters` and
:func:`~repro.core.critical.detect_critical_clusters` over many units
of one lattice) must give every unit what it gets detected alone.
"""

from dataclasses import replace


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.attributes import DEFAULT_SCHEMA, AttributeSchema
from repro.core.clusters import ClusterKey
import repro.core.critical as critical_module
from repro.core.critical import detect_critical_clusters, find_critical_clusters
from repro.core.index import TraceClusterIndex
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE, JOIN_TIME, MetricThresholds
from repro.core.problems import (
    ProblemClusterConfig,
    detect_problem_clusters,
    find_problem_clusters,
)
from repro.core.sessions import SessionTable
from repro.core.substrate import epoch_floor
from tests.conftest import make_session, views_in_batches
from tests.core.detector_reference import reference_detect
from tests.core.direct_aggregate import aggregate_epoch

REGION_SCHEMA = AttributeSchema(names=DEFAULT_SCHEMA.names + ("region",))

#: Permissive knobs so small tables form problem and critical clusters.
LOOSE = ProblemClusterConfig(min_sessions=50, min_problems=3, significance_sigmas=0.0)


def assert_detection_is(problems, critical, ref):
    """A unit's problem and critical clusters equal the per-mask
    reference ``ref``."""
    assert [(m, k, s) for m, k, s in problems.iter_clusters()] == [
        (m, k, s) for (m, k), s in ref.problems.items()
    ]
    assert problems.coverage == ref.problem_coverage
    assert list(critical.clusters.items()) == list(ref.critical.items())
    assert (
        critical.unattributed_problem_sessions == ref.unattributed_problem_sessions
    )


def assert_matches_reference(agg, config, ref):
    """Flat detection on ``agg`` equals the per-mask reference ``ref``."""
    problems = find_problem_clusters(agg, config)
    critical = find_critical_clusters(problems)
    assert_detection_is(problems, critical, ref)
    return problems, critical


def floored_view_aggs(table, rows, metric, config, trace_rows=None):
    """The view production builds for ``config``, at the session floor
    the config resolves to on the metric's valid sessions in ``rows``:
    built alone and inside batches of other epochs
    (:func:`tests.conftest.views_in_batches`), aggregated for
    ``metric``."""
    index = TraceClusterIndex.build(table)
    floor = epoch_floor(index, rows, [(config, metric)])
    return [
        view.aggregate(metric)
        for view in views_in_batches(index, rows, floor, trace_rows)
    ]


def both_sources(table, rows, metric, config, trace_rows=None):
    """Check both aggregate sources, the view at every batch size,
    against the reference over the whole direct lattice, and against
    each other once decoded (the two lattices hold different clusters,
    so raw ids can differ)."""
    rows = np.asarray(rows, dtype=np.int64)
    direct_agg = aggregate_epoch(table, rows, metric)
    ref = reference_detect(direct_agg, config)
    direct_pc, direct_cc = assert_matches_reference(direct_agg, config, ref)
    for view_agg in floored_view_aggs(table, rows, metric, config, trace_rows):
        view_pc, view_cc = assert_matches_reference(view_agg, config, ref)
        assert list(view_pc.decoded().items()) == list(direct_pc.decoded().items())
        assert list(view_cc.decoded().items()) == list(direct_cc.decoded().items())
    return direct_pc, direct_cc


def detect(agg, config):
    """Decoded detector output of one aggregate, for comparisons."""
    problems = find_problem_clusters(agg, config)
    critical = find_critical_clusters(problems)
    return (
        list(problems.decoded().items()),
        problems.coverage,
        list(critical.decoded().items()),
        critical.unattributed_problem_sessions,
    )


def sessions_of(groups):
    """groups: (attrs, n_sessions, n_failures) -> sessions (failures first)."""
    return [
        make_session(join_failed=i < failures, **attrs)
        for attrs, n, failures in groups
        for i in range(n)
    ]


def table_of(groups) -> SessionTable:
    return SessionTable.from_sessions(sessions_of(groups))


def key(**pairs) -> ClusterKey:
    return ClusterKey.from_mapping(pairs)


# -- random tables ------------------------------------------------------------


@st.composite
def epochs(draw):
    """A random table over 7 or 8 attributes, a rows subset and a config."""
    schema = draw(st.sampled_from([DEFAULT_SCHEMA, REGION_SCHEMA]))
    n = draw(st.integers(0, 60))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(schema), max_size=len(schema)))
    codes = np.array(
        [[draw(st.integers(0, size - 1)) for size in sizes] for _ in range(n)],
        dtype=np.int32,
    ).reshape(n, len(schema))
    quality = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    failed = quality == 4
    vocabs = [[f"{name}{v}" for v in range(size)] for name, size in zip(schema.names, sizes)]
    table = SessionTable(
        schema=schema,
        vocabs=vocabs,
        codes=codes,
        start_time=np.zeros(n),
        duration_s=np.where(failed, 0.0, 600.0),
        buffering_s=np.where(quality == 1, 120.0, 0.0),
        join_time_s=np.where(failed, np.nan, np.where(quality == 2, 20.0, 2.0)),
        bitrate_kbps=np.where(failed, np.nan, np.where(quality == 3, 300.0, 2000.0)),
        join_failed=failed,
    )
    rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return table, rows, draw(problem_configs())


def problem_configs():
    return st.builds(
        ProblemClusterConfig,
        ratio_multiplier=st.sampled_from([1.0, 1.25, 1.5, 2.0]),
        min_sessions=st.integers(1, 6),
        min_problems=st.integers(1, 3),
        significance_sigmas=st.sampled_from([0.0, 1.0]),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(epochs(), st.sampled_from(ALL_METRICS))
def test_random_epochs_match_reference(case, metric):
    table, rows, config = case
    both_sources(table, rows, metric, config)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(epochs(), st.sampled_from(ALL_METRICS), st.data())
def test_floored_view_matches_floor_one(case, metric, data):
    """Any floor from 1 to the epoch size serves every config at or
    above it exactly as the whole lattice does, alone or batched."""
    table, rows, config = case
    index = TraceClusterIndex.build(table)
    floor = data.draw(st.integers(1, max(rows.size, 1)))
    config = replace(
        config, min_sessions=floor + data.draw(st.integers(0, 2))
    )
    for whole_view, floored_view in zip(
        views_in_batches(index, rows), views_in_batches(index, rows, floor)
    ):
        whole = whole_view.aggregate(metric)
        floored = floored_view.aggregate(metric)
        assert floored.lattice.n_clusters <= whole.lattice.n_clusters
        assert detect(floored, config) == detect(whole, config)


def detect_units(table, rows, units, view_floor=None, batch=0):
    """Detect ``units`` — (metric, thresholds scale, config) triples —
    in one pass over the epoch view of ``rows``, the ``batch``-th of
    :func:`tests.conftest.views_in_batches`; units with equal (metric,
    scale) share one aggregate object. Returns the units' aggregates
    and their (problems, critical) results."""
    index = TraceClusterIndex.build(table)
    if view_floor is None:
        view_floor = epoch_floor(index, rows, [(c, m) for m, _, c in units])
    view = views_in_batches(index, rows, view_floor)[batch]
    aggs = {}
    for metric, scale, _ in units:
        if (metric.name, scale) not in aggs:
            aggs[metric.name, scale] = view.aggregate(
                metric, thresholds=MetricThresholds().scaled(scale)
            )
    pass_units = [(aggs[m.name, scale], c) for m, scale, c in units]
    problems = detect_problem_clusters(pass_units)
    return pass_units, problems, detect_critical_clusters(problems)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    epochs(),
    st.lists(
        st.tuples(
            st.sampled_from(ALL_METRICS),
            st.sampled_from([0.5, 1.0, 2.0]),
            problem_configs(),
        ),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
def test_batched_units_match_alone_and_reference(case, units, data):
    """Units of one pass, with duplicates, shared aggregates and
    differing floors, each get what they get detected alone, and what
    the reference finds on the whole direct lattice."""
    table, rows, _ = case
    units = units + data.draw(st.lists(st.sampled_from(units), max_size=2))
    pass_units, problems, critical = detect_units(
        table, rows, units, batch=data.draw(st.integers(0, 2))
    )
    for (metric, scale, config), (agg, _), pc, cc in zip(
        units, pass_units, problems, critical
    ):
        direct = aggregate_epoch(
            table, rows, metric, thresholds=MetricThresholds().scaled(scale)
        )
        ref = reference_detect(direct, config)
        assert_detection_is(pc, cc, ref)
        assert_matches_reference(agg, config, ref)


@pytest.mark.parametrize("seed", range(12))
def test_planted_epochs_match_reference(seed):
    """Denser structure than hypothesis finds: one or two planted causes
    over a few attributes, so candidates, removals and ties all occur."""
    rng = np.random.default_rng(seed)
    sessions = []
    bad = [(str(rng.choice(["cdn", "asn", "site"])), "v0") for _ in range(2)]
    for _ in range(600):
        attrs = {
            "cdn": f"v{rng.integers(0, 3)}",
            "asn": f"v{rng.integers(0, 4)}",
            "site": f"v{rng.integers(0, 3)}",
            "player": f"v{rng.integers(0, 2)}",
        }
        hit = sum(attrs[a] == v for a, v in bad[: 1 + seed % 2])
        fail_p = 0.04 + 0.35 * hit
        sessions.append(make_session(join_failed=bool(rng.random() < fail_p), **attrs))
    table = SessionTable.from_sessions(sessions)
    for config in (
        LOOSE,
        ProblemClusterConfig(min_sessions=20, min_problems=2, significance_sigmas=1.0),
        ProblemClusterConfig(),
    ):
        _, critical = both_sources(table, np.arange(len(table)), JOIN_FAILURE, config)
    assert critical.n_clusters >= 1


@pytest.mark.parametrize("epoch", [0, 5])
def test_generated_region_trace_matches_reference(epoch):
    """The paper's section 6 eighth attribute on a generated trace."""
    from repro.trace import StandardWorkloads, generate_trace

    table = generate_trace(StandardWorkloads.tiny_with_region(seed=3)).table
    assert len(table.schema) == 8
    epoch_of = np.floor(table.start_time / 3600.0).astype(np.int64)
    trace_rows = [np.flatnonzero(epoch_of == e) for e in range(epoch_of.max() + 1)]
    config = ProblemClusterConfig(min_sessions=10, min_problems=3, significance_sigmas=1.0)
    for metric in ALL_METRICS:
        both_sources(table, trace_rows[epoch], metric, config, trace_rows)


# -- corners ----------------------------------------------------------------


class TestCorners:
    def test_ratio_exactly_at_threshold_is_a_problem(self):
        # Global ratio 100/400 = 0.25, so 1.5x is exactly 0.375 = 30/80.
        table = table_of([({"cdn": "edge"}, 80, 30), ({"cdn": "ok"}, 320, 70)])
        problems, _ = both_sources(table, np.arange(400), JOIN_FAILURE, LOOSE)
        assert problems.ratio_threshold == 30 / 80
        assert key(cdn="edge") in problems.cluster_keys()

        below = table_of([({"cdn": "edge"}, 80, 29), ({"cdn": "ok"}, 320, 71)])
        problems, _ = both_sources(below, np.arange(400), JOIN_FAILURE, LOOSE)
        assert key(cdn="edge") not in problems.cluster_keys()

    def test_sessions_exactly_at_min_sessions(self):
        at = table_of([({"cdn": "bad"}, 50, 25), ({"cdn": "ok"}, 1000, 20)])
        problems, _ = both_sources(at, np.arange(len(at)), JOIN_FAILURE, LOOSE)
        assert key(cdn="bad") in problems.cluster_keys()

        under = table_of([({"cdn": "bad"}, 49, 25), ({"cdn": "ok"}, 1000, 20)])
        problems, _ = both_sources(under, np.arange(len(under)), JOIN_FAILURE, LOOSE)
        assert key(cdn="bad") not in problems.cluster_keys()

    @pytest.mark.parametrize("healthy_sessions, critical", [(50, False), (49, True)])
    def test_healthy_child_at_min_sessions_taints(self, healthy_sessions, critical):
        # A healthy (cdn=X, asn=AS2) slice disqualifies cdn=X only when it
        # is significant, i.e. has at least min_sessions sessions.
        table = table_of(
            [
                ({"cdn": "X", "asn": "AS1"}, 200, 100),
                ({"cdn": "X", "asn": "AS2"}, healthy_sessions, 0),
                ({"cdn": "ok", "asn": "AS1"}, 1000, 20),
                ({"cdn": "ok", "asn": "AS2"}, 1000, 20),
            ]
        )
        _, crit = both_sources(table, np.arange(len(table)), JOIN_FAILURE, LOOSE)
        assert (key(cdn="X") in crit.decoded()) is critical

    def test_leaf_with_two_minimal_candidates_splits_equally(self):
        table = table_of(
            [
                ({"cdn": "X", "asn": "Y"}, 100, 50),
                ({"cdn": "X", "asn": "a1"}, 100, 50),
                ({"cdn": "X", "asn": "a2"}, 100, 50),
                ({"cdn": "c1", "asn": "Y"}, 100, 50),
                ({"cdn": "c2", "asn": "Y"}, 100, 50),
                *[
                    ({"cdn": c, "asn": a}, 400, 8)
                    for c in ("c1", "c2")
                    for a in ("a1", "a2")
                ],
            ]
        )
        _, crit = both_sources(table, np.arange(len(table)), JOIN_FAILURE, LOOSE)
        decoded = crit.decoded()
        assert set(decoded) == {key(cdn="X"), key(asn="Y")}
        # The (X, Y) leaf's 50 problems and 100 sessions split 1/2 each.
        for k in decoded:
            assert decoded[k].attributed_problems == 25 + 50 + 50
            assert decoded[k].attributed_sessions == 50 + 100 + 100
        assert crit.unattributed_problem_sessions == 32

    def test_clusters_with_only_invalid_sessions(self):
        # Every cdn=down session failed to join: invalid for join time,
        # so the view keeps zero-count clusters the direct path drops.
        sessions = sessions_of([({"cdn": "down"}, 80, 80)])
        sessions += [
            make_session(cdn="slow", asn=f"AS{i % 3}", join_time_s=30.0 if i % 2 else 2.0)
            for i in range(300)
        ]
        sessions += [make_session(cdn="ok", asn=f"AS{i % 3}") for i in range(900)]
        table = SessionTable.from_sessions(sessions)
        rows = np.arange(len(table))
        view_agg = TraceClusterIndex.build(table).epoch_view(rows).aggregate(JOIN_TIME)
        direct_agg = aggregate_epoch(table, rows, JOIN_TIME)
        assert view_agg.lattice.n_clusters > direct_agg.lattice.n_clusters
        _, crit = both_sources(table, rows, JOIN_TIME, LOOSE)
        assert key(cdn="slow") in crit.decoded()
        both_sources(table, rows, JOIN_FAILURE, LOOSE)

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_empty_and_single_session_epochs(self, n_rows):
        table = table_of([({"cdn": "bad"}, 5, 5), ({"cdn": "ok"}, 5, 0)])
        # With a 1x ratio floor every cluster of a lone failed session is
        # a problem cluster, so its leaf splits seven ways.
        config = ProblemClusterConfig(
            ratio_multiplier=1.0, min_sessions=1, min_problems=1, significance_sigmas=0.0
        )
        for metric in ALL_METRICS:
            both_sources(table, np.arange(n_rows), metric, config)
        _, critical = both_sources(table, np.arange(n_rows), JOIN_FAILURE, config)
        assert critical.n_clusters == 7 * n_rows
        for attribution in critical.decoded().values():
            assert attribution.attributed_problems == 1 / 7

    def test_pruned_leaves_never_read_the_last_cluster(self):
        # The largest leaf key B is the last cluster id, a problem
        # cluster and critical. Each healthy H_i differs from B on
        # attribute i only, so it taints or dilutes every ancestor of B.
        # The background leaves sit below the floor, so on the full
        # mask their leaf -> cluster entry is -1: read without the
        # trailing False slot it would alias B's flags and cover or
        # attribute their problem sessions.
        n_attrs = len(DEFAULT_SCHEMA)
        groups = [((1,) * n_attrs, 100, 60)]
        groups += [
            (tuple(0 if j == i else 1 for j in range(n_attrs)), 100, 0)
            for i in range(n_attrs)
        ]
        rng = np.random.default_rng(4)
        background = set()
        while len(background) < 30:
            codes = tuple(int(c) for c in rng.integers(0, 2, n_attrs))
            if n_attrs - sum(codes) >= 2:
                background.add(codes)
        groups += [(codes, 10, 1) for codes in sorted(background)]
        codes = np.array([c for c, n, _ in groups for _ in range(n)], dtype=np.int32)
        failed = np.array([i < f for _, n, f in groups for i in range(n)])
        table = SessionTable(
            schema=DEFAULT_SCHEMA,
            vocabs=[[f"{name}{v}" for v in range(2)] for name in DEFAULT_SCHEMA.names],
            codes=codes,
            start_time=np.zeros(failed.size),
            duration_s=np.where(failed, 0.0, 600.0),
            buffering_s=np.zeros(failed.size),
            join_time_s=np.where(failed, np.nan, 2.0),
            bitrate_kbps=np.where(failed, np.nan, 2000.0),
            join_failed=failed,
        )
        rows = np.arange(len(table))
        both_sources(table, rows, JOIN_FAILURE, LOOSE)

        for agg in floored_view_aggs(table, rows, JOIN_FAILURE, LOOSE):
            lattice = agg.lattice
            full = DEFAULT_SCHEMA.full_mask
            last = lattice.n_clusters - 1
            assert lattice.floor == LOOSE.min_sessions
            assert lattice.key_of(last) == key(
                **{name: f"{name}1" for name in DEFAULT_SCHEMA.names}
            )
            problems = find_problem_clusters(agg, LOOSE)
            critical = find_critical_clusters(problems)
            assert problems.is_problem[last] and last in critical.ids
            assert (lattice.leaf_cluster[full] == -1).sum() == len(background)
            assert critical.unattributed_problem_sessions == len(background)

    @pytest.mark.parametrize(
        "other_leaf, critical, attributed",
        [
            ((30, 15), key(cdn="X"), (115, 230)),
            ((60, 0), key(cdn="X", asn="Y"), (100, 200)),
        ],
    )
    def test_candidate_under_a_candidate_ancestor_is_not_critical(
        self, other_leaf, critical, attributed
    ):
        # (cdn=X, asn=Y) is a problem cluster with no bad descendant,
        # and removing it leaves cdn=X with only the (X, Z) sessions, no
        # problem cluster either way: it passes the removal test and is
        # a candidate. With (X, Z) below the floor of 50, cdn=X has no
        # bad descendant and no ancestor, so it is a candidate too and
        # the (X, Y) leaf's only minimal one: (X, Y) is not critical
        # and every cdn=X leaf goes to cdn=X. With (X, Z) significant
        # and healthy, cdn=X is tainted and (X, Y) is critical.
        table = table_of(
            [
                ({"cdn": "X", "asn": "Y"}, 200, 100),
                ({"cdn": "X", "asn": "Z"}, *other_leaf),
                ({"cdn": "ok", "asn": "Y"}, 1000, 20),
                ({"cdn": "ok", "asn": "Z"}, 1000, 20),
            ]
        )
        problems, crit = both_sources(table, np.arange(len(table)), JOIN_FAILURE, LOOSE)
        assert key(cdn="X", asn="Y") in problems.cluster_keys()
        decoded = crit.decoded()
        assert list(decoded) == [critical]
        assert (
            decoded[critical].attributed_problems,
            decoded[critical].attributed_sessions,
        ) == attributed

    def test_pair_budget_splits_groups_without_changing_results(self, monkeypatch):
        from repro.trace import StandardWorkloads, generate_trace

        table = generate_trace(StandardWorkloads.tiny_with_region(seed=3)).table
        epoch_of = np.floor(table.start_time / 3600.0).astype(np.int64)
        rows = np.flatnonzero(epoch_of == 5)
        config = ProblemClusterConfig(
            min_sessions=10, min_problems=3, significance_sigmas=1.0
        )
        units = [
            (metric, scale, replace(config, ratio_multiplier=ratio))
            for metric in ALL_METRICS
            for scale in (0.5, 1.0)
            for ratio in (1.25, 1.5)
        ]

        def outputs():
            _, problems, critical = detect_units(table, rows, units)
            return [
                (pc.decoded(), pc.coverage, list(cc.clusters.items()))
                + (cc.unattributed_problem_sessions,)
                for pc, cc in zip(problems, critical)
            ]

        whole = outputs()
        assert sum(len(c) for _, _, c, _ in whole) > 0
        monkeypatch.setattr(critical_module, "_PAIR_BUDGET", 1)
        assert outputs() == whole

    def test_batch_with_a_floor_below_the_view_is_rejected(self):
        table = table_of([({"cdn": "bad"}, 200, 100), ({"cdn": "ok"}, 800, 30)])
        rows = np.arange(len(table))
        at_view = replace(LOOSE, min_sessions=60)
        detect_units(table, rows, [(JOIN_FAILURE, 1.0, at_view)] * 2, view_floor=60)
        with pytest.raises(ValueError, match="below the floor"):
            detect_units(
                table, rows, [(JOIN_FAILURE, 1.0, at_view), (JOIN_TIME, 1.0, LOOSE)],
                view_floor=60,
            )

    def test_units_of_one_pass_share_one_lattice(self):
        table = table_of([({"cdn": "bad"}, 200, 100), ({"cdn": "ok"}, 800, 30)])
        rows = np.arange(len(table))
        one, other = (aggregate_epoch(table, rows, JOIN_FAILURE) for _ in range(2))
        with pytest.raises(ValueError, match="one epoch lattice"):
            detect_problem_clusters([(one, LOOSE), (other, LOOSE)])
        problems = [find_problem_clusters(agg, LOOSE) for agg in (one, other)]
        with pytest.raises(ValueError, match="one epoch lattice"):
            detect_critical_clusters(problems)

    def test_config_floor_below_the_view_is_rejected(self):
        table = table_of([({"cdn": "bad"}, 200, 100), ({"cdn": "ok"}, 800, 30)])
        agg = TraceClusterIndex.build(table).epoch_view(
            np.arange(len(table)), floor=60
        ).aggregate(JOIN_FAILURE)
        find_problem_clusters(agg, replace(LOOSE, min_sessions=60))
        with pytest.raises(ValueError, match="below the floor"):
            find_problem_clusters(agg, LOOSE)
