"""Tests for the streaming critical-cluster monitor."""

import numpy as np
import pytest

from repro.core.clusters import ClusterKey
from repro.core.epoching import split_into_epochs
from repro.core.metrics import ALL_METRICS, JOIN_FAILURE
from repro.core.online import OnlineDetector
from repro.core.problems import ProblemClusterConfig
from repro.core.sessions import SessionTable
from repro.core.substrate import AnalysisSubstrate, epoch_floor
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.trace import StandardWorkloads, generate_trace
from tests.conftest import make_session


def epoch_table(bad_cdn_fail_p: float, n: int = 1500, seed: int = 0) -> SessionTable:
    rng = np.random.default_rng(seed)
    sessions = []
    for _ in range(n):
        cdn = "cdn_bad" if rng.random() < 0.3 else f"cdn_{rng.integers(0, 2)}"
        fail_p = bad_cdn_fail_p if cdn == "cdn_bad" else 0.03
        sessions.append(
            make_session(
                cdn=cdn,
                asn=f"AS{rng.integers(0, 4)}",
                join_failed=bool(rng.random() < fail_p),
            )
        )
    return SessionTable.from_sessions(sessions)


CONFIG = ProblemClusterConfig(
    min_sessions=50, min_problems=3, significance_sigmas=0.0
)
BAD_KEY = ClusterKey.from_mapping({"cdn": "cdn_bad"})


def make_detector(confirm_after=2) -> OnlineDetector:
    return OnlineDetector(
        JOIN_FAILURE, problem_config=CONFIG, confirm_after=confirm_after
    )


class TestAlertLifecycle:
    def test_raise_confirm_clear(self):
        detector = make_detector(confirm_after=2)
        # epoch 0: healthy; epochs 1-3: outage; epoch 4: healthy again.
        fail_ps = [0.03, 0.5, 0.5, 0.5, 0.03]
        events_per_epoch = []
        for i, p in enumerate(fail_ps):
            obs = detector.observe_epoch(epoch_table(p, seed=i))
            events_per_epoch.append(
                [(e.kind, e.alert.key) for e in obs.events]
            )
        assert ("raised", BAD_KEY) in events_per_epoch[1]
        assert ("confirmed", BAD_KEY) in events_per_epoch[2]
        assert ("cleared", BAD_KEY) in events_per_epoch[4]

    def test_alert_durations(self):
        detector = make_detector()
        for i, p in enumerate([0.5, 0.5, 0.5, 0.03]):
            detector.observe_epoch(epoch_table(p, seed=10 + i))
        bad = [a for a in detector.closed_alerts if a.key == BAD_KEY]
        assert len(bad) == 1
        assert bad[0].raised_epoch == 0
        assert bad[0].cleared_epoch == 3
        assert bad[0].duration_epochs == 3

    def test_unconfirmed_blip_never_confirms(self):
        detector = make_detector(confirm_after=2)
        for i, p in enumerate([0.03, 0.5, 0.03]):
            detector.observe_epoch(epoch_table(p, seed=20 + i))
        bad = [a for a in detector.all_alerts if a.key == BAD_KEY]
        assert len(bad) == 1
        assert not bad[0].is_confirmed
        assert bad[0].actionable_alleviation == 0.0

    def test_reopened_streak_is_new_alert(self):
        detector = make_detector()
        for i, p in enumerate([0.5, 0.03, 0.5]):
            detector.observe_epoch(epoch_table(p, seed=30 + i))
        bad = [a for a in detector.all_alerts if a.key == BAD_KEY]
        assert len(bad) == 2

    def test_actionable_alleviation_accrues_after_confirm(self):
        detector = make_detector(confirm_after=2)
        for i, p in enumerate([0.5, 0.5, 0.5]):
            detector.observe_epoch(epoch_table(p, seed=40 + i))
        bad = [a for a in detector.all_alerts if a.key == BAD_KEY][0]
        assert bad.is_confirmed
        assert bad.actionable_alleviation > 0
        assert detector.total_actionable_alleviation >= bad.actionable_alleviation

    def test_confirm_after_validated(self):
        with pytest.raises(ValueError):
            make_detector(confirm_after=0)


class TestHistoryAndQueries:
    def test_history_records_epochs(self):
        detector = make_detector()
        for i, p in enumerate([0.03, 0.5]):
            detector.observe_epoch(epoch_table(p, seed=50 + i))
        assert len(detector.history) == 2
        assert detector.history[0].epoch == 0
        assert detector.history[1].n_critical_clusters >= 1

    def test_epochs_observed_counts_history(self):
        detector = make_detector()
        assert detector.epochs_observed == 0
        for i, p in enumerate([0.03, 0.5, 0.03]):
            observation = detector.observe_epoch(epoch_table(p, seed=70 + i))
            assert observation.epoch == i
            assert detector.epochs_observed == len(detector.history) == i + 1
        with pytest.raises(AttributeError):
            detector.epochs_observed = 0

    def test_critical_keys_at(self):
        detector = make_detector()
        for i, p in enumerate([0.03, 0.5, 0.5, 0.03]):
            detector.observe_epoch(epoch_table(p, seed=60 + i))
        assert BAD_KEY not in detector.critical_keys_at(0)
        assert BAD_KEY in detector.critical_keys_at(1)
        assert BAD_KEY in detector.critical_keys_at(2)
        assert BAD_KEY not in detector.critical_keys_at(3)


class TestOnlineMatchesBatch:
    def test_same_critical_sets_as_batch_pipeline(self, tiny_trace):
        """Streaming the trace epoch by epoch reproduces the batch
        pipeline's per-epoch critical sets exactly."""
        from repro.core.pipeline import AnalysisConfig, analyze_trace

        table = tiny_trace.table
        grid, per_epoch = split_into_epochs(table, tiny_trace.grid)
        n = min(grid.n_epochs, 8)

        detector = OnlineDetector(JOIN_FAILURE)
        for epoch in range(n):
            detector.observe_epoch(table, per_epoch[epoch])

        batch = analyze_trace(
            table.select(np.nonzero(table.start_time < n * 3600.0)[0]),
            config=AnalysisConfig(metrics=(JOIN_FAILURE,)),
        )
        for epoch in range(n):
            online_keys = detector.critical_keys_at(epoch)
            batch_keys = set(batch["join_failure"].epochs[epoch].critical_clusters)
            assert online_keys == batch_keys, f"epoch {epoch}"


class TestSchemaChange:
    def test_schema_change_starts_a_new_stream(self, tiny_trace):
        """Every epoch is indexed under its own table's schema, 8
        attributes after 7 and 7 again after 8: the detector's
        substrate holds that epoch alone, and each epoch's observation
        equals the direct oracle's."""
        from dataclasses import replace

        from repro.core.critical import find_critical_clusters
        from repro.core.problems import find_problem_clusters
        from tests.core.direct_aggregate import aggregate_epoch

        table = tiny_trace.table
        _, per_epoch = split_into_epochs(table, tiny_trace.grid)
        region = generate_trace(replace(
            StandardWorkloads.tiny_with_region(seed=3), n_epochs=1
        )).table
        assert len(region.schema) == len(table.schema) + 1
        epochs = [(table, per_epoch[e]) for e in range(3)]
        epochs += [(region, np.arange(len(region))), (table, per_epoch[3])]

        detector = OnlineDetector(JOIN_FAILURE)
        for epoch, (source, rows) in enumerate(epochs):
            observation = detector.observe_epoch(source, rows)
            agg = aggregate_epoch(
                source, rows, JOIN_FAILURE, epoch=epoch,
                thresholds=detector.thresholds,
            )
            problems = find_problem_clusters(agg, detector.problem_config)
            critical = find_critical_clusters(problems)
            assert observation.total_sessions == agg.total_sessions
            assert observation.total_problems == agg.total_problems
            assert observation.n_problem_clusters == problems.n_clusters
            assert observation.n_critical_clusters == critical.n_clusters
            assert critical.n_clusters > 0
            assert detector.critical_keys_at(epoch) == set(critical.decoded())
            assert detector.substrate.table.schema == source.schema
            assert len(detector.substrate) == rows.size

    def test_alert_lifecycle_carries_over(self):
        """Alerts key on decoded identities: a cluster critical on both
        sides of a schema change keeps one alert."""
        from dataclasses import replace

        from repro.core.attributes import DEFAULT_SCHEMA, AttributeSchema

        wide = AttributeSchema(names=DEFAULT_SCHEMA.names + ("region",))
        detector = make_detector(confirm_after=2)
        events = []
        for i in range(4):
            epoch = epoch_table(0.5, seed=100 + i)
            if i == 2:
                epoch = SessionTable.from_sessions(
                    (replace(s, attrs={**s.attrs, "region": "eu"})
                     for s in epoch.rows()),
                    schema=wide,
                )
            obs = detector.observe_epoch(epoch)
            events += [(e.kind, e.epoch) for e in obs.events
                       if e.alert.key == BAD_KEY]
        assert events == [("raised", 0), ("confirmed", 1)]
        (alert,) = [a for a in detector.all_alerts if a.key == BAD_KEY]
        assert alert.is_open and alert.consecutive_epochs == 4
        assert detector.substrate.table.schema == DEFAULT_SCHEMA


def replay_alerts(epochs, confirm_after: int = 2) -> dict:
    """Per alert, keyed ``(key, raised epoch)``: its attributed problems
    and its actionable alleviation as running sums, in epoch order,
    over a batch analysis's critical attributions. With ``clear_after=1``
    an alert is one streak of consecutive critical epochs, confirmed
    from its ``confirm_after``-th epoch on."""
    streaks: dict = {}
    alerts: dict = {}
    for e, epoch in enumerate(epochs):
        for key, att in epoch.critical_clusters.items():
            raised, length, attributed, saved = streaks.get(key, (e, 0, 0.0, 0.0))
            length += 1
            attributed += att.attributed_problems
            if length >= confirm_after:
                baseline = epoch.global_ratio * att.attributed_sessions
                saved += max(att.attributed_problems - baseline, 0.0)
            streaks[key] = (raised, length, attributed, saved)
        for key in [k for k in streaks if k not in epoch.critical_clusters]:
            raised, _, attributed, saved = streaks.pop(key)
            alerts[key, raised] = (attributed, saved)
    for key, (raised, _, attributed, saved) in streaks.items():
        alerts[key, raised] = (attributed, saved)
    return alerts


class TestEpochScoped:
    def test_alert_floats_equal_the_batch_running_sums(
        self, tiny_trace, tiny_analysis
    ):
        """Each epoch's rows keep the trace's vocabularies, so its leaf
        order, and hence every attribution's summation order, is the
        batch analysis's: every alert's sums equal the running sums
        over ``analyze_trace``'s attributions, float for float."""
        table = tiny_trace.table
        _, per_epoch = split_into_epochs(table, tiny_trace.grid)
        assert len(per_epoch) == 24
        for metric in ALL_METRICS:
            detector = OnlineDetector(metric)
            for rows in per_epoch:
                detector.observe_epoch(table, rows)
            got = {
                (a.key, a.raised_epoch): (
                    a.total_attributed_problems,
                    a.actionable_alleviation,
                )
                for a in detector.all_alerts
            }
            want = replay_alerts(tiny_analysis[metric.name].epochs)
            assert got == want, metric.name
            assert any(saved > 0 for _, saved in want.values()), metric.name

    def test_state_is_the_last_epoch_alone(self):
        """After every epoch of a 72-epoch trace, the detector holds that
        epoch's substrate and nothing more: as many rows, and the bytes
        of a fresh build over them with the metric's masks warmed. The
        ``online.state_bytes`` gauge reads those bytes."""
        trace = generate_trace(StandardWorkloads.small(seed=42))
        _, per_epoch = split_into_epochs(trace.table, trace.grid)
        assert len(per_epoch) == 72
        detector = OnlineDetector(JOIN_FAILURE)
        registry = MetricsRegistry()
        with use_metrics(registry):
            for rows in per_epoch:
                detector.observe_epoch(trace.table, rows)
                fresh = AnalysisSubstrate.build(trace.table.select(rows))
                fresh.index.warm_metric_masks([JOIN_FAILURE], detector.thresholds)
                assert len(detector.substrate) == rows.size
                assert detector.substrate.memory_bytes() == fresh.memory_bytes()
                assert registry.gauges["online.state_bytes"] == fresh.memory_bytes()

    def test_alleviation_total_is_the_left_to_right_sum(self):
        """After every epoch of ``small``, for every metric, the total
        equals a left-to-right loop over ``all_alerts`` (closed, then
        open), and the ``online.actionable_alleviation`` gauge reads it."""
        trace = generate_trace(StandardWorkloads.small(seed=42))
        _, per_epoch = split_into_epochs(trace.table, trace.grid)
        for metric in ALL_METRICS:
            detector = OnlineDetector(metric)
            registry = MetricsRegistry()
            with use_metrics(registry):
                for rows in per_epoch:
                    detector.observe_epoch(trace.table, rows)
                    total = 0.0
                    for alert in detector.all_alerts:
                        total += alert.actionable_alleviation
                    assert detector.total_actionable_alleviation == total
                    gauge = registry.gauges["online.actionable_alleviation"]
                    assert gauge == total
            assert detector.closed_alerts and total > 0, metric.name

    def test_span_records_the_view_size(self, tiny_trace):
        """The ``online.observe_epoch`` span carries the leaves and kept
        clusters of the epoch's view."""
        table = tiny_trace.table
        _, per_epoch = split_into_epochs(table, tiny_trace.grid)
        detector = OnlineDetector(JOIN_FAILURE)
        tracer = Tracer()
        with use_tracer(tracer):
            for rows in per_epoch[:3]:
                detector.observe_epoch(table, rows)
        spans = tracer.find("online.observe_epoch")
        assert len(spans) == 3
        served = [(detector.problem_config, JOIN_FAILURE)]
        for epoch, (span, rows) in enumerate(zip(spans, per_epoch)):
            fresh = AnalysisSubstrate.build(table.select(rows))
            every = np.arange(rows.size)
            view = fresh.epoch_view(
                every, epoch, floor=epoch_floor(fresh.index, every, served)
            )
            assert span.attrs["leaves"] == view.n_leaves > 0
            assert span.attrs["clusters"] == view.lattice.n_clusters > 0

    @pytest.mark.parametrize("clear_after", [1, 2])
    def test_empty_epoch_mid_stream(self, clear_after):
        """An empty epoch is observed like any other: no sessions and no
        clusters, and one epoch of absence for every open alert."""
        detector = OnlineDetector(
            JOIN_FAILURE, problem_config=CONFIG, clear_after=clear_after
        )
        detector.observe_epoch(epoch_table(0.5, seed=110))
        empty = detector.observe_epoch(
            epoch_table(0.5, seed=111), np.empty(0, dtype=np.int64)
        )
        assert (empty.epoch, empty.total_sessions, empty.total_problems) == (1, 0, 0)
        assert empty.n_problem_clusters == 0
        assert empty.critical_keys == frozenset()
        assert len(detector.substrate) == 0
        detector.observe_epoch(epoch_table(0.5, seed=112))
        bad = [a for a in detector.all_alerts if a.key == BAD_KEY]
        if clear_after == 1:
            assert [(a.raised_epoch, a.cleared_epoch) for a in bad] == [
                (0, 1), (2, None),
            ]
        else:
            (alert,) = bad
            assert alert.is_open and alert.total_active_epochs == 2
        assert detector.critical_keys_at(1) == set()


class TestHysteresis:
    def test_clear_after_bridges_gaps(self):
        """With clear_after=2, a one-epoch dip does not clear the alert."""
        detector = OnlineDetector(
            JOIN_FAILURE, problem_config=CONFIG, confirm_after=2,
            clear_after=2,
        )
        for i, p in enumerate([0.5, 0.5, 0.03, 0.5, 0.5]):
            detector.observe_epoch(epoch_table(p, seed=70 + i))
        bad = [a for a in detector.all_alerts if a.key == BAD_KEY]
        assert len(bad) == 1  # one alert spanning the dip
        assert bad[0].is_open
        assert bad[0].total_active_epochs == 4

    def test_critical_keys_at_follows_each_epoch(self):
        """An open alert spans epochs its cluster was absent from; those
        epochs do not report the key, bridged or not yet cleared."""
        detector = OnlineDetector(
            JOIN_FAILURE, problem_config=CONFIG, confirm_after=2,
            clear_after=2,
        )
        for i, p in enumerate([0.5, 0.5, 0.03, 0.5, 0.5]):
            detector.observe_epoch(epoch_table(p, seed=70 + i))
        assert [BAD_KEY in detector.critical_keys_at(e) for e in range(5)] == [
            True, True, False, True, True,
        ]

        detector = OnlineDetector(
            JOIN_FAILURE, problem_config=CONFIG, clear_after=2
        )
        for i, p in enumerate([0.5, 0.03]):
            detector.observe_epoch(epoch_table(p, seed=90 + i))
        assert detector.open_alerts[BAD_KEY].absent_epochs == 1
        assert BAD_KEY in detector.critical_keys_at(0)
        assert BAD_KEY not in detector.critical_keys_at(1)
        assert detector.critical_keys_at(2) == set()

    def test_clear_after_one_is_immediate(self):
        detector = OnlineDetector(
            JOIN_FAILURE, problem_config=CONFIG, clear_after=1
        )
        for i, p in enumerate([0.5, 0.03]):
            detector.observe_epoch(epoch_table(p, seed=80 + i))
        bad = [a for a in detector.closed_alerts if a.key == BAD_KEY]
        assert len(bad) == 1
        assert bad[0].cleared_epoch == 1

    def test_cleared_epoch_marks_first_absence(self):
        detector = OnlineDetector(
            JOIN_FAILURE, problem_config=CONFIG, clear_after=2
        )
        for i, p in enumerate([0.5, 0.03, 0.03]):
            detector.observe_epoch(epoch_table(p, seed=90 + i))
        bad = [a for a in detector.closed_alerts if a.key == BAD_KEY]
        assert len(bad) == 1
        assert bad[0].cleared_epoch == 1  # absent from epoch 1 onward

    def test_clear_after_validated(self):
        with pytest.raises(ValueError):
            OnlineDetector(JOIN_FAILURE, clear_after=0)
