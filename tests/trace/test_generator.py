"""Tests for the end-to-end trace generator."""

import dataclasses

import numpy as np
import pytest

from repro.core.epoching import split_into_epochs
from repro.core.metrics import JOIN_FAILURE
from repro.trace.entities import WorldConfig, build_world
from repro.trace.events import EventCatalog, EventConfig, EventEffects, GroundTruthEvent
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.trace import generator
from repro.trace.generator import apply_events, generate_trace
from repro.trace.population import constraint_codes
from repro.trace.workloads import StandardWorkloads, WorkloadSpec
from repro.trace.arrivals import ArrivalModel


def micro_spec(seed=0, n_epochs=4, per_epoch=400) -> WorkloadSpec:
    return WorkloadSpec(
        name="micro",
        seed=seed,
        n_epochs=n_epochs,
        world=WorldConfig(n_asns=12, n_cdns=4, n_sites=8),
        events=EventConfig(
            chronic_per_metric=0,
            major_per_week=0,
            minor_per_week=0,
            transient_per_week=0,
            include_themed_chronics=False,
        ),
        arrivals=ArrivalModel(base_sessions_per_epoch=per_epoch, noise_sigma=0.0),
    )


class TestGenerateTrace:
    def test_session_count_matches_arrivals(self):
        trace = generate_trace(micro_spec())
        assert trace.n_sessions > 0
        _, per_epoch = split_into_epochs(trace.table, trace.grid)
        assert len(per_epoch) == 4
        assert all(len(rows) >= 50 for rows in per_epoch)

    def test_deterministic(self):
        t1 = generate_trace(micro_spec(seed=3))
        t2 = generate_trace(micro_spec(seed=3))
        assert np.array_equal(t1.table.codes, t2.table.codes)
        assert np.array_equal(t1.table.join_failed, t2.table.join_failed)
        assert np.allclose(t1.table.start_time, t2.table.start_time)

    def test_different_seeds_differ(self):
        t1 = generate_trace(micro_spec(seed=3))
        t2 = generate_trace(micro_spec(seed=4))
        assert not np.array_equal(t1.table.join_failed, t2.table.join_failed)

    def test_timestamps_within_epochs(self):
        trace = generate_trace(micro_spec())
        assert trace.table.start_time.min() >= 0.0
        assert trace.table.start_time.max() < 4 * 3600.0

    def test_vocabs_match_world(self):
        trace = generate_trace(micro_spec())
        assert trace.table.vocabs == trace.world.vocabularies()

    def test_planted_event_raises_cluster_failure_rate(self):
        spec = micro_spec(per_epoch=1500)
        world = build_world(spec.world, np.random.default_rng(99))
        bad_cdn = world.cdns[0].name
        catalog = EventCatalog([
            GroundTruthEvent(
                event_id="planted",
                tag="test-outage",
                category="major",
                primary_metric="join_failure",
                constraints=(("cdn", bad_cdn),),
                start_epoch=1,
                duration_epochs=2,
                effects=EventEffects(join_failure_odds=40.0),
            )
        ])
        trace = generate_trace(spec, world=world, catalog=catalog)
        table = trace.table
        cdn_col = table.schema.index("cdn")
        bad_code = table.attr_labels("cdn").index(bad_cdn)
        in_cluster = table.codes[:, cdn_col] == bad_code
        epoch = trace.grid.epoch_of(table.start_time)
        active = (epoch == 1) | (epoch == 2)
        rate_active = table.join_failed[in_cluster & active].mean()
        rate_inactive = table.join_failed[in_cluster & ~active].mean()
        assert rate_active > 5 * max(rate_inactive, 0.005)

    def test_mechanistic_engine_path(self):
        spec = dataclasses.replace(
            micro_spec(per_epoch=60, n_epochs=2), engine="mechanistic"
        )
        trace = generate_trace(spec)
        assert trace.n_sessions > 0
        ok = ~trace.table.join_failed
        assert (trace.table.bitrate_kbps[ok] > 0).all()

    def test_tiny_workload_has_problem_structure(self, tiny_trace):
        table = tiny_trace.table
        assert len(tiny_trace.catalog) > 0
        problems = JOIN_FAILURE.problem_mask(table)
        assert 0.005 < problems.mean() < 0.2


class TestApplyEvents:
    def test_effects_restricted_to_matching_rows(self):
        world = build_world(WorldConfig(n_asns=8, n_cdns=3, n_sites=4),
                            np.random.default_rng(0))
        event = GroundTruthEvent(
            event_id="e", tag="t", category="major",
            primary_metric="buffering_ratio",
            constraints=(("cdn", world.cdns[1].name),),
            start_epoch=0, duration_epochs=1,
            effects=EventEffects(buffering_factor=5.0),
        )
        codes = np.zeros((10, 7), dtype=np.int32)
        codes[:5, 1] = 1  # first five sessions on the affected CDN
        effects = apply_events(
            codes, [event],
            {"e": constraint_codes(world, event.constraints)}, 10,
        )
        assert (effects.buffering_factor[:5] == 5.0).all()
        assert (effects.buffering_factor[5:] == 1.0).all()

    def test_overlapping_events_compose(self):
        world = build_world(WorldConfig(n_asns=8, n_cdns=3, n_sites=4),
                            np.random.default_rng(0))
        make = lambda eid, factor: GroundTruthEvent(
            event_id=eid, tag="t", category="major",
            primary_metric="buffering_ratio",
            constraints=(("cdn", world.cdns[0].name),),
            start_epoch=0, duration_epochs=1,
            effects=EventEffects(buffering_factor=factor),
        )
        codes = np.zeros((4, 7), dtype=np.int32)
        events = [make("a", 2.0), make("b", 3.0)]
        lookup = {
            e.event_id: constraint_codes(world, e.constraints) for e in events
        }
        effects = apply_events(codes, events, lookup, 4)
        assert (effects.buffering_factor == 6.0).all()

    def test_bitrate_caps_take_minimum(self):
        world = build_world(WorldConfig(n_asns=8, n_cdns=3, n_sites=4),
                            np.random.default_rng(0))
        make = lambda eid, cap: GroundTruthEvent(
            event_id=eid, tag="t", category="major", primary_metric="bitrate",
            constraints=(("cdn", world.cdns[0].name),),
            start_epoch=0, duration_epochs=1,
            effects=EventEffects(bitrate_cap_kbps=cap),
        )
        codes = np.zeros((2, 7), dtype=np.int32)
        events = [make("a", 600.0), make("b", 400.0)]
        lookup = {
            e.event_id: constraint_codes(world, e.constraints) for e in events
        }
        effects = apply_events(codes, events, lookup, 2)
        assert (effects.bitrate_cap_kbps == 400.0).all()


class TestStandardWorkloads:
    def test_presets_resolve(self):
        for name in ("tiny", "small", "week", "two_weeks", "mechanistic_tiny"):
            spec = StandardWorkloads.by_name(name, seed=1)
            assert spec.seed == 1

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown workload"):
            StandardWorkloads.by_name("galactic")

    def test_two_weeks_doubles_epochs(self):
        assert StandardWorkloads.two_weeks().n_epochs == 2 * StandardWorkloads.week().n_epochs

    def test_with_seed(self):
        assert StandardWorkloads.tiny().with_seed(9).seed == 9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", seed=0, n_epochs=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", seed=0, n_epochs=1, engine="quantum")


TRACE_COLUMNS = (
    "codes", "start_time", "duration_s", "buffering_s", "join_time_s",
    "bitrate_kbps", "join_failed",
)


class TestSimulationPasses:
    """Epochs are prepared one by one and simulated in passes of at most
    ``_PASS_SESSIONS`` sessions; the pass size never changes a trace."""

    def test_passes_group_consecutive_epochs_under_the_bound(self, monkeypatch):
        monkeypatch.setattr(generator, "_PASS_SESSIONS", 10)
        counts = np.array([4, 5, 2, 12, 3, 3, 3, 1])
        passes = generator._passes(counts)
        assert passes == [range(0, 2), range(2, 3), range(3, 4), range(4, 8)]
        # Every epoch once, in order; only a lone epoch exceeds the bound.
        assert [e for p in passes for e in p] == list(range(counts.size))
        assert all(counts[list(p)].sum() <= 10 or len(p) == 1 for p in passes)

    def test_pass_size_never_changes_a_mechanistic_trace(self, monkeypatch):
        """One epoch per pass, the default bound and one pass for the
        whole trace give the same trace, including a pass holding an
        epoch whose live sessions all fail to join (no live rows to
        simulate) beside epochs that have some."""
        spec = StandardWorkloads.mechanistic_tiny(seed=5)
        world = build_world(spec.world, np.random.default_rng(5))
        live_outage = GroundTruthEvent(
            event_id="live-outage", tag="t", category="major",
            primary_metric="join_failure",
            constraints=(("content_type", "live"),),
            start_epoch=3, duration_epochs=1,
            effects=EventEffects(join_failure_odds=1e12),
        )
        catalog = EventCatalog([live_outage])
        traces, passes = [], []
        for bound in (1, generator._PASS_SESSIONS, 10**9):
            monkeypatch.setattr(generator, "_PASS_SESSIONS", bound)
            metrics = MetricsRegistry()
            with use_metrics(metrics):
                traces.append(generate_trace(spec, world=world, catalog=catalog))
            passes.append(metrics.counters["generate.passes"])
        assert passes[0] == spec.n_epochs and passes[2] == 1
        assert 1 < passes[1] < spec.n_epochs

        table = traces[0].table
        epoch = traces[0].grid.epoch_of(table.start_time)
        live = table.codes[:, table.schema.index("content_type")] == 1
        assert live[epoch == 3].any() and table.join_failed[live & (epoch == 3)].all()
        assert not table.join_failed[live & (epoch == 4)].all()
        for other in traces[1:]:
            for col in TRACE_COLUMNS:
                assert np.array_equal(
                    getattr(other.table, col), getattr(table, col), equal_nan=True
                ), col

    def test_qoe_span_and_counter_record_the_passes(self, monkeypatch):
        monkeypatch.setattr(generator, "_PASS_SESSIONS", 700)
        spec = dataclasses.replace(
            micro_spec(per_epoch=300, n_epochs=5), engine="mechanistic"
        )
        tracer, metrics = Tracer("test"), MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            trace = generate_trace(spec)
        (span,) = tracer.find("generate.qoe")
        _, per_epoch = split_into_epochs(trace.table, trace.grid)
        sizes = [len(rows) for rows in per_epoch]
        expected = generator._passes(np.array(sizes))
        assert span.attrs["passes"] == len(expected) == metrics.counters["generate.passes"]
        assert span.attrs["largest_pass"] == max(
            sum(sizes[e] for e in p) for p in expected
        )
        assert 1 < len(expected) < spec.n_epochs
