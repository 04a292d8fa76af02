"""The mechanistic engine's batch kernel against its per-session reference.

The lockstep batch kernel (``repro.sim.batch``) behind
``MechanisticQoEEngine.generate`` must be *bit-identical* to the
per-session reference loop (``tests/sim/scalar_reference.py``, one
``repro.sim.playback.simulate_session`` call per row) — not merely
statistically close. Every test here runs the same workload (or the
same engine call) through both and compares the outputs with
``np.array_equal`` (NaNs equal), exercising each exit path of the
kernel: join failure, join timeout, watch-limit truncation, and running
the grid dry.
"""

import dataclasses

import numpy as np
import pytest

import repro.sim.engine
from repro.sim.engine import MechanisticParams, MechanisticQoEEngine
from repro.trace.entities import WorldConfig, build_world
from repro.trace.generator import _make_engine, generate_trace
from repro.trace.population import AttributeSampler
from repro.trace.qoe import EffectArrays
from repro.trace.workloads import StandardWorkloads
from repro.sim.playback import simulate_session
from tests.sim import scalar_reference
from tests.sim.scalar_reference import ScalarReferenceEngine

#: (reference, production): the order of ``run_both``'s outputs.
ENGINES = (ScalarReferenceEngine, MechanisticQoEEngine)


FLOAT_COLUMNS = (
    "duration_s", "buffering_s", "join_time_s", "bitrate_kbps"
)


def assert_batches_identical(a, b):
    for col in FLOAT_COLUMNS:
        assert np.array_equal(
            getattr(a, col), getattr(b, col), equal_nan=True
        ), f"{col} differs"
    assert np.array_equal(a.join_failed, b.join_failed)


def make_world(seed=0, n_asns=8, n_cdns=4, n_sites=6):
    config = WorldConfig(n_asns=n_asns, n_cdns=n_cdns, n_sites=n_sites)
    return build_world(config, np.random.default_rng(seed))


def run_both(world, codes, effects, seed, params=None):
    """One call per engine, identical inputs and RNG seed."""
    return [
        engine(world, params=params).generate(
            codes, effects, np.random.default_rng(seed)
        )
        for engine in ENGINES
    ]


def sample_codes(world, n, seed=0):
    return AttributeSampler(world).sample(n, np.random.default_rng(seed))


class TestTraceLevel:
    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_full_trace_bit_identical(self, seed, monkeypatch):
        spec = StandardWorkloads.mechanistic_tiny(seed=seed)
        trace = generate_trace(spec)
        batch = trace.table
        monkeypatch.setattr(
            repro.sim.engine, "MechanisticQoEEngine", ScalarReferenceEngine
        )
        assert isinstance(_make_engine(spec, trace.world), ScalarReferenceEngine)
        # The reference's own phase 2 must run, one simulate_session per
        # session of every epoch: inheriting the engine's would compare
        # the kernel with itself.
        calls = []

        def counted(**kwargs):
            calls.append(1)
            return simulate_session(**kwargs)

        monkeypatch.setattr(scalar_reference, "simulate_session", counted)
        scalar = generate_trace(spec).table
        assert len(calls) == len(batch) > 0
        assert np.array_equal(scalar.codes, batch.codes)
        assert np.array_equal(scalar.start_time, batch.start_time)
        for col in FLOAT_COLUMNS:
            assert np.array_equal(
                getattr(scalar, col), getattr(batch, col), equal_nan=True
            ), f"{col} differs"
        assert np.array_equal(scalar.join_failed, batch.join_failed)


class TestEngineLevel:
    def test_neutral_effects(self):
        world = make_world()
        codes = sample_codes(world, 400)
        a, b = run_both(world, codes, EffectArrays.neutral(400), seed=3)
        assert_batches_identical(a, b)

    def test_effect_arrays(self):
        """Every effect channel active at once, including bitrate caps
        below the lowest ladder rung (the synthetic single-rung path)."""
        world = make_world(seed=2)
        n = 500
        codes = sample_codes(world, n, seed=2)
        rng = np.random.default_rng(99)
        effects = EffectArrays.neutral(n)
        effects.bandwidth_factor[:] = rng.uniform(0.2, 1.5, size=n)
        effects.buffering_factor[rng.random(n) < 0.3] = 4.0
        effects.join_time_factor[rng.random(n) < 0.3] = 3.0
        effects.join_failure_odds[rng.random(n) < 0.3] = 25.0
        capped = rng.random(n) < 0.4
        effects.bitrate_cap_kbps[capped] = rng.uniform(40.0, 3000.0, capped.sum())
        a, b = run_both(world, codes, effects, seed=4)
        assert_batches_identical(a, b)
        # The scenario must actually exercise caps and failures.
        assert a.join_failed.any()
        assert np.nanmin(a.bitrate_kbps) < 500.0

    def test_join_failure_exit(self):
        world = make_world(seed=1)
        n = 300
        codes = sample_codes(world, n, seed=1)
        effects = EffectArrays.neutral(n)
        effects.join_failure_odds[:] = 1e6
        a, b = run_both(world, codes, effects, seed=8)
        assert_batches_identical(a, b)
        assert a.join_failed.mean() > 0.9
        failed = a.join_failed
        assert np.all(np.isnan(a.join_time_s[failed]))
        assert np.all(a.duration_s[failed] == 0.0)

    def test_join_timeout_exit(self):
        """Starving the link makes startup exceed max_join_time_s, which
        converts the session into a join failure on both sides."""
        world = make_world(seed=3)
        n = 200
        codes = sample_codes(world, n, seed=3)
        effects = EffectArrays.neutral(n)
        effects.bandwidth_factor[:] = 1e-4
        a, b = run_both(world, codes, effects, seed=11)
        assert_batches_identical(a, b)
        assert a.join_failed.mean() > 0.9

    def test_watch_limit_truncation(self):
        """Short watch limits end sessions long before the video does."""
        world = make_world(seed=4)
        n = 300
        codes = sample_codes(world, n, seed=4)
        params = MechanisticParams(watch_median_s=20.0, watch_sigma=0.3)
        a, b = run_both(
            world, codes, EffectArrays.neutral(n), seed=13, params=params
        )
        assert_batches_identical(a, b)
        ok = ~a.join_failed
        # Durations cluster near the watch limit, far below video length.
        assert np.median(a.duration_s[ok]) < 100.0

    def test_multi_epoch_pass_leaving_early(self):
        """Epochs simulated as one pass, with watch limits so short that
        both classes' kernels stop long before their grids end (so every
        epoch discards unused jitter normals between its VOD and live
        blocks), equal the reference epoch by epoch; an empty and a
        one-session epoch ride along."""
        world = make_world(seed=10)
        params = MechanisticParams(watch_median_s=8.0, watch_sigma=0.3)
        codes = [sample_codes(world, n, seed=20 + n) for n in (150, 0, 1, 90)]
        batches = []
        for engine in ENGINES:
            engine = engine(world, params=params)
            rng = np.random.default_rng(31)
            prepared = [
                engine.prepare(c, EffectArrays.neutral(len(c)), rng) for c in codes
            ]
            batches.append(engine.simulate(prepared))
        for reference, kernel in zip(*batches):
            assert_batches_identical(reference, kernel)
        ok = ~np.concatenate([b.join_failed for b in batches[1]])
        durations = np.concatenate([b.duration_s for b in batches[1]])
        assert ok.sum() > 200 and durations[ok].max() < 60.0

    def test_zero_failure_cdn(self):
        """A CDN that never fails a join: the reference's
        ``CDNServer.join_fails`` returns early without reading its
        uniform, the kernel compares against probability zero."""
        world = make_world(seed=9)
        world.cdns[0] = dataclasses.replace(world.cdns[0], failure_prob=0.0)
        n = 400
        codes = sample_codes(world, n, seed=9)
        effects = EffectArrays.neutral(n)
        effects.join_failure_odds[:] = 50.0
        a, b = run_both(world, codes, effects, seed=17)
        assert_batches_identical(a, b)
        on_zero = codes[:, 1] == 0
        assert on_zero.any() and a.join_failed[~on_zero].any()
        assert not a.join_failed[on_zero].any()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_single_session_batches(self, seed):
        world = make_world(seed=5)
        codes = sample_codes(world, 1, seed=seed)
        a, b = run_both(world, codes, EffectArrays.neutral(1), seed=seed)
        assert_batches_identical(a, b)

    def test_empty_batch(self):
        world = make_world(seed=6)
        codes = np.empty((0, 7), dtype=np.int64)
        a, b = run_both(world, codes, EffectArrays.neutral(0), seed=0)
        assert len(a.duration_s) == 0
        assert_batches_identical(a, b)

    def test_shared_rng_position_is_path_independent(self):
        """Both engines consume exactly one draw from the caller's
        stream, so downstream draws (e.g. arrival jitter) stay aligned."""
        world = make_world(seed=7)
        codes = sample_codes(world, 50, seed=7)
        after = []
        for engine in ENGINES:
            rng = np.random.default_rng(21)
            engine(world).generate(codes, EffectArrays.neutral(50), rng)
            after.append(rng.random(5))
        assert np.array_equal(after[0], after[1])
