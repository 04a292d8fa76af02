"""Tests for the mechanistic QoE engine."""

import tracemalloc

import numpy as np
import pytest

from repro.sim.engine import BlockDraws, MechanisticParams, MechanisticQoEEngine
from repro.trace.entities import WorldConfig, build_world
from repro.trace.population import AttributeSampler
from repro.trace.qoe import EffectArrays
from repro.trace.workloads import StandardWorkloads


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(n_asns=10, n_cdns=4, n_sites=6),
                       np.random.default_rng(8))


@pytest.fixture(scope="module")
def engine(world):
    return MechanisticQoEEngine(world)


@pytest.fixture(scope="module")
def codes(world):
    return AttributeSampler(world).sample(400, np.random.default_rng(9))


class TestMechanisticEngine:
    def test_batch_shapes(self, engine, codes):
        batch = engine.generate(
            codes, EffectArrays.neutral(len(codes)), np.random.default_rng(0)
        )
        assert len(batch) == len(codes)

    def test_invariants(self, engine, codes):
        batch = engine.generate(
            codes, EffectArrays.neutral(len(codes)), np.random.default_rng(0)
        )
        ok = ~batch.join_failed
        assert (batch.duration_s[ok] >= 0).all()
        assert (batch.buffering_s[ok] <= batch.duration_s[ok] + 1e-9).all()
        assert np.isnan(batch.bitrate_kbps[~ok]).all()

    def test_bitrates_within_site_ladders(self, world, engine, codes):
        batch = engine.generate(
            codes, EffectArrays.neutral(len(codes)), np.random.default_rng(1)
        )
        ok = ~batch.join_failed
        for i in np.nonzero(ok)[0]:
            ladder = world.sites[int(codes[i, 2])].ladder
            assert ladder[0] <= batch.bitrate_kbps[i] <= ladder[-1]

    def test_failure_odds_effect(self, engine, codes):
        eff = EffectArrays.neutral(len(codes))
        eff.join_failure_odds[:] = 100.0
        batch = engine.generate(codes, eff, np.random.default_rng(2))
        base = engine.generate(
            codes, EffectArrays.neutral(len(codes)), np.random.default_rng(2)
        )
        assert batch.join_failed.mean() > base.join_failed.mean()

    def test_bitrate_cap_effect(self, engine, codes):
        eff = EffectArrays.neutral(len(codes))
        eff.bitrate_cap_kbps[:] = 500.0
        batch = engine.generate(codes, eff, np.random.default_rng(3))
        ok = ~batch.join_failed
        assert (batch.bitrate_kbps[ok] <= 500.0).all()

    def test_join_time_factor_effect(self, engine, codes):
        eff = EffectArrays.neutral(len(codes))
        eff.join_time_factor[:] = 8.0
        slow = engine.generate(codes, eff, np.random.default_rng(4))
        base = engine.generate(
            codes, EffectArrays.neutral(len(codes)), np.random.default_rng(4)
        )
        assert np.nanmedian(slow.join_time_s) > np.nanmedian(base.join_time_s)

    def test_custom_params(self, world, codes):
        engine = MechanisticQoEEngine(
            world, MechanisticParams(watch_median_s=30.0, watch_sigma=0.1)
        )
        batch = engine.generate(
            codes, EffectArrays.neutral(len(codes)), np.random.default_rng(5)
        )
        ok = ~batch.join_failed
        assert np.median(batch.duration_s[ok]) < 120.0


class TestParamsValidation:
    @pytest.mark.parametrize("field", [
        "watch_median_s", "max_join_time_s", "segment_s",
        "startup_buffer_s", "vod_video_s", "live_video_s",
    ])
    def test_non_positive_rejected(self, field):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=field):
                MechanisticParams(**{field: value})

    @pytest.mark.parametrize("field", [
        "watch_sigma", "join_overhead_per_factor_s",
    ])
    def test_negative_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            MechanisticParams(**{field: -0.1})
        MechanisticParams(**{field: 0.0})


class TestGenerateMemory:
    def test_peak_within_the_rate_blocks(self):
        """One ``generate`` call's traced peak stays within the bytes of
        both classes' uniform and jitter blocks, and within 1.5x the
        larger class's pair: one class's blocks are drawn at a time, the
        uniforms are freed once the rates are written over the jitter
        block, and no per-session generator, transposed copy or third
        block is made. (A layout with per-session generators peaked at
        1.78x both classes' blocks; keeping a copy of the rates beside
        both blocks reaches 1.65x the larger pair.)"""
        spec = StandardWorkloads.mechanistic_day(seed=42)
        world = build_world(spec.world, np.random.default_rng(spec.seed))
        n = spec.arrivals.base_sessions_per_epoch
        codes = AttributeSampler(world).sample(n, np.random.default_rng(1))
        effects = EffectArrays.neutral(n)
        engine = MechanisticQoEEngine(world)
        engine.generate(codes, effects, np.random.default_rng(2))

        draws = BlockDraws(np.random.default_rng(2), n, engine.params)
        fail_p = engine._shared_inputs(codes, effects)["fail_p"]
        joined = draws.join_u >= fail_p
        live = codes[:, 3] != 0
        pair_bytes = [
            2 * 8 * engine._segment_grids[flag].size
            * np.count_nonzero(joined & (live == flag))
            for flag in (False, True)
        ]

        tracemalloc.start()
        try:
            engine.generate(codes, effects, np.random.default_rng(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= sum(pair_bytes), (peak, pair_bytes)
        assert peak <= 1.5 * max(pair_bytes), (peak, pair_bytes)
