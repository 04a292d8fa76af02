"""Tests for the mechanistic QoE engine."""

import tracemalloc

import numpy as np
import pytest

from repro.sim.bandwidth import (
    DEFAULT_JITTER_SIGMA,
    DEFAULT_STATE_FACTORS,
    DEFAULT_TRANSITIONS,
)
from repro.sim.batch import markov_rate_matrix
from repro.sim.engine import (
    BlockDraws,
    MechanisticParams,
    MechanisticQoEEngine,
    RateSteps,
    StepDrawnRates,
)
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
        larger class's pair, although those blocks are the layout every
        draw follows: the rates are drawn a step at a time
        (``RateSteps``), so no block is ever whole, and what remains is
        the per-row state of the kernel and its inputs (0.50 MiB here;
        1.29 MiB when each class's blocks were drawn whole, and 1.78x
        both classes' blocks with per-session generators).
        """
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

    def test_peak_flat_in_the_segment_grid(self):
        """Four times the live grid (1,200 -> 4,800 s of video, 300 ->
        1,200 segments) moves one ``generate`` call's traced peak by
        less than 10%: memory is O(rows), with no array over segments.
        (Whole per-class blocks went 1.29 -> 4.50 MiB.)"""
        spec = StandardWorkloads.mechanistic_day(seed=42)
        world = build_world(spec.world, np.random.default_rng(spec.seed))
        n = spec.arrivals.base_sessions_per_epoch
        codes = AttributeSampler(world).sample(n, np.random.default_rng(1))
        effects = EffectArrays.neutral(n)
        peaks = []
        for live_video_s in (1200.0, 4800.0):
            engine = MechanisticQoEEngine(
                world, MechanisticParams(live_video_s=live_video_s)
            )
            engine.generate(codes, effects, np.random.default_rng(2))
            tracemalloc.start()
            try:
                engine.generate(codes, effects, np.random.default_rng(2))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestStepDrawnLayout:
    """``RateSteps`` serves each class's blocks of the layout one step
    at a time; ``StepDrawnRates`` lays a pass's epochs end to end."""

    @pytest.mark.parametrize(
        "m, n_segments, served",
        [(1, 1, 1), (7, 75, 75), (250, 300, 300), (64, 40, 13), (5, 30, 0), (0, 12, 0)],
    )
    def test_steps_replay_the_blocks(self, m, n_segments, served):
        """Row ``t`` of both blocks, bit for bit, then a generator past
        both blocks, also when the kernel stops before the last step."""
        block = np.random.default_rng(11)
        stepped = np.random.default_rng(11)
        for gen in (block, stepped):
            gen.normal(size=3)  # a stream already under way
        uniforms = block.random((n_segments, m))
        normals = block.normal(0.0, DEFAULT_JITTER_SIGMA, size=(n_segments, m))
        steps = RateSteps(stepped, m, n_segments)
        u, z = np.empty(m), np.empty(m)
        for t in range(served):
            steps.draw(u, z)
            assert _bits(u) == _bits(uniforms[t])
            assert _bits(z) == _bits(normals[t])
        after = steps.finish()
        assert after.bit_generator.state == block.bit_generator.state
        assert _bits(after.random(4)) == _bits(block.random(4))

    def test_epoch_draws_follow_the_block_layout(self):
        """``BlockDraws`` serves one epoch's whole layout from its seeded
        generator: watch normals, join uniforms, then VOD's uniform and
        jitter blocks, then live's — also when VOD's kernel stops early."""
        params = MechanisticParams()
        n, classes = 50, ((30, 75, 20), (12, 300, 300))
        draws = BlockDraws(np.random.default_rng(4), n, params)
        gen = np.random.default_rng(
            int(np.random.default_rng(4).integers(0, 2**63))
        )
        watch = gen.normal(np.log(params.watch_median_s), params.watch_sigma, n)
        assert _bits(draws.watch_s) == _bits(np.exp(watch))
        assert _bits(draws.join_u) == _bits(gen.random(n))
        for m, n_segments, served in classes:
            uniforms = gen.random((n_segments, m))
            normals = gen.normal(0.0, DEFAULT_JITTER_SIGMA, (n_segments, m))
            steps = draws.rate_steps(m, n_segments)
            u, z = np.empty(m), np.empty(m)
            for t in range(served):
                steps.draw(u, z)
                assert _bits(u) == _bits(uniforms[t])
                assert _bits(z) == _bits(normals[t])
            steps.finish()

    def test_step_exponentiates_each_step_slice(self):
        gen = np.random.default_rng(3)
        normals = np.random.default_rng(3)
        normals.bit_generator.advance(40 * 6)
        steps = RateSteps(gen, 6, 40)
        u, jitter = np.empty(6), np.empty(6)
        for _ in range(40):
            steps.step(u, jitter)
            z = normals.normal(0.0, DEFAULT_JITTER_SIGMA, size=6)
            assert _bits(jitter) == _bits(np.exp(z))
        with pytest.raises(IndexError):
            steps.step(u, jitter)

    def test_fails_loudly_without_advance(self):
        with pytest.raises(TypeError, match="cannot advance"):
            RateSteps(np.random.Generator(np.random.MT19937(0)), 4, 10)

    def test_pass_rates_equal_each_epochs_rate_matrix(self):
        """Two epochs' rows end to end, each drawn from its own
        generator: column ``t`` is ``markov_rate_matrix`` over each
        epoch's blocks, side by side."""
        cum = np.cumsum(np.asarray(DEFAULT_TRANSITIONS), axis=1)
        factors = np.asarray(DEFAULT_STATE_FACTORS)
        sizes, n_segments = (5, 9), 30
        means = np.random.default_rng(0).uniform(300.0, 9000.0, sum(sizes))
        expected = []
        for seed, m in enumerate(sizes):
            gen = np.random.default_rng(seed)
            uniforms = gen.random((n_segments, m))
            normals = gen.normal(0.0, DEFAULT_JITTER_SIGMA, (n_segments, m))
            expected.append((uniforms, np.array([np.exp(row) for row in normals])))
        want = markov_rate_matrix(
            means,
            np.hstack([u for u, _ in expected]).T,
            np.hstack([j for _, j in expected]).T,
            cum, factors,
        )
        rates = StepDrawnRates(
            [RateSteps(np.random.default_rng(seed), m, n_segments)
             for seed, m in enumerate(sizes)],
            means, n_segments, cum, factors,
        )
        assert rates.shape == (sum(sizes), n_segments)
        for t in range(n_segments):
            assert _bits(rates[:, t]) == _bits(want[:, t])
        rates.finish()

    def test_pass_rates_serve_whole_columns_in_order(self):
        rates = StepDrawnRates(
            [RateSteps(np.random.default_rng(0), 3, 5)], np.full(3, 800.0), 5,
            np.cumsum(np.asarray(DEFAULT_TRANSITIONS), axis=1),
            np.asarray(DEFAULT_STATE_FACTORS),
        )
        rates[:, 0]
        for index in ((slice(None), 0), (slice(None), 2), (slice(1, None), 1)):
            with pytest.raises(IndexError, match="in order"):
                rates[index]
        rates[:, 1]
