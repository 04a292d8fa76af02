"""Unit tests for the lockstep batch kernels (``repro.sim.batch``).

The batch engine's end-to-end bit-identity lives in
``tests/property/test_sim_batch_equivalence.py``; these tests pin down
each vectorized kernel in isolation — degenerate shapes (empty batch,
one-segment grids), the join forced on the last segment, the
join-timeout and watch-limit exits, and the hand-checkable
single-session arithmetic.
"""

import numpy as np
import pytest

from repro.sim.bandwidth import (
    DEFAULT_JITTER_SIGMA,
    DEFAULT_STATE_FACTORS,
    DEFAULT_TRANSITIONS,
    MarkovBandwidth,
)
from repro.sim.batch import (
    BatchPlaybackResult,
    markov_rate_matrix,
    simulate_batch,
)
from repro.sim.playback import simulate_session
from repro.sim.playerbuffer import BatchPlayerBuffer, PlayerBuffer
from repro.sim.abr import RateBasedABR
from repro.sim.cdn import CDNServer
from repro.sim.segments import VideoManifest


CUM = np.cumsum(np.asarray(DEFAULT_TRANSITIONS), axis=1)
FACTORS = np.asarray(DEFAULT_STATE_FACTORS)


def run_batch(ladders, durations, rates, **kwargs):
    m = np.asarray(ladders).shape[0]
    defaults = dict(
        rtt_s=np.full(m, 0.05),
        watch_duration_s=np.full(m, 600.0),
        join_overhead_s=np.zeros(m),
    )
    defaults.update(kwargs)
    return simulate_batch(
        effective_ladders=np.asarray(ladders, dtype=np.float64),
        segment_durations_s=np.asarray(durations, dtype=np.float64),
        rates_kbps=np.asarray(rates, dtype=np.float64),
        **defaults,
    )


class TestMarkovRateMatrix:
    def test_matches_scalar_sample_path(self):
        """Row i of the matrix == sample_path driven by the same draws."""
        n, means = 120, np.array([800.0, 5000.0, 20000.0])
        uniforms = np.empty((3, n))
        jitter = np.empty((3, n))
        expected = np.empty((3, n))
        for i, mean in enumerate(means):
            rng = np.random.default_rng(100 + i)
            expected[i] = MarkovBandwidth(
                mean, rng, initial_state=0
            ).sample_path(n)
            rng = np.random.default_rng(100 + i)
            uniforms[i] = rng.random(n)
            jitter[i] = np.exp(rng.normal(0.0, DEFAULT_JITTER_SIGMA, size=n))
        rates = markov_rate_matrix(means, uniforms, jitter, CUM, FACTORS)
        assert np.array_equal(rates, expected)

    def test_empty_batch(self):
        rates = markov_rate_matrix(
            np.empty(0), np.empty((0, 5)), np.empty((0, 5)), CUM, FACTORS
        )
        assert rates.shape == (0, 5)

    def test_floor_at_one_kbps(self):
        rates = markov_rate_matrix(
            np.array([1e-6]), np.full((1, 4), 0.99), np.ones((1, 4)),
            CUM, FACTORS,
        )
        assert np.all(rates == 1.0)


class TestBatchPlayerBuffer:
    def test_mirrors_scalar_buffer(self):
        rng = np.random.default_rng(0)
        scalar = PlayerBuffer(capacity_s=20.0)
        scalar.start_playback()
        batch = BatchPlayerBuffer(1, capacity_s=20.0)
        mask = np.array([True])
        for _ in range(200):
            add = float(rng.uniform(0.0, 6.0))
            drain = float(rng.uniform(0.0, 6.0))
            scalar.add(add)
            batch.add(add, mask)
            s_stall = scalar.drain(drain)
            b_stall = batch.drain(np.array([drain]), mask)
            assert b_stall[0] == s_stall
            assert batch.level_s[0] == scalar.level_s
        assert batch.total_stall_s[0] == scalar.total_stall_s

    def test_masked_rows_untouched(self):
        batch = BatchPlayerBuffer(2)
        batch.add(5.0, np.array([True, False]))
        stall = batch.drain(np.array([8.0, 8.0]), np.array([True, False]))
        assert batch.level_s[1] == 0.0
        assert stall[1] == 0.0
        assert batch.total_stall_s[1] == 0.0
        assert stall[0] == 3.0

    def test_capacity_clamp(self):
        batch = BatchPlayerBuffer(1, capacity_s=10.0)
        batch.add(25.0, np.array([True]))
        assert batch.level_s[0] == 10.0


class TestSimulateBatchShapes:
    def test_empty_batch(self):
        result = run_batch(
            np.empty((0, 2)), [4.0, 4.0], np.empty((0, 2))
        )
        assert isinstance(result, BatchPlaybackResult)
        assert len(result) == 0
        assert result.segments_downloaded == 0

    def test_one_segment_grid(self):
        """One 4 s segment at 2000 kbps: the session must join on it
        (last-segment forcing) and drain the single banked segment."""
        result = run_batch(
            [[500.0, 1500.0]], [4.0], [[2000.0]],
            watch_duration_s=np.array([300.0]),
        )
        assert not result.failed[0]
        # est starts from the instantaneous throughput: rung 1 fits
        # (1500 <= 0.85 * 2000), size = 4 * 1500, dl = rtt + size/rate.
        expected_dl = 0.05 + 4.0 * 1500.0 / 2000.0
        assert result.join_time_s[0] == expected_dl
        assert result.played_s[0] == 4.0  # the banked segment drains
        assert result.buffering_s[0] == 0.0
        assert result.avg_bitrate_kbps[0] == 1500.0  # startup-rung fallback
        assert result.segments_downloaded == 1

    def test_last_segment_forces_the_join(self):
        """Two 4 s segments never fill a 10 s startup buffer: the
        session joins on its last segment and drains both."""
        result = run_batch(
            [[500.0]], [4.0, 4.0], [[2000.0, 2000.0]],
            watch_duration_s=np.array([300.0]), startup_buffer_s=10.0,
        )
        assert not result.failed[0]
        dl = 0.05 + 4.0 * 500.0 / 2000.0
        assert result.join_time_s[0] == dl + dl
        assert result.played_s[0] == 8.0
        assert result.avg_bitrate_kbps[0] == 500.0
        assert result.segments_downloaded == 2

    def test_join_timeout_marks_failed(self):
        result = run_batch(
            [[500.0]], [4.0] * 10, np.full((1, 10), 10.0),
            max_join_time_s=30.0,
        )
        # 4 s segments at 500 kbps over a 10 kbps link: the first
        # download alone takes ~200 s > 30 s.
        assert result.failed[0]
        assert np.isnan(result.join_time_s[0])

    def test_watch_limit_stops_early(self):
        long_grid = [4.0] * 100
        result = run_batch(
            [[500.0]], long_grid, np.full((1, 100), 5000.0),
            watch_duration_s=np.array([20.0]),
        )
        assert not result.failed[0]
        # Played wall time is bounded by watch + one final buffer drain.
        assert result.played_s[0] <= 20.0 + 60.0
        assert result.segments_downloaded < 100


class TestSimulateBatchValidation:
    def test_rates_shape_checked(self):
        with pytest.raises(ValueError, match="rates_kbps"):
            run_batch([[500.0]], [4.0, 4.0], [[1000.0]])

    def test_watch_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            run_batch(
                [[500.0]], [4.0], [[1000.0]],
                watch_duration_s=np.array([np.inf]),
            )

    def test_startup_buffer_positive(self):
        with pytest.raises(ValueError, match="startup_buffer_s"):
            run_batch(
                [[500.0]], [4.0], [[1000.0]], startup_buffer_s=0.0
            )


class TestAgainstScalarLoop:
    def test_single_session_matches_simulate_session(self):
        """Kernel vs the reference loop, outside the engine: same
        pre-drawn rate path, same parameters, equal outputs bit for bit."""
        manifest = VideoManifest(
            ladder_kbps=(300.0, 800.0, 2000.0, 4500.0),
            segment_duration_s=4.0,
            total_duration_s=120.0,
        )
        for seed in range(8):
            rng = np.random.default_rng(seed)
            bandwidth = MarkovBandwidth(6000.0, rng, initial_state=0)
            server = CDNServer(
                name="edge", rtt_s=0.08, failure_prob=1e-4,
                throughput_cap_kbps=1e9,
            )
            scalar = simulate_session(
                manifest=manifest,
                abr=RateBasedABR(),
                bandwidth=bandwidth,
                server=server,
                rng=rng,
                watch_duration_s=90.0,
            )
            # Batch twin: consume the same substream in the same blocked
            # layout (join uniform, transition uniforms, jitter block).
            rng = np.random.default_rng(seed)
            u_join = rng.random()
            n = manifest.n_segments
            uniforms = rng.random(n)[None, :]
            jitter = np.exp(
                rng.normal(0.0, DEFAULT_JITTER_SIGMA, size=n)
            )[None, :]
            rates = markov_rate_matrix(
                np.array([6000.0]), uniforms, jitter, CUM, FACTORS
            )
            # The engine draws the join failure before the kernel and
            # passes surviving sessions only.
            p = 1e-4
            join_failed = u_join < p / (1.0 - p) / (1.0 + p / (1.0 - p))
            assert join_failed == scalar.failed
            if join_failed:
                continue
            result = simulate_batch(
                effective_ladders=np.array(
                    [[300.0, 800.0, 2000.0, 4500.0]]
                ),
                segment_durations_s=manifest.segment_durations_s,
                rates_kbps=rates,
                rtt_s=np.array([0.08]),
                watch_duration_s=np.array([90.0]),
                join_overhead_s=np.array([0.0]),
            )
            assert result.failed[0] == scalar.failed
            assert result.join_time_s[0] == scalar.join_time_s
            assert result.played_s[0] == scalar.played_s
            assert result.buffering_s[0] == scalar.buffering_s
            assert result.avg_bitrate_kbps[0] == scalar.avg_bitrate_kbps
            assert result.segments_downloaded == scalar.segments_downloaded
