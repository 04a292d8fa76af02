"""Per-session reference for the mechanistic engine's batch kernel.

:class:`ScalarReferenceEngine` is a :class:`MechanisticQoEEngine` whose
phase 2, ``simulate``, runs :func:`repro.sim.playback.simulate_session`
once per row, one epoch at a time — the readable semantics the lockstep
kernel (``repro.sim.batch``) re-expresses over a pass of epochs. It
replays the engine's own draws: phase 1 (``prepare``: the
:class:`~repro.sim.engine.BlockDraws` from the caller's stream and the
shared inputs) is the engine's, so the kernel must match it bit for bit.

Each session gets its join uniform (its own ``CDNServer.join_fails``
decides failure, inside ``simulate_session``) and its row of its
class's transition uniforms and jitter factors, which
:meth:`MarkovBandwidth.path` turns into its rate path. Those rows come
from the engine's per-step helper, :class:`~repro.sim.engine.RateSteps`,
stepped through the whole grid over this one epoch's rows (so ``exp``
runs on the same (epoch, step) slices as in the kernel), in the
engine's order: VOD rows, then live rows, each for the class's sessions
that survive the join check.

Trace-level tests swap it in with ``monkeypatch.setattr(
repro.sim.engine, "MechanisticQoEEngine", ScalarReferenceEngine)``:
``generate_trace`` imports the engine class at call time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sim.abr import FixedBitrateABR, RateBasedABR
from repro.sim.bandwidth import MarkovBandwidth
from repro.sim.cdn import CDNServer
from repro.sim.engine import MechanisticQoEEngine, PreparedEpoch, RateSteps
from repro.sim.playback import simulate_session
from repro.sim.segments import VideoManifest
from repro.trace.qoe import QoEBatch


class _JoinDraw:
    """A session's generator as ``simulate_session`` uses it: the join
    check's one uniform, and nothing else."""

    def __init__(self, u: float) -> None:
        self._u = u

    def random(self) -> float:
        return self._u


class _ReplayedBandwidth(MarkovBandwidth):
    """A Markov link whose ``sample_path`` replays pre-drawn blocks."""

    def __init__(
        self, mean_kbps: float, uniforms: np.ndarray, jitter: np.ndarray
    ) -> None:
        super().__init__(mean_kbps, rng=None, initial_state=0)
        self._blocks = (uniforms, jitter)

    def sample_path(self, n: int) -> np.ndarray:
        uniforms, jitter = self._blocks
        if len(uniforms) != n:
            raise AssertionError(f"replayed {len(uniforms)} segments, wanted {n}")
        return self.path(uniforms, jitter)


class ScalarReferenceEngine(MechanisticQoEEngine):
    """The mechanistic engine with one Python loop per session."""

    def __init__(self, world, params=None) -> None:
        super().__init__(world, params)
        self._manifest_cache: dict[tuple, VideoManifest] = {}

    def _capped_manifest(
        self, site_idx: int, live: bool, k: int, cap: float
    ) -> VideoManifest:
        """The site's video cut to the first ``k`` rungs of its ladder.

        Ladders ascend, so any bitrate cap keeps a prefix; a cap below
        the lowest rung (``k == 0``) serves a single synthetic rung at
        the cap rate. Manifests are cached: each caches its own segment
        tables.
        """
        key = (site_idx, live, k, cap if k == 0 else None)
        cache = self._manifest_cache
        if key not in cache:
            params = self.params
            cache[key] = VideoManifest(
                ladder_kbps=(
                    self.world.sites[site_idx].ladder[:k] if k > 0 else (cap,)
                ),
                segment_duration_s=params.segment_s,
                total_duration_s=(
                    params.live_video_s if live else params.vod_video_s
                ),
            )
        return cache[key]

    def simulate(self, prepared: Sequence[PreparedEpoch]) -> list[QoEBatch]:
        return [self._simulate_epoch(p) for p in prepared]

    def _simulate_epoch(self, prepared: PreparedEpoch) -> QoEBatch:
        codes, effects, draws = prepared.codes, prepared.effects, prepared.draws
        inputs = prepared.inputs
        mean_bw, rtt, overhead, k = (
            inputs["mean_bw"], inputs["rtt"], inputs["overhead"], inputs["k"]
        )
        n = len(prepared)
        params = self.params
        duration = np.zeros(n)
        buffering = np.zeros(n)
        join_time = np.full(n, np.nan)
        bitrate = np.full(n, np.nan)
        failed = np.zeros(n, dtype=bool)

        servers = []
        for i in range(n):
            cdn_idx = int(codes[i, 1])
            servers.append(CDNServer(
                name=self.world.cdns[cdn_idx].name,
                rtt_s=float(rtt[i]),
                failure_prob=float(self._cdn_fail[cdn_idx]),
                throughput_cap_kbps=1e9,
            ))
        joins = [_JoinDraw(float(u)) for u in draws.join_u]
        survives = [
            not servers[i].join_fails(
                joins[i], odds_multiplier=float(effects.join_failure_odds[i])
            )
            for i in range(n)
        ]

        no_draws = np.empty(0)
        for live in (False, True):
            rows = [i for i in range(n) if bool(codes[i, 3]) == live]
            n_survivors = sum(survives[i] for i in rows)
            if n_survivors:
                n_segments = self._segment_grids[live].size
                uniforms, jitter = _rate_rows(
                    draws.rate_steps(n_survivors, n_segments), n_segments
                )
            r = 0
            for i in rows:
                # A failed join must return before its rate path is
                # read: an empty block would fail the replay's check.
                blocks = (uniforms[r], jitter[r]) if survives[i] else (
                    no_draws, no_draws
                )
                r += survives[i]
                manifest = self._capped_manifest(
                    int(codes[i, 2]), live, int(k[i]),
                    float(effects.bitrate_cap_kbps[i]),
                )
                abr = (
                    FixedBitrateABR(rung=0)
                    if manifest.n_rungs == 1
                    else RateBasedABR()
                )
                result = simulate_session(
                    manifest=manifest,
                    abr=abr,
                    bandwidth=_ReplayedBandwidth(float(mean_bw[i]), *blocks),
                    server=servers[i],
                    rng=joins[i],
                    watch_duration_s=float(draws.watch_s[i]),
                    startup_buffer_s=params.startup_buffer_s,
                    failure_odds=float(effects.join_failure_odds[i]),
                    join_overhead_s=float(overhead[i]),
                    max_join_time_s=params.max_join_time_s,
                )
                if result.failed:
                    failed[i] = True
                    continue
                extra = 0.02 * max(effects.buffering_factor[i] - 1.0, 0.0)
                stall = min(
                    result.buffering_s + extra * result.played_s,
                    max(result.played_s * 0.85, result.buffering_s),
                )
                duration[i] = result.played_s + stall
                buffering[i] = stall
                join_time[i] = result.join_time_s
                bitrate[i] = result.avg_bitrate_kbps

        return QoEBatch(
            duration_s=duration,
            buffering_s=buffering,
            join_time_s=join_time,
            bitrate_kbps=bitrate,
            join_failed=failed,
        )


def _rate_rows(
    steps: RateSteps, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """All ``n_steps`` steps of one class's draws for one epoch, as
    ``(m, T)`` rows of transition uniforms and jitter factors (views of
    ``(T, m)`` arrays filled one step row at a time)."""
    uniforms = np.empty((n_steps, steps.m))
    jitter = np.empty((n_steps, steps.m))
    for t in range(n_steps):
        steps.step(uniforms[t], jitter[t])
    steps.finish()
    return uniforms.T, jitter.T
