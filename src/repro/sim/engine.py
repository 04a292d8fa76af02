"""Mechanistic QoE engine: the player simulation behind the
``QoEEngine`` interface.

Implements the same contract as
:class:`repro.trace.qoe.StatisticalQoEEngine` but derives every metric
from chunk-level playback dynamics. ``generate`` runs the lockstep
vectorized kernel (:mod:`repro.sim.batch`), which steps whole live/VOD
groups through segments together. Its semantics are those of
:func:`repro.sim.playback.simulate_session` run once per session; the
test suite keeps that per-session loop as the kernel's bit-for-bit
reference (``tests/sim/scalar_reference.py``).

Bit-identity rests on per-session RNG substreams (DESIGN.md §9): each
``generate`` call consumes exactly one draw from the shared stream to
seed a ``SeedSequence``, whose spawned children give every batch row
its own generator. The kernel and the reference consume each child in
the same blocked layout — watch draw, join uniform, transition
uniforms, jitter block — so every random number lands in the same
place on either side.

Event-effect mapping (documented in DESIGN.md):

* ``bandwidth_factor`` scales the session's mean link rate (organic:
  affects ABR choices, stalls and join time alike);
* ``join_failure_odds`` scales the CDN join-failure odds;
* ``join_time_factor`` scales the CDN RTT and adds fixed startup
  overhead (remote player-module loads);
* ``buffering_factor`` adds uniform extra stall time proportional to
  playback (a stand-in for pathologies the chunk model does not
  represent, e.g. mid-path congestion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import current_metrics
from repro.sim.bandwidth import (
    DEFAULT_JITTER_SIGMA,
    DEFAULT_STATE_FACTORS,
    DEFAULT_TRANSITIONS,
)
from repro.sim.batch import markov_rate_matrix, simulate_batch
from repro.sim.cdn import join_failure_probability
from repro.sim.segments import VideoManifest
from repro.trace.entities import CONNECTION_BANDWIDTH_KBPS, CONNECTION_TYPES, World
from repro.trace.qoe import EffectArrays, QoEBatch


@dataclass(frozen=True)
class MechanisticParams:
    """Knobs of the mechanistic engine."""

    vod_video_s: float = 300.0
    live_video_s: float = 1200.0
    watch_median_s: float = 240.0
    watch_sigma: float = 0.8
    segment_s: float = 4.0
    startup_buffer_s: float = 4.0
    join_overhead_per_factor_s: float = 0.8
    max_join_time_s: float = 60.0


class MechanisticQoEEngine:
    """Chunk-level implementation of the ``QoEEngine`` protocol."""

    def __init__(
        self,
        world: World,
        params: MechanisticParams | None = None,
    ) -> None:
        self.world = world
        self.params = params or MechanisticParams()
        self._conn_base = np.array(
            [CONNECTION_BANDWIDTH_KBPS[c] for c in CONNECTION_TYPES]
        )
        self._asn_quality = np.array([a.quality for a in world.asns])
        self._asn_region = world.region_of_asn
        self._cdn_quality = np.array([c.throughput_quality for c in world.cdns])
        self._cdn_coverage = np.array([c.region_coverage for c in world.cdns])
        self._cdn_rtt_s = np.array([c.base_rtt_ms / 1000.0 for c in world.cdns])
        # Join-failure probabilities floored at 1e-4: a zero would take
        # the no-draw shortcut in CDNServer.join_fails inside the
        # per-session reference (tests/sim/scalar_reference.py) and
        # desynchronise it from the kernel's pre-drawn join uniform.
        self._cdn_fail = np.array(
            [max(c.failure_prob, 1e-4) for c in world.cdns]
        )
        # Ladders padded to a rectangle with +inf (never chosen by ABR):
        # the per-(site, live) rung-cap table and the batch engine's
        # effective-ladder rows both index this.
        ladders = [np.asarray(s.ladder, dtype=np.float64) for s in world.sites]
        max_rungs = max(ladder.size for ladder in ladders)
        self._ladder_pad = np.full((len(ladders), max_rungs), np.inf)
        for i, ladder in enumerate(ladders):
            self._ladder_pad[i, : ladder.size] = ladder
        self._site_n_rungs = np.array([ladder.size for ladder in ladders])
        # Every site's videos share one segment grid per class (VOD,
        # live); only the ladders differ.
        self._segment_grids = {
            live: VideoManifest(
                ladder_kbps=world.sites[0].ladder,
                segment_duration_s=self.params.segment_s,
                total_duration_s=(
                    self.params.live_video_s if live else self.params.vod_video_s
                ),
            ).segment_durations_s
            for live in (False, True)
        }
        self._mk_cum = np.cumsum(np.asarray(DEFAULT_TRANSITIONS), axis=1)
        self._mk_factors = np.asarray(DEFAULT_STATE_FACTORS)

    # -- shared per-batch precomputation --------------------------------

    def _allowed_rungs(self, sites: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Rung-cap table: prefix length of each session's ladder.

        ``k[i]`` counts the rungs of site ``sites[i]`` at or under
        ``caps[i]`` (the +inf padding forces the min against the site's
        true rung count for uncapped sessions); ``k == 0`` marks
        cap-below-ladder sessions that get a synthetic single rung.
        """
        rows = self._ladder_pad[sites]
        return np.minimum(
            (rows <= caps[:, None]).sum(axis=1), self._site_n_rungs[sites]
        )

    def _effective_ladders(
        self, sites: np.ndarray, caps: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        """Per-session cap-limited ladder rows, padded with +inf."""
        eff = self._ladder_pad[sites].copy()
        cols = np.arange(eff.shape[1])
        eff[cols[None, :] >= k[:, None]] = np.inf
        capped_out = k == 0
        if capped_out.any():
            eff[capped_out, 0] = caps[capped_out]
        return eff

    def _session_streams(
        self, n: int, rng: np.random.Generator
    ) -> tuple[list[np.random.Generator], np.ndarray]:
        """Per-session substreams plus their watch-duration draws.

        Consumes exactly one integer from the shared ``rng`` (keeping
        the caller's stream position independent of ``n``), then seeds
        one child generator per batch row. The watch draw is each
        child's first block.
        """
        entropy = int(rng.integers(0, 2**63))
        children = np.random.SeedSequence(entropy).spawn(n)
        gens = [
            np.random.Generator(np.random.PCG64(child)) for child in children
        ]
        params = self.params
        log_median = np.log(params.watch_median_s)
        watch = np.empty(n)
        for i, gen in enumerate(gens):
            watch[i] = gen.normal(log_median, params.watch_sigma)
        # One vectorized exp over the normals: the kernel and the
        # per-session reference read the same array, so the
        # scalar-vs-SIMD transcendental concern does not apply here.
        return gens, np.exp(watch)

    def _shared_inputs(
        self, codes: np.ndarray, effects: EffectArrays
    ) -> dict[str, np.ndarray]:
        """Vectorized per-session quantities the kernel (and the tests'
        per-session reference) read."""
        asn, cdn = codes[:, 0], codes[:, 1]
        region = self._asn_region[asn]
        coverage = self._cdn_coverage[cdn, region]
        mean_bw = (
            self._conn_base[codes[:, 6]]
            * self._asn_quality[asn]
            * self._cdn_quality[cdn]
            * coverage
            * effects.bandwidth_factor
        )
        jt_factor = effects.join_time_factor
        rtt = self._cdn_rtt_s[cdn] * jt_factor / np.maximum(coverage, 0.2)
        overhead = self.params.join_overhead_per_factor_s * np.maximum(
            jt_factor - 1.0, 0.0
        )
        fail_p = join_failure_probability(
            self._cdn_fail[cdn], effects.join_failure_odds
        )
        k = self._allowed_rungs(codes[:, 2], effects.bitrate_cap_kbps)
        return dict(
            mean_bw=mean_bw, rtt=rtt, overhead=overhead, fail_p=fail_p, k=k
        )

    # -- generate -------------------------------------------------------

    def generate(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> QoEBatch:
        n = codes.shape[0]
        metrics = current_metrics()
        metrics.inc("generate.sessions", n)
        gens, watch = self._session_streams(n, rng)
        shared = self._shared_inputs(codes, effects)
        params = self.params
        mean_bw, rtt, overhead, fail_p, k = (
            shared["mean_bw"], shared["rtt"], shared["overhead"],
            shared["fail_p"], shared["k"],
        )

        # Join check first — each child's second draw, matching
        # simulate_session, which draws it before the rate path. Failed
        # rows consume nothing further, as in its early return.
        u_join = np.empty(n)
        for i, gen in enumerate(gens):
            u_join[i] = gen.random()
        failed = u_join < fail_p

        eff = self._effective_ladders(
            codes[:, 2], effects.bitrate_cap_kbps, k
        )
        live = codes[:, 3] != 0

        join_time = np.full(n, np.nan)
        played = np.zeros(n)
        raw_buffering = np.zeros(n)
        bitrate = np.full(n, np.nan)
        segments = 0

        def run_group(
            rows: np.ndarray,
            durations: np.ndarray,
            n_seg_row: np.ndarray | None,
        ) -> None:
            """One lockstep pass over ``rows`` on the ``durations`` grid."""
            nonlocal segments
            m = rows.size
            if m == 0:
                return
            n_segments = durations.size
            # Each row's rate-path blocks are drawn with its *own*
            # segment count, exactly as simulate_session's sample_path
            # call; ragged rows leave neutral filler (state-0 uniforms,
            # unit jitter) in the columns they never reach.
            if n_seg_row is None:
                uniforms = np.empty((m, n_segments))
                jitter = np.empty((m, n_segments))
                for r, i in enumerate(rows):
                    gen = gens[i]
                    uniforms[r] = gen.random(n_segments)
                    jitter[r] = np.exp(
                        gen.normal(0.0, DEFAULT_JITTER_SIGMA, size=n_segments)
                    )
            else:
                uniforms = np.zeros((m, n_segments))
                jitter = np.ones((m, n_segments))
                for r, i in enumerate(rows):
                    gen = gens[i]
                    t_i = int(n_seg_row[r])
                    uniforms[r, :t_i] = gen.random(t_i)
                    jitter[r, :t_i] = np.exp(
                        gen.normal(0.0, DEFAULT_JITTER_SIGMA, size=t_i)
                    )
            rates = markov_rate_matrix(
                mean_bw[rows], uniforms, jitter,
                self._mk_cum, self._mk_factors, initial_state=0,
            )
            result = simulate_batch(
                effective_ladders=eff[rows],
                segment_durations_s=durations,
                rates_kbps=rates,
                rtt_s=rtt[rows],
                watch_duration_s=watch[rows],
                join_overhead_s=overhead[rows],
                n_segments_per_row=n_seg_row,
                startup_buffer_s=params.startup_buffer_s,
                max_join_time_s=params.max_join_time_s,
            )
            segments += result.segments_downloaded
            join_time[rows] = result.join_time_s
            played[rows] = result.played_s
            raw_buffering[rows] = result.buffering_s
            bitrate[rows] = result.avg_bitrate_kbps
            failed[rows] |= result.failed

        # Ragged batches: live and VOD sessions have different segment
        # grids, so each class steps as its own lockstep group (ladders,
        # watch limits, RTTs stay per-row inside the group). Merging the
        # classes into one ragged pass on the long grid is *slower*:
        # the majority VOD rows would pad every per-step array for the
        # full live grid, trading a few ufunc dispatches for ~2.5x the
        # element work.
        for live_flag in (False, True):
            rows = np.flatnonzero((live == live_flag) & ~failed)
            run_group(rows, self._segment_grids[live_flag], None)

        ok = ~failed
        extra = 0.02 * np.maximum(effects.buffering_factor - 1.0, 0.0)
        stall = np.minimum(
            raw_buffering + extra * played,
            np.maximum(played * 0.85, raw_buffering),
        )
        batch = QoEBatch(
            duration_s=np.where(ok, played + stall, 0.0),
            buffering_s=np.where(ok, stall, 0.0),
            join_time_s=np.where(ok, join_time, np.nan),
            bitrate_kbps=np.where(ok, bitrate, np.nan),
            join_failed=failed,
        )
        metrics.inc("generate.segments", segments)
        return batch
