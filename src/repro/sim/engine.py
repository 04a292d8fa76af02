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

Bit-identity rests on one block layout of the randomness (DESIGN.md
§9): each ``generate`` call consumes exactly one integer from the
shared stream, seeds one generator with it, and :class:`BlockDraws`
draws from that generator in a fixed order — every session's watch
normal, every session's join uniform, then per class (VOD, then live)
the transition uniforms and jitter factors of the class's surviving
rows as segment-major ``(T, m)`` blocks. The kernel and the reference
both read :class:`BlockDraws`'s arrays, so every random number lands in
the same place on either side.

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

    def __post_init__(self) -> None:
        for name in (
            "vod_video_s", "live_video_s", "watch_median_s", "segment_s",
            "startup_buffer_s", "max_join_time_s",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("watch_sigma", "join_overhead_per_factor_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


class BlockDraws:
    """All the randomness of one ``generate`` call, in its block layout.

    Consumes exactly one integer from the caller's ``rng`` (so the
    caller's stream position does not depend on the batch) and seeds
    one generator with it. The constructor draws the ``n`` watch
    normals, then the ``n`` join uniforms; :meth:`rate_blocks` then
    draws each class's blocks, in the order the classes are simulated.
    ``np.exp`` is applied here, once per block, and both the kernel and
    the per-session reference read the results, so no transcendental is
    evaluated on differently shaped inputs on the two sides.
    """

    def __init__(
        self, rng: np.random.Generator, n: int, params: MechanisticParams
    ) -> None:
        self._gen = np.random.default_rng(int(rng.integers(0, 2**63)))
        self.watch_s = np.exp(
            self._gen.normal(
                np.log(params.watch_median_s), params.watch_sigma, size=n
            )
        )
        self.join_u = self._gen.random(n)

    def rate_blocks(
        self, m: int, n_segments: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One class's transition uniforms and jitter factors.

        Both are drawn segment-major, as ``(n_segments, m)`` blocks, and
        returned as ``(m, n_segments)`` views: row ``i`` is the class's
        ``i``-th surviving session, and the lockstep kernel reads one
        contiguous block row per segment.
        """
        uniforms = self._gen.random((n_segments, m))
        jitter = self._gen.normal(0.0, DEFAULT_JITTER_SIGMA, size=(n_segments, m))
        np.exp(jitter, out=jitter)
        return uniforms.T, jitter.T


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
        self._cdn_fail = np.array([c.failure_prob for c in world.cdns])
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
        draws = BlockDraws(rng, n, self.params)
        shared = self._shared_inputs(codes, effects)
        params = self.params
        mean_bw, rtt, overhead = (
            shared["mean_bw"], shared["rtt"], shared["overhead"]
        )
        # The join check comes first, as in simulate_session; failed
        # rows draw no rate blocks, as in its early return.
        failed = draws.join_u < shared["fail_p"]
        eff = self._effective_ladders(
            codes[:, 2], effects.bitrate_cap_kbps, shared["k"]
        )
        live = codes[:, 3] != 0

        join_time = np.full(n, np.nan)
        played = np.zeros(n)
        raw_buffering = np.zeros(n)
        bitrate = np.full(n, np.nan)
        segments = 0

        # Live and VOD sessions have different segment grids, so each
        # class steps as its own lockstep group (ladders, watch limits,
        # RTTs stay per row inside the group). Merging the classes into
        # one ragged pass on the long grid is *slower*: the majority VOD
        # rows would pad every per-step array for the full live grid.
        # Each class's blocks are drawn just before it is simulated, so
        # only one class's blocks are alive at a time.
        for live_flag in (False, True):
            rows = np.flatnonzero((live == live_flag) & ~failed)
            if rows.size == 0:
                continue
            durations = self._segment_grids[live_flag]
            uniforms, rates = draws.rate_blocks(rows.size, durations.size)
            markov_rate_matrix(
                mean_bw[rows], uniforms, rates,
                self._mk_cum, self._mk_factors, initial_state=0, out=rates,
            )
            del uniforms  # dead once the rates are written: not held by the kernel
            result = simulate_batch(
                effective_ladders=eff[rows],
                segment_durations_s=durations,
                rates_kbps=rates,
                rtt_s=rtt[rows],
                watch_duration_s=draws.watch_s[rows],
                join_overhead_s=overhead[rows],
                startup_buffer_s=params.startup_buffer_s,
                max_join_time_s=params.max_join_time_s,
            )
            del rates
            segments += result.segments_downloaded
            join_time[rows] = result.join_time_s
            played[rows] = result.played_s
            raw_buffering[rows] = result.buffering_s
            bitrate[rows] = result.avg_bitrate_kbps
            failed[rows] |= result.failed

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
