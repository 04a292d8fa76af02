"""Mechanistic QoE engine: the player simulation behind the
``QoEEngine`` interface.

Implements the same contract as
:class:`repro.trace.qoe.StatisticalQoEEngine` but derives every metric
from chunk-level playback dynamics, in two phases (DESIGN.md §9).
:meth:`~MechanisticQoEEngine.prepare` runs per epoch, in the caller's
stream order, and simulates nothing; :meth:`~MechanisticQoEEngine.simulate`
then runs the lockstep vectorized kernel (:mod:`repro.sim.batch`) once
per class over a *pass* of consecutive prepared epochs, their rows end
to end. Its semantics are those of
:func:`repro.sim.playback.simulate_session` run once per session; the
test suite keeps that per-session loop as the kernel's bit-for-bit
reference (``tests/sim/scalar_reference.py``).

Bit-identity rests on one block layout of the randomness: each epoch's
preparation consumes exactly one integer from the shared stream and
seeds one generator with it, and :class:`BlockDraws` draws from that
generator in a fixed order — every session's watch normal, every
session's join uniform, then per class (VOD, then live) the transition
uniforms and jitter normals of the class's surviving rows as
segment-major ``(T, m)`` blocks. Those blocks are never held:
:class:`RateSteps` draws row ``t`` of both when the kernel reaches step
``t`` (the jitter block read from a copy of the generator advanced past
the uniforms), and :class:`StepDrawnRates` turns a pass's step into
rates. The reference draws through the same :class:`RateSteps`, so every
random number lands in the same place on either side, and the engine's
memory is O(rows of a pass), whatever the segment grids.

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

import copy
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.obs import current_metrics
from repro.sim.bandwidth import (
    DEFAULT_JITTER_SIGMA,
    DEFAULT_STATE_FACTORS,
    DEFAULT_TRANSITIONS,
    markov_rates_step,
)
from repro.sim.batch import simulate_batch
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
    """All the randomness of one epoch, in its block layout.

    Consumes exactly one integer from the caller's ``rng`` (so the
    caller's stream position does not depend on the batch) and seeds
    one generator with it. The constructor draws the ``n`` watch
    normals, then the ``n`` join uniforms; :meth:`rate_steps` then
    serves each class's blocks, in the order the classes are simulated.
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

    def rate_steps(self, m: int, n_segments: int) -> "RateSteps":
        """The next class's ``m`` rows of blocks, served a step at a time.

        The returned :class:`RateSteps` must be finished before the next
        class's are asked for: its jitter generator then stands where
        the next class's blocks begin, and it becomes this epoch's.
        """
        steps = RateSteps(self._gen, m, n_segments)
        self._gen = steps.normals
        return steps


class RateSteps:
    """One class's transition uniforms and jitter factors, a step at a time.

    The block layout draws the class's ``(n_segments, m)`` uniforms,
    then its ``(n_segments, m)`` jitter normals, segment-major. Here
    ``gen`` stands at the uniform block, and a copy of it advanced past
    that block's ``n_segments * m`` draws (``random`` takes one 64-bit
    draw per double, so the position is exact) stands at the jitter
    block. Step ``t`` then reads row ``t`` of both blocks, and no array
    with a segment dimension is held.
    """

    def __init__(self, gen: np.random.Generator, m: int, n_segments: int) -> None:
        bits = copy.deepcopy(gen.bit_generator)
        if not hasattr(bits, "advance"):
            raise TypeError(
                f"{type(bits).__name__} cannot advance: step-drawn rates "
                "need a bit generator that jumps over the uniform block"
            )
        bits.advance(n_segments * m)
        self._uniforms = gen
        #: Positioned at the jitter block; after :meth:`finish`, past it.
        self.normals = np.random.Generator(bits)
        self.m = m
        self._left = n_segments

    def draw(self, uniforms: np.ndarray, normals: np.ndarray) -> None:
        """The next step's ``m`` transition uniforms and ``m`` jitter
        normals ``sigma * z``: bit for bit ``normal(0, sigma)``, which
        numpy computes as ``0 + sigma * z`` (``sigma`` is
        :data:`DEFAULT_JITTER_SIGMA`)."""
        if self._left == 0:
            raise IndexError("every step of the class's blocks was drawn")
        self._left -= 1
        self._uniforms.random(out=uniforms)
        self.normals.standard_normal(out=normals)
        np.multiply(normals, DEFAULT_JITTER_SIGMA, out=normals)

    def step(self, uniforms: np.ndarray, jitter: np.ndarray) -> None:
        """:meth:`draw`, then the jitter factors ``exp(sigma * z)``.

        ``exp`` runs over this (epoch, step) slice alone, so the kernel
        and the per-session reference, which both step through here,
        evaluate it on the same shapes (DESIGN.md §9).
        """
        self.draw(uniforms, jitter)
        np.exp(jitter, out=jitter)

    def finish(self) -> np.random.Generator:
        """Draw and discard the jitter normals of the steps not served
        (the kernel stops once every row is done); return the generator,
        now past both blocks."""
        if self._left:
            scratch = np.empty(self.m)
            for _ in range(self._left):
                self.normals.standard_normal(out=scratch)
            self._left = 0
        return self.normals


class StepDrawnRates:
    """One class's ``(m, T)`` rates over a pass, served a column at a time.

    ``parts`` are the pass's epochs' :class:`RateSteps`, their rows laid
    end to end. Reading column ``t`` (``rates[:, t]``, in order only)
    draws step ``t`` of every part into one step vector and takes one
    Markov step over all ``m`` rows (:func:`markov_rates_step`, each
    chain starting in state 0); the returned rates are valid until the
    next column is read. :func:`simulate_batch` reads its rates this
    way, so this stands in for a rate matrix and no segment-sized block
    is ever drawn. :meth:`finish` then discards what was not served.
    """

    def __init__(
        self,
        parts: list[RateSteps],
        mean_kbps: np.ndarray,
        n_segments: int,
        cum_transitions: np.ndarray,
        state_factors: np.ndarray,
    ) -> None:
        m = mean_kbps.size
        self.shape = (m, n_segments)
        bounds = np.cumsum([0] + [part.m for part in parts]).tolist()
        self._parts = list(zip(parts, bounds[:-1], bounds[1:]))
        self._mean = mean_kbps
        self._cum = cum_transitions
        self._factors = state_factors
        self._states = np.zeros(m, dtype=np.intp)
        self._uniforms = np.empty(m)
        self._jitter = np.empty(m)
        self._rates = np.empty(m)
        self._next = 0

    def __getitem__(self, index: tuple) -> np.ndarray:
        rows, t = index
        if rows != slice(None) or t != self._next:
            raise IndexError("step-drawn rates serve whole columns, in order")
        for part, lo, hi in self._parts:
            part.step(self._uniforms[lo:hi], self._jitter[lo:hi])
        self._states = markov_rates_step(
            self._mean, self._states, self._uniforms, self._jitter,
            self._cum, self._factors, out=self._rates,
        )
        self._next += 1
        return self._rates

    def finish(self) -> None:
        for part, _, _ in self._parts:
            part.finish()


@dataclass
class PreparedEpoch:
    """One epoch's phase-1 state. ``inputs`` holds the per-session
    kernel inputs (the shared inputs, the watch limits and the
    effective ladders); ``draws`` has drawn the watch and join draws,
    not yet the rate blocks."""

    codes: np.ndarray
    effects: EffectArrays
    draws: BlockDraws
    inputs: dict[str, np.ndarray]
    failed: np.ndarray

    def __len__(self) -> int:
        return self.codes.shape[0]


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

    # -- generate: phase 1 per epoch, phase 2 per pass -------------------

    def prepare(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> PreparedEpoch:
        """Phase 1: consume one integer of the caller's stream and make
        every per-session input of the epoch; simulate nothing."""
        current_metrics().inc("generate.sessions", codes.shape[0])
        draws = BlockDraws(rng, codes.shape[0], self.params)
        inputs = self._shared_inputs(codes, effects)
        inputs["watch"] = draws.watch_s
        inputs["ladders"] = self._effective_ladders(
            codes[:, 2], effects.bitrate_cap_kbps, inputs["k"]
        )
        # The join check comes first, as in simulate_session; failed
        # rows draw no rate blocks, as in its early return.
        failed = draws.join_u < inputs["fail_p"]
        return PreparedEpoch(codes, effects, draws, inputs, failed)

    def simulate(self, prepared: Sequence[PreparedEpoch]) -> list[QoEBatch]:
        """Phase 2: one lockstep kernel call per class over the pass.

        Live and VOD sessions have different segment grids, so each
        class steps as its own lockstep group, VOD first (the block
        layout's order); its rows are the surviving rows of every
        epoch of the pass, end to end, and each epoch's rates are
        drawn from its own generator (:class:`StepDrawnRates`).
        Merging the classes into one ragged pass on the long grid is
        *slower*: the majority VOD rows would pad every per-step array
        for the full live grid.
        """
        params = self.params
        outcomes = [
            dict(
                join_time=np.full(len(p), np.nan),
                played=np.zeros(len(p)),
                raw_buffering=np.zeros(len(p)),
                bitrate=np.full(len(p), np.nan),
                failed=p.failed.copy(),
            )
            for p in prepared
        ]
        segments = 0
        for live_flag in (False, True):
            rows = [
                np.flatnonzero(((p.codes[:, 3] != 0) == live_flag) & ~p.failed)
                for p in prepared
            ]
            members = [
                (p, r, out) for p, r, out in zip(prepared, rows, outcomes) if r.size
            ]
            if not members:
                continue
            durations = self._segment_grids[live_flag]

            def gather(name: str) -> np.ndarray:
                """One kernel input over the pass's rows, end to end."""
                return np.concatenate([p.inputs[name][r] for p, r, _ in members])

            rates = StepDrawnRates(
                [p.draws.rate_steps(r.size, durations.size) for p, r, _ in members],
                gather("mean_bw"),
                durations.size,
                self._mk_cum,
                self._mk_factors,
            )
            result = simulate_batch(
                effective_ladders=gather("ladders"),
                segment_durations_s=durations,
                rates_kbps=rates,
                rtt_s=gather("rtt"),
                watch_duration_s=gather("watch"),
                join_overhead_s=gather("overhead"),
                startup_buffer_s=params.startup_buffer_s,
                max_join_time_s=params.max_join_time_s,
            )
            rates.finish()
            segments += result.segments_downloaded
            lo = 0
            for _, r, out in members:
                hi = lo + r.size
                out["join_time"][r] = result.join_time_s[lo:hi]
                out["played"][r] = result.played_s[lo:hi]
                out["raw_buffering"][r] = result.buffering_s[lo:hi]
                out["bitrate"][r] = result.avg_bitrate_kbps[lo:hi]
                out["failed"][r] |= result.failed[lo:hi]
                lo = hi
        current_metrics().inc("generate.segments", segments)
        return [
            self._batch(p.effects, **out) for p, out in zip(prepared, outcomes)
        ]

    @staticmethod
    def _batch(
        effects: EffectArrays,
        join_time: np.ndarray,
        played: np.ndarray,
        raw_buffering: np.ndarray,
        bitrate: np.ndarray,
        failed: np.ndarray,
    ) -> QoEBatch:
        ok = ~failed
        extra = 0.02 * np.maximum(effects.buffering_factor - 1.0, 0.0)
        stall = np.minimum(
            raw_buffering + extra * played,
            np.maximum(played * 0.85, raw_buffering),
        )
        return QoEBatch(
            duration_s=np.where(ok, played + stall, 0.0),
            buffering_s=np.where(ok, stall, 0.0),
            join_time_s=np.where(ok, join_time, np.nan),
            bitrate_kbps=np.where(ok, bitrate, np.nan),
            join_failed=failed,
        )

    def generate(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> QoEBatch:
        """One epoch: its preparation, simulated as a pass of one."""
        return self.simulate([self.prepare(codes, effects, rng)])[0]
