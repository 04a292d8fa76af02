"""Statistical QoE engine: attribute codes + event effects -> metrics.

This engine turns a batch of sampled sessions into the four quality
measurements via a parametric model of the delivery path:

* effective bandwidth = access-technology base rate x ASN quality x CDN
  throughput x CDN regional coverage x lognormal churn x event factor;
* average bitrate = the highest ladder rung under an ABR safety margin
  of the bandwidth (lowest rung when even that does not fit) — matching
  how rate-adaptation picks a sustainable rate;
* buffering ratio grows quadratically with "stress" (chosen bitrate vs
  sustainable rate) with lognormal noise;
* join time = CDN RTT-driven base x heavy lognormal tail;
* join failure = odds-scaled Bernoulli seeded by CDN failure rates and
  coverage gaps.

The constants are calibrated so the *baseline* (event-free) trace shows
the paper's Figure 1 shape: ~5% of sessions over 5% buffering ratio,
~5% of join times over 10 s, ~80% of bitrates under 2 Mbps, and a low
percent of join failures; planted events then concentrate extra
problem mass on their attribute combinations.

A mechanistic alternative backed by the chunk-level player simulation
lives in :mod:`repro.sim.engine`; both implement ``QoEEngine``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from repro.obs import current_metrics
from repro.trace.entities import (
    CONNECTION_BANDWIDTH_KBPS,
    CONNECTION_TYPES,
    REGIONS,
    World,
)

#: ABR safety margin: players pick a rung at most this fraction of the
#: estimated bandwidth.
ABR_SAFETY_MARGIN = 0.85

#: Cap on buffering ratio (a player past this abandons rather than
#: stalls forever).
MAX_BUFFERING_RATIO = 0.85


@dataclass
class EffectArrays:
    """Per-session multiplicative event effects (all shape (n,))."""

    bandwidth_factor: np.ndarray
    bitrate_cap_kbps: np.ndarray
    buffering_factor: np.ndarray
    join_time_factor: np.ndarray
    join_failure_odds: np.ndarray

    @classmethod
    def neutral(cls, n: int) -> "EffectArrays":
        ones = np.ones(n, dtype=np.float64)
        caps = np.full(n, np.inf)
        return cls(ones.copy(), caps, ones.copy(), ones.copy(), ones.copy())

    def __len__(self) -> int:
        return self.bandwidth_factor.shape[0]


@dataclass
class QoEBatch:
    """Generated quality measurements for a batch of sessions."""

    duration_s: np.ndarray
    buffering_s: np.ndarray
    join_time_s: np.ndarray
    bitrate_kbps: np.ndarray
    join_failed: np.ndarray

    def __len__(self) -> int:
        return self.duration_s.shape[0]


class QoEEngine(Protocol):
    """Interface shared by the statistical and mechanistic engines.

    Generation runs in two phases. :meth:`prepare` runs once per epoch,
    in epoch order, and makes every draw of the caller's stream the
    epoch takes; :meth:`simulate` then turns a *pass* of consecutive
    prepared epochs into their batches, drawing nothing more from that
    stream, so the pass's size never changes a trace. ``generate`` is
    one epoch's ``prepare`` and ``simulate``.
    """

    def prepare(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> Any:
        """Phase 1 for sessions with attribute ``codes``.

        ``codes`` is an (n, 7) int array in the canonical schema order
        (asn, cdn, site, content_type, player, browser,
        connection_type), coded against the world's vocabularies.
        """
        ...  # pragma: no cover

    def simulate(self, prepared: Sequence[Any]) -> list[QoEBatch]:
        """Phase 2: one :class:`QoEBatch` per prepared epoch, in order."""
        ...  # pragma: no cover

    def generate(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> QoEBatch:
        """One epoch's metrics: ``simulate([prepare(...)])[0]``."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class QoEModelParams:
    """Calibration constants of the statistical model."""

    bandwidth_sigma: float = 0.5
    base_buffering: float = 0.02
    buffering_sigma: float = 1.0
    stress_exponent: float = 3.0
    min_stress: float = 0.15
    join_base_s: float = 1.0
    join_rtt_mult: float = 6.0
    join_sigma: float = 0.9
    base_failure_prob: float = 0.001
    vod_duration_median_s: float = 480.0
    live_duration_median_s: float = 960.0
    duration_sigma: float = 1.0
    min_duration_s: float = 30.0
    max_duration_s: float = 7200.0


class StatisticalQoEEngine:
    """Vectorised distribution-based QoE engine."""

    def __init__(self, world: World, params: QoEModelParams | None = None) -> None:
        self.world = world
        self.params = params or QoEModelParams()
        self._asn_quality = np.array([a.quality for a in world.asns])
        self._asn_region = world.region_of_asn
        self._conn_base = np.array(
            [CONNECTION_BANDWIDTH_KBPS[c] for c in CONNECTION_TYPES]
        )
        self._cdn_quality = np.array([c.throughput_quality for c in world.cdns])
        self._cdn_rtt_s = np.array([c.base_rtt_ms / 1000.0 for c in world.cdns])
        self._cdn_fail = np.array([c.failure_prob for c in world.cdns])
        self._cdn_coverage = np.array(
            [c.region_coverage for c in world.cdns]
        )  # (n_cdns, n_regions)
        self._ladders = [np.array(s.ladder) for s in world.sites]
        self._live_code = 1  # CONTENT_TYPES order is ("vod", "live")

    # -- pieces ---------------------------------------------------------
    def effective_bandwidth(
        self, codes: np.ndarray, effects: EffectArrays, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-session sustainable download rate, kbps."""
        asn, cdn, conn = codes[:, 0], codes[:, 1], codes[:, 6]
        region = self._asn_region[asn]
        coverage = self._cdn_coverage[cdn, region]
        churn = np.exp(rng.normal(0.0, self.params.bandwidth_sigma, size=len(asn)))
        return (
            self._conn_base[conn]
            * self._asn_quality[asn]
            * self._cdn_quality[cdn]
            * coverage
            * churn
            * effects.bandwidth_factor
        )

    def select_bitrates(self, site_codes: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
        """ABR rung choice: highest rung within the safety margin."""
        target = ABR_SAFETY_MARGIN * bandwidth
        bitrate = np.empty_like(bandwidth)
        for site in np.unique(site_codes):
            ladder = self._ladders[int(site)]
            rows = site_codes == site
            idx = np.searchsorted(ladder, target[rows], side="right") - 1
            idx = np.clip(idx, 0, ladder.size - 1)
            bitrate[rows] = ladder[idx]
        return bitrate

    # -- full batch -------------------------------------------------------
    def prepare(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> QoEBatch:
        """Phase 1 is the whole work: the epoch's finished batch."""
        return self.generate(codes, effects, rng)

    def simulate(self, prepared: Sequence[QoEBatch]) -> list[QoEBatch]:
        """Phase 2 has nothing left to do."""
        return list(prepared)

    def generate(
        self,
        codes: np.ndarray,
        effects: EffectArrays,
        rng: np.random.Generator,
    ) -> QoEBatch:
        n = codes.shape[0]
        current_metrics().inc("generate.sessions", n)
        params = self.params
        cdn = codes[:, 1]
        region = self._asn_region[codes[:, 0]]
        coverage = self._cdn_coverage[cdn, region]

        bandwidth = self.effective_bandwidth(codes, effects, rng)
        # Bitrate caps (throttling / low-rung-only manifests) put an
        # absolute ceiling on the *selection* target without degrading
        # the actual link: a capped session plays a low rung
        # comfortably — low bitrate, no extra stalls, and the same
        # ceiling for every sub-slice of the affected cluster. This
        # keeps bitrate events decoupled from buffering and uniform
        # within their cluster (paper: near-disjoint critical sets,
        # Figure 5 semantics).
        target = np.minimum(
            ABR_SAFETY_MARGIN * bandwidth, effects.bitrate_cap_kbps
        ) / ABR_SAFETY_MARGIN
        bitrate = self.select_bitrates(codes[:, 2], target)
        # A site whose lowest rung exceeds the cap is served a
        # degraded stream at the cap rate (server-side throttling), so
        # the ceiling binds for every matching session.
        bitrate = np.minimum(bitrate, effects.bitrate_cap_kbps)

        # Stress: chosen rung relative to what the bandwidth sustains.
        # A healthy ABR session sits at stress <= 1 (margin respected);
        # sessions forced onto their lowest rung exceed 1 and stall.
        # Event-driven buffering enters *additively* on top of the
        # stress term: pathologies like mid-path congestion stall every
        # session in the affected cluster regardless of each user's
        # bandwidth headroom, so sub-slices degrade uniformly.
        sustainable = np.maximum(ABR_SAFETY_MARGIN * bandwidth, 1e-9)
        stress = np.maximum(bitrate / sustainable, params.min_stress)
        stall_term = stress**params.stress_exponent + (
            effects.buffering_factor - 1.0
        )
        buffering_ratio = (
            params.base_buffering
            * np.exp(rng.normal(0.0, params.buffering_sigma, size=n))
            * stall_term
        )
        buffering_ratio = np.minimum(buffering_ratio, MAX_BUFFERING_RATIO)

        # Durations: lognormal, live sessions longer.
        live = codes[:, 3] == self._live_code
        median = np.where(
            live, params.live_duration_median_s, params.vod_duration_median_s
        )
        duration = np.exp(
            rng.normal(np.log(median), params.duration_sigma, size=n)
        )
        duration = np.clip(duration, params.min_duration_s, params.max_duration_s)

        # Join time: RTT-anchored base with a heavy lognormal tail;
        # poor regional coverage inflates it (far-away servers).
        join_base = (
            params.join_base_s + params.join_rtt_mult * self._cdn_rtt_s[cdn]
        ) / np.maximum(coverage, 0.2)
        join_time = (
            join_base
            * np.exp(rng.normal(0.0, params.join_sigma, size=n))
            * effects.join_time_factor
        )

        # Join failures on the odds scale so event multipliers compose
        # without leaving [0, 1).
        # Failures are deliberately concentrated: a small diffuse
        # background plus per-CDN structural rates; the paper finds
        # join failures the *most* cluster-concentrated metric (87% of
        # problem sessions inside problem clusters).
        base_p = np.clip(
            params.base_failure_prob
            + 0.5 * self._cdn_fail[cdn]
            + 0.003 * (1.0 - coverage),
            1e-6,
            0.5,
        )
        odds = base_p / (1.0 - base_p) * effects.join_failure_odds
        fail_p = odds / (1.0 + odds)
        join_failed = rng.random(n) < fail_p

        # Failed sessions never play: no join time/bitrate, no playback.
        join_time = np.where(join_failed, np.nan, join_time)
        bitrate = np.where(join_failed, np.nan, bitrate)
        buffering_s = np.where(join_failed, 0.0, buffering_ratio * duration)
        duration = np.where(join_failed, 0.0, duration)

        return QoEBatch(
            duration_s=duration,
            buffering_s=buffering_s,
            join_time_s=join_time,
            bitrate_kbps=bitrate,
            join_failed=join_failed,
        )
