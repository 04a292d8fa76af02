"""Adaptive-bitrate algorithms.

Three classic families (the paper's related work, Section 7, studies
exactly these): a fixed-rung player (the "single bitrate" sites of
Table 3 degenerate to this), throughput-rate-based adaptation with an
EWMA estimator and safety margin, and buffer-based adaptation in the
style of BBA-0 (reservoir/cushion mapping from buffer level to rung).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.sim.segments import VideoManifest


class ABRAlgorithm(Protocol):
    """Per-session rung chooser (stateful across segments)."""

    def choose(
        self,
        manifest: VideoManifest,
        throughput_estimate_kbps: float,
        buffer_level_s: float,
    ) -> int:
        """Rung index for the next segment."""
        ...  # pragma: no cover

    def observe(self, throughput_kbps: float) -> None:
        """Feed the measured throughput of the last download."""
        ...  # pragma: no cover


@dataclass
class FixedBitrateABR:
    """Always plays one rung (clamped to the manifest)."""

    rung: int = 0

    def __post_init__(self) -> None:
        if self.rung < 0:
            raise ValueError("rung must be non-negative")

    def choose(
        self,
        manifest: VideoManifest,
        throughput_estimate_kbps: float,
        buffer_level_s: float,
    ) -> int:
        return min(self.rung, manifest.n_rungs - 1)

    def observe(self, throughput_kbps: float) -> None:
        pass


@dataclass
class RateBasedABR:
    """EWMA throughput estimate with a safety margin.

    Picks the highest rung below ``safety * estimate``. The estimator
    starts from the first observation.
    """

    safety: float = 0.85
    ewma_alpha: float = 0.4
    _estimate_kbps: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")

    @property
    def estimate_kbps(self) -> float | None:
        return self._estimate_kbps

    def choose(
        self,
        manifest: VideoManifest,
        throughput_estimate_kbps: float,
        buffer_level_s: float,
    ) -> int:
        estimate = (
            self._estimate_kbps
            if self._estimate_kbps is not None
            else throughput_estimate_kbps
        )
        return manifest.rung_below(self.safety * estimate)

    def observe(self, throughput_kbps: float) -> None:
        if throughput_kbps <= 0:
            raise ValueError("throughput must be positive")
        if self._estimate_kbps is None:
            self._estimate_kbps = throughput_kbps
        else:
            self._estimate_kbps = (
                self.ewma_alpha * throughput_kbps
                + (1.0 - self.ewma_alpha) * self._estimate_kbps
            )


def rate_based_bitrates(
    effective_ladders: np.ndarray, estimates_kbps: np.ndarray, safety: float = 0.85
) -> np.ndarray:
    """Vectorized :meth:`RateBasedABR.choose` over a session batch, as
    the chosen bitrates.

    ``effective_ladders`` is ``(n, max_rungs)``, each row the session's
    cap-limited ladder in ascending order, padded with ``+inf``;
    ``estimates_kbps`` the current throughput estimates. Returns each
    row's bitrate at ``manifest.rung_below(safety * estimate)``: the
    highest rung at or under the target, or rung 0 if none is — which
    single-rung (fixed-bitrate) rows satisfy trivially.

    Ladders ascend, so walking the rung columns upward and taking every
    rung that fits leaves the highest one. Each column costs one compare
    and one masked copy, with no ``(n, max_rungs)`` intermediate and no
    gather; a Fortran-ordered ladder matrix makes every column read
    contiguous.
    """
    target = safety * estimates_kbps
    bitrates = effective_ladders[:, 0].copy()
    for column in effective_ladders.T[1:]:
        np.copyto(bitrates, column, where=column <= target)
    return bitrates


@dataclass
class BufferBasedABR:
    """BBA-0-style mapping from buffer occupancy to rung.

    Below the ``reservoir_s`` the lowest rung is used; above
    ``cushion_end_s`` the highest; in between the rung index scales
    linearly with buffer level.
    """

    reservoir_s: float = 8.0
    cushion_end_s: float = 30.0

    def __post_init__(self) -> None:
        if self.reservoir_s < 0:
            raise ValueError("reservoir must be non-negative")
        if self.cushion_end_s <= self.reservoir_s:
            raise ValueError("cushion_end must exceed reservoir")

    def choose(
        self,
        manifest: VideoManifest,
        throughput_estimate_kbps: float,
        buffer_level_s: float,
    ) -> int:
        if buffer_level_s <= self.reservoir_s:
            return 0
        if buffer_level_s >= self.cushion_end_s:
            return manifest.n_rungs - 1
        span = self.cushion_end_s - self.reservoir_s
        frac = (buffer_level_s - self.reservoir_s) / span
        return min(int(frac * manifest.n_rungs), manifest.n_rungs - 1)

    def observe(self, throughput_kbps: float) -> None:
        pass
