"""CDN servers and per-site CDN selection.

A :class:`CDNServer` bounds segment throughput (edge capacity), adds
its RTT to each request, and may fail the initial join request. A
:class:`SiteCDNSelector` models the per-site CDN policy: a weighted
choice over the CDNs the site contracts (the paper notes providers
using proprietary CDN-switching; the trace records the CDN used for
the longest span, which a per-session draw approximates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CDNServer:
    """One CDN edge from a client's perspective."""

    name: str
    rtt_s: float
    failure_prob: float
    throughput_cap_kbps: float

    def __post_init__(self) -> None:
        if self.rtt_s <= 0:
            raise ValueError("rtt must be positive")
        if not 0 <= self.failure_prob < 1:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.throughput_cap_kbps <= 0:
            raise ValueError("throughput cap must be positive")

    def join_fails(self, rng: np.random.Generator, odds_multiplier: float = 1.0) -> bool:
        """Whether the initial request fails (odds-scaled)."""
        if odds_multiplier <= 0:
            raise ValueError("odds multiplier must be positive")
        p = self.failure_prob
        if p == 0:
            return False
        odds = p / (1.0 - p) * odds_multiplier
        return bool(rng.random() < odds / (1.0 + odds))

    def effective_throughput(self, link_rate_kbps: float) -> float:
        """Download rate: min(access link, edge capacity)."""
        if link_rate_kbps <= 0:
            raise ValueError("link rate must be positive")
        return min(link_rate_kbps, self.throughput_cap_kbps)


def join_failure_probability(
    failure_probs: np.ndarray, odds_multipliers: np.ndarray
) -> np.ndarray:
    """Vectorized odds-scaled join-failure probability.

    Same arithmetic as :meth:`CDNServer.join_fails` for positive
    ``failure_probs``: scale the odds ``p / (1 - p)`` by the multiplier
    and convert back, ``odds / (1 + odds)``. Callers comparing against a
    pre-drawn uniform get the same verdict as the scalar method handed
    that uniform; at zero probability both say the join succeeds.
    """
    odds = failure_probs / (1.0 - failure_probs) * odds_multipliers
    return odds / (1.0 + odds)


class SiteCDNSelector:
    """Weighted CDN choice for one site."""

    def __init__(self, servers: Sequence[CDNServer], weights: Sequence[float]) -> None:
        if not servers or len(servers) != len(weights):
            raise ValueError("servers/weights mismatch or empty")
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self.servers = list(servers)
        self._p = w / w.sum()

    def select(self, rng: np.random.Generator) -> CDNServer:
        return self.servers[int(rng.choice(len(self.servers), p=self._p))]
