"""Markov-modulated bandwidth process.

Access-link throughput over a session is modelled as a three-state
Markov chain (good / degraded / bad multipliers on the session's mean
rate) sampled once per segment download, with lognormal within-state
jitter. This captures the burstiness that makes ABR hard (the paper's
Section 7 cites rate-adaptation instability work) without simulating
packets.

Two consumption styles coexist (DESIGN.md §9):

* the stateful scalar API — :meth:`MarkovBandwidth.step` draws one
  segment at a time (interactive simulations, failover experiments);
* the array API — :meth:`MarkovBandwidth.path` turns a session's
  pre-drawn transition uniforms and jitter factors into its rates, and
  :meth:`MarkovBandwidth.sample_path` draws those two blocks from the
  session's generator and hands them to it. The mechanistic engine's
  lockstep kernel computes the same rates a step at a time, for every
  row of a pass at once (:func:`markov_rates_step`), from uniforms and
  jitter factors it draws step by step in the block layout; the
  per-session reference replays each session's draws through ``path``.

The lockstep helpers :func:`markov_state_path` (one chain, many steps)
and :func:`markov_states_step` (many chains, one step) both count the
cumulative-row entries at or below the uniform, so a batch of chains
stepped column by column reproduces each per-session path bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default state multipliers: nominal, halved, heavily degraded.
DEFAULT_STATE_FACTORS: tuple[float, ...] = (1.0, 0.5, 0.15)

#: Default state-transition matrix (rows sum to 1): sticky good state,
#: occasional dips, rare deep fades.
DEFAULT_TRANSITIONS: tuple[tuple[float, ...], ...] = (
    (0.92, 0.06, 0.02),
    (0.30, 0.60, 0.10),
    (0.15, 0.25, 0.60),
)

#: Default lognormal within-state jitter sigma.
DEFAULT_JITTER_SIGMA: float = 0.25


@dataclass(frozen=True)
class BandwidthSample:
    """One draw of the process: rate in kbps and the hidden state."""

    rate_kbps: float
    state: int


def markov_state_path(
    cum_transitions: np.ndarray, initial_state: int, uniforms: np.ndarray
) -> np.ndarray:
    """Sequential state path of one chain driven by ``uniforms``.

    ``cum_transitions`` is the row-wise cumulative sum of the transition
    matrix. Each step is ``searchsorted(cum[state], u, side="right")``
    clipped to the last state (cumulative rows can fall a few ulps short
    of 1.0).
    """
    n_states = cum_transitions.shape[0]
    states = np.empty(len(uniforms), dtype=np.intp)
    state = initial_state
    for i, u in enumerate(uniforms):
        state = min(
            int(np.searchsorted(cum_transitions[state], u, side="right")),
            n_states - 1,
        )
        states[i] = state
    return states


def markov_states_step(
    cum_transitions: np.ndarray, states: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """One lockstep transition for a whole batch of chains.

    Vectorized equivalent of one :func:`markov_state_path` step applied
    to every chain. For a nondecreasing cumulative row,
    ``searchsorted(cum[state], u, side="right")`` clipped to the last
    state is the count of the row's first ``K - 1`` entries at or below
    ``u``, so the next state is summed one column at a time:
    ``Σ_k cum[:, k][states] <= u``. Each term is a length-``m`` gather
    and compare, with no ``(m, K)`` intermediate to reduce along its
    short axis, and batch and sequential paths agree bit for bit.
    """
    nxt = np.zeros(states.shape, dtype=np.intp)
    for column in cum_transitions.T[:-1]:
        nxt += column[states] <= uniforms
    return nxt


def markov_rates_step(
    mean_kbps: np.ndarray,
    states: np.ndarray,
    uniforms: np.ndarray,
    jitter: np.ndarray,
    cum_transitions: np.ndarray,
    state_factors: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One lockstep step of a batch of Markov links: their next states
    and, in ``out``, the rates ``max(mean * factor[state] * jitter, 1)``.

    ``jitter`` holds the lognormal factors themselves. The product is
    formed in the operand order of :meth:`MarkovBandwidth.path`, so a
    chain stepped here reproduces its per-session path bit for bit.
    Returns the new states.
    """
    states = markov_states_step(cum_transitions, states, uniforms)
    np.multiply(mean_kbps, state_factors[states], out=out)
    np.multiply(out, jitter, out=out)
    np.maximum(out, 1.0, out=out)
    return states


class MarkovBandwidth:
    """Stateful per-segment bandwidth process for one session."""

    def __init__(
        self,
        mean_kbps: float,
        rng: np.random.Generator,
        state_factors: tuple[float, ...] = DEFAULT_STATE_FACTORS,
        transitions: tuple[tuple[float, ...], ...] = DEFAULT_TRANSITIONS,
        jitter_sigma: float = DEFAULT_JITTER_SIGMA,
        initial_state: int | None = None,
    ) -> None:
        if mean_kbps <= 0:
            raise ValueError("mean_kbps must be positive")
        matrix = np.asarray(transitions, dtype=np.float64)
        if matrix.shape != (len(state_factors), len(state_factors)):
            raise ValueError("transition matrix shape mismatch")
        if not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        if np.any(matrix < 0):
            raise ValueError("transition probabilities must be non-negative")
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        self.mean_kbps = mean_kbps
        self.state_factors = tuple(state_factors)
        self.transitions = matrix
        self.jitter_sigma = jitter_sigma
        self._factors = np.asarray(state_factors, dtype=np.float64)
        self._cum = np.cumsum(matrix, axis=1)
        self._rng = rng
        self.state = (
            int(initial_state)
            if initial_state is not None
            else int(rng.integers(0, len(state_factors)))
        )
        if not 0 <= self.state < len(state_factors):
            raise ValueError(f"initial_state {self.state} out of range")

    def step(self) -> BandwidthSample:
        """Advance one segment and sample the rate for its download."""
        u = self._rng.random()
        self.state = min(
            int(np.searchsorted(self._cum[self.state], u, side="right")),
            len(self.state_factors) - 1,
        )
        jitter = float(np.exp(self._rng.normal(0.0, self.jitter_sigma)))
        rate = self.mean_kbps * self.state_factors[self.state] * jitter
        return BandwidthSample(rate_kbps=max(rate, 1.0), state=self.state)

    def path(self, uniforms: np.ndarray, jitter: np.ndarray) -> np.ndarray:
        """Rates driven by pre-drawn transition uniforms and jitter factors.

        ``jitter`` holds the lognormal factors themselves (already
        exponentiated). Starts from ``self.state`` and advances it to
        the path's final state. This is the scalar twin of
        :func:`markov_rates_step`: the same rate arithmetic,
        ``max(mean * factor[state] * jitter, 1)``, over one session's
        steps instead of one step of many sessions.
        """
        return self._walk(uniforms, jitter)[0]

    def sample_path(self, n: int) -> np.ndarray:
        """Rates for ``n`` consecutive segments, pre-drawn as two blocks.

        Consumes exactly ``rng.random(n)`` (transition uniforms) then
        ``rng.normal(0, jitter_sigma, n)`` (jitter), and hands both to
        :meth:`path`. Advances ``self.state`` to the path's final state.
        """
        return self.path(*self._draw(n))

    def sample_series(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``n`` consecutive steps as ``(rates, states)`` arrays.

        Array-form convenience over :meth:`sample_path` (same two-block
        draw layout); ``rates`` is float64 kbps, ``states`` the hidden
        state indices.
        """
        return self._walk(*self._draw(n))

    def _draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 0:
            raise ValueError("n must be non-negative")
        uniforms = self._rng.random(n)
        jitter = np.exp(self._rng.normal(0.0, self.jitter_sigma, size=n))
        return uniforms, jitter

    def _walk(
        self, uniforms: np.ndarray, jitter: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        states = markov_state_path(self._cum, self.state, uniforms)
        if len(states):
            self.state = int(states[-1])
        rates = np.maximum(self.mean_kbps * self._factors[states] * jitter, 1.0)
        return rates, states
