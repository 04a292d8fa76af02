"""Lockstep vectorized playback: a whole session batch per step.

This is the batch twin of :func:`repro.sim.playback.simulate_session`.
Instead of running one Python loop per session, :func:`simulate_batch`
steps *all* sessions of a batch through segment ``t`` together:

* the Markov bandwidth chains advance as one vectorized categorical
  transition per step (:func:`repro.sim.bandwidth.markov_rates_step`);
* rate-based ABR walks the rung columns of each row's cap-limited
  ladder (:func:`repro.sim.abr.rate_based_bitrates`);
* buffer fill/drain/stall is masked in-place array arithmetic
  (:class:`repro.sim.playerbuffer.BatchPlayerBuffer`), and the
  per-session totals accumulate with ``np.add(..., out=, where=)``;
* join-timeout and watch-limit exits are per-session done masks: a
  finished row simply drops out of the active mask while the rest of
  the batch keeps stepping.

Sessions in one call share the segment grid (``segment_durations_s``)
— the engine groups sessions by live/VOD class, over a pass of several
epochs — but each row carries its own ladder, RTT, watch limit, and
join overhead. Sessions whose join fails outright never reach the
kernel: the engine draws that failure first and passes the surviving
rows only.

Each step reads one column of the ``(m, T)`` rates, once and in order.
The engine hands in a stream that draws column ``t`` only when step
``t`` reads it (:class:`repro.sim.engine.StepDrawnRates`), so no array
with a segment dimension exists; an array serves the same reads. No
step reduces an ``(m, k)`` intermediate along its short axis: the next
Markov state is counted, and the ABR bitrate chosen, one column of
their small tables at a time.

Every arithmetic update mirrors the scalar loop operation for
operation in the same order, and the reference replays the engine's
draws, so the results are bit-identical to ``simulate_session``
(property-tested in ``tests/property/test_sim_batch_equivalence.py``;
DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.abr import RateBasedABR, rate_based_bitrates
from repro.sim.bandwidth import markov_rates_step
from repro.sim.playerbuffer import BatchPlayerBuffer


@dataclass
class BatchPlaybackResult:
    """Per-session outcomes of one lockstep batch (all shape (m,))."""

    failed: np.ndarray
    join_time_s: np.ndarray
    played_s: np.ndarray
    buffering_s: np.ndarray
    avg_bitrate_kbps: np.ndarray
    #: Total segment downloads simulated across the batch (diagnostics).
    segments_downloaded: int = 0

    def __len__(self) -> int:
        return self.failed.shape[0]


def markov_rate_matrix(
    mean_kbps: np.ndarray,
    uniforms: np.ndarray,
    jitter: np.ndarray,
    cum_transitions: np.ndarray,
    state_factors: np.ndarray,
    initial_state: int = 0,
) -> np.ndarray:
    """Per-segment rates for a batch of Markov bandwidth chains.

    ``uniforms``/``jitter`` are ``(m, T)``: row ``i`` is session ``i``'s
    transition uniforms and (exponentiated) jitter factors. The chains
    advance one column at a time through :func:`markov_rates_step`, the
    step the engine's step-drawn rates take, so row ``i`` of the result
    is bit identical to ``MarkovBandwidth(mean_kbps[i], ...).path(
    uniforms[i], jitter[i])``.
    """
    m, n_steps = uniforms.shape
    rates = np.empty((m, n_steps), dtype=np.float64)
    states = np.full(m, initial_state, dtype=np.intp)
    for t in range(n_steps):
        states = markov_rates_step(
            mean_kbps, states, uniforms[:, t], jitter[:, t],
            cum_transitions, state_factors, out=rates[:, t],
        )
    return rates


def simulate_batch(
    effective_ladders: np.ndarray,
    segment_durations_s: np.ndarray,
    rates_kbps: np.ndarray,
    rtt_s: np.ndarray,
    watch_duration_s: np.ndarray,
    join_overhead_s: np.ndarray,
    startup_buffer_s: float = 4.0,
    max_join_time_s: float = 120.0,
) -> BatchPlaybackResult:
    """Simulate ``m`` sessions in lockstep over ``T`` segments.

    ``effective_ladders`` is ``(m, max_rungs)`` with each row the
    session's cap-limited ladder padded by ``+inf``; ``rates_kbps`` is
    the ``(m, T)`` bandwidth path. It is read as ``rates_kbps[:, t]``,
    once per step and in step order, so it may be an array (e.g. from
    :func:`markov_rate_matrix`) or any object with that ``shape`` that
    serves its columns in order — the engine passes
    :class:`repro.sim.engine.StepDrawnRates`, which draws each column
    when it is read. ``watch_duration_s`` must be finite. Every row
    starts active: the engine passes the rows whose join did not fail
    outright.

    The player is the scalar twin's: :class:`~repro.sim.abr.RateBasedABR`'s
    default safety margin and EWMA weight, and
    :class:`~repro.sim.playerbuffer.BatchPlayerBuffer`'s default
    capacity. The rates are the download throughput as drawn: the
    engine models no CDN throughput cap.

    Exit semantics (DESIGN.md §9): a row leaves the active mask when its
    join times out (``join_time > max_join_time_s`` → failed) or when
    its watch limit is reached; the loop ends with the grid, or early
    once every row is done.
    """
    if startup_buffer_s <= 0:
        raise ValueError("startup_buffer_s must be positive")
    m = effective_ladders.shape[0]
    n_segments = len(segment_durations_s)
    if rates_kbps.shape != (m, n_segments):
        raise ValueError("rates_kbps must be (m, n_segments)")
    if not np.all(np.isfinite(watch_duration_s)):
        raise ValueError("watch limits must be finite")

    # Fortran order: each rung column the ABR step reads is contiguous.
    ladders = np.asfortranarray(effective_ladders)
    est = np.full(m, np.nan)
    buf = BatchPlayerBuffer(m)
    wall = np.array(join_overhead_s, dtype=np.float64, copy=True)
    join_time = np.full(m, np.nan)
    joined = np.zeros(m, dtype=bool)
    timed_out = np.zeros(m, dtype=bool)
    watched = np.zeros(m)
    played = np.zeros(m)
    bitrate_time = np.zeros(m)
    steady_time = np.zeros(m)
    last_bitrate = np.zeros(m)
    segments = 0

    # Rows only ever leave `active` (join timeout, watch limit), so it
    # is updated in place: each exit mask is a subset of `active` and is
    # cleared from it with one xor.
    active = np.ones(m, dtype=bool)
    n_active = m
    safety, alpha = RateBasedABR.safety, RateBasedABR.ewma_alpha
    ewma_rest = 1.0 - alpha
    # Once the startup phase is globally over it never restarts (rows
    # only leave the active mask, `joined` only grows), so the phase
    # masks collapse to `steady == active`.
    startup_possible = True
    for t in range(n_segments):
        if n_active == 0:
            break
        dur = float(segment_durations_s[t])
        # Phase masks use `joined` from *before* this segment: the
        # segment that completes startup does not also play (the scalar
        # loop's `continue`).
        if startup_possible:
            steady = active & joined
            startup = active & ~joined
            in_startup = bool(startup.any())
            startup_possible = in_startup
        else:
            steady = active
            in_startup = False

        throughput = rates_kbps[:, t]
        # Every row still in play observed a goodput at t == 0, so the
        # NaN fallback to the instantaneous throughput (the scalar
        # estimator "starts from the first observation") only matters
        # on the first segment.
        est_now = np.where(np.isnan(est), throughput, est) if t == 0 else est
        bitrate = rate_based_bitrates(ladders, est_now, safety)
        size_kbits = dur * bitrate
        dl_time = rtt_s + size_kbits / throughput
        goodput = size_kbits / np.maximum(dl_time, 1e-9)
        # :meth:`RateBasedABR.observe` over the batch (same expression,
        # same term order): its start-from-the-first-observation branch
        # can only fire at t == 0, so the isnan/where pair is skipped
        # after it.
        blended = alpha * goodput + ewma_rest * est
        if t == 0:
            blended = np.where(np.isnan(est), goodput, blended)
        np.copyto(est, blended, where=active)
        segments += n_active

        # The steady rows' buffers drain while the segment downloads
        # (shortfalls stall; only pre-download content plays), then
        # every active row banks the new segment.
        before = buf.level_s.copy()
        stall = buf.drain(dl_time, steady)
        play_now = np.minimum(dl_time - stall, before)
        buf.add(dur, active)

        np.add(played, play_now, out=played, where=steady)
        np.add(watched, dl_time, out=watched, where=steady)
        np.add(bitrate_time, size_kbits, out=bitrate_time, where=steady)
        np.add(steady_time, dur, out=steady_time, where=steady)
        # `steady` may be `active` itself: it is not read after this.
        active ^= steady & (watched >= watch_duration_s)

        if in_startup:
            wall = np.where(startup, wall + dl_time, wall)
            complete = startup & (
                (buf.level_s >= startup_buffer_s) | (t == n_segments - 1)
            )
            # A row joining on its very last segment never plays a
            # steady segment; its average-bitrate fallback is the rung
            # of this completing download (the scalar loop's last_rung).
            np.copyto(join_time, wall, where=complete)
            np.copyto(last_bitrate, bitrate, where=complete)
            joined |= complete
            late = complete & (join_time > max_join_time_s)
            timed_out |= late
            active ^= late

        n_active = int(np.count_nonzero(active))

    ok = ~timed_out
    # Drain whatever is left in each buffer (up to the watch limit).
    remaining = np.maximum(watch_duration_s - watched, 0.0)
    drainable = np.minimum(buf.level_s, remaining)
    played[ok] += drainable[ok]
    avg_bitrate = last_bitrate.copy()
    np.divide(bitrate_time, steady_time, out=avg_bitrate, where=steady_time > 0)

    return BatchPlaybackResult(
        failed=timed_out,
        join_time_s=np.where(ok, join_time, np.nan),
        played_s=np.where(ok, played, 0.0),
        buffering_s=np.where(ok, buf.total_stall_s, 0.0),
        avg_bitrate_kbps=np.where(ok, avg_bitrate, np.nan),
        segments_downloaded=segments,
    )
