"""Session playback simulation: the download/playout loop.

``simulate_session`` runs one session end to end:

1. join request to the CDN (may fail -> join failure);
2. startup: segments download until the startup buffer threshold is
   reached; elapsed wall time is the join time;
3. steady state: the ABR algorithm picks a rung per segment, the
   buffer drains in real time during downloads, stalls accumulate as
   buffering, and the player stops after ``watch_duration_s`` of wall
   time (users leave) or when the video ends.

The result carries the paper's four metrics plus diagnostics (rung
switches, stall events, per-rung playtime).

RNG draw layout (DESIGN.md §9): the join-failure uniform is consumed
first, then — when the bandwidth model supports it — the session's
whole rate path is pre-drawn as two fixed-size blocks via
:meth:`MarkovBandwidth.sample_path`. The mechanistic engine draws
these values for a whole batch at once; its per-session reference
hands this loop each session's join uniform and a bandwidth model
whose ``sample_path`` replays the session's rows of those blocks,
which is what makes the lockstep batch engine (:mod:`repro.sim.batch`)
bit-identical to this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.abr import ABRAlgorithm
from repro.sim.bandwidth import MarkovBandwidth
from repro.sim.cdn import CDNServer
from repro.sim.playerbuffer import PlayerBuffer
from repro.sim.segments import VideoManifest


@dataclass
class PlaybackResult:
    """Outcome of one simulated session."""

    failed: bool
    join_time_s: float
    played_s: float
    buffering_s: float
    avg_bitrate_kbps: float
    rung_switches: int = 0
    stall_events: int = 0
    rung_playtime_s: dict[int, float] = field(default_factory=dict)
    #: Segment downloads actually simulated (diagnostics/metrics).
    segments_downloaded: int = 0

    @property
    def duration_s(self) -> float:
        """Total session duration: playback plus stalls."""
        return self.played_s + self.buffering_s

    @property
    def buffering_ratio(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.buffering_s / self.duration_s


_FAILED = dict(
    failed=True, join_time_s=float("nan"), played_s=0.0,
    buffering_s=0.0, avg_bitrate_kbps=float("nan"),
)


def simulate_session(
    manifest: VideoManifest,
    abr: ABRAlgorithm,
    bandwidth: MarkovBandwidth,
    server: CDNServer,
    rng: np.random.Generator,
    watch_duration_s: float | None = None,
    startup_buffer_s: float = 4.0,
    buffer_capacity_s: float = 60.0,
    failure_odds: float = 1.0,
    join_overhead_s: float = 0.0,
    max_join_time_s: float = 120.0,
) -> PlaybackResult:
    """Simulate one session; see module docstring for the phases.

    ``join_overhead_s`` models fixed startup work (DNS, player module
    loads — the paper's Chinese-ASN join-time anecdote is exactly a
    large such overhead). ``max_join_time_s`` converts a hopeless
    startup into a join failure (players time out).
    """
    if startup_buffer_s <= 0:
        raise ValueError("startup_buffer_s must be positive")
    if watch_duration_s is not None and watch_duration_s <= 0:
        raise ValueError("watch_duration_s must be positive")

    if server.join_fails(rng, odds_multiplier=failure_odds):
        return PlaybackResult(**_FAILED)

    n_segments = manifest.n_segments
    # Pre-draw the whole rate path as fixed-size blocks so the batch
    # engine can reproduce the draws; bandwidth models without the
    # array API fall back to stepwise draws.
    sample_path = getattr(bandwidth, "sample_path", None)
    rates = sample_path(n_segments) if sample_path is not None else None

    durations = manifest.segment_durations_s
    sizes = manifest.segment_sizes_kbits  # (n_rungs, n_segments)
    rtt_s = server.rtt_s

    buffer = PlayerBuffer(capacity_s=buffer_capacity_s)
    wall_clock = join_overhead_s
    join_time = None
    watched_wall_s = 0.0
    last_rung: int | None = None
    switches = 0
    rung_playtime: dict[int, float] = {}
    played = 0.0
    # Average bitrate accumulates per segment (not grouped by rung) so
    # the summation order matches the batch engine's bit for bit.
    bitrate_time = 0.0
    steady_time = 0.0

    limit = watch_duration_s if watch_duration_s is not None else float("inf")
    downloads = 0

    for index in range(n_segments):
        downloads += 1
        rate = float(rates[index]) if rates is not None else bandwidth.step().rate_kbps
        throughput = server.effective_throughput(rate)
        rung = abr.choose(manifest, throughput, buffer.level_s)
        if last_rung is not None and rung != last_rung:
            switches += 1
        last_rung = rung
        size_kbits = float(sizes[rung, index])
        seg_duration = float(durations[index])
        dl_time = rtt_s + size_kbits / throughput
        # Observed goodput includes the RTT hit.
        abr.observe(size_kbits / max(dl_time, 1e-9))

        if join_time is None:
            wall_clock += dl_time
            buffer.add(seg_duration)
            if buffer.level_s >= startup_buffer_s or index == n_segments - 1:
                join_time = wall_clock
                buffer.start_playback()
                if join_time > max_join_time_s:
                    return PlaybackResult(**_FAILED, segments_downloaded=downloads)
            continue

        # Steady state: the buffer drains while this segment downloads.
        before = buffer.level_s
        stall = buffer.drain(dl_time)
        play_now = min(dl_time - stall, before)
        played += play_now
        buffer.add(seg_duration)
        watched_wall_s += dl_time
        rung_playtime[rung] = rung_playtime.get(rung, 0.0) + seg_duration
        bitrate_time += manifest.ladder_kbps[rung] * seg_duration
        steady_time += seg_duration
        if watched_wall_s >= limit:
            break

    if join_time is None:  # pragma: no cover - guarded by loop structure
        join_time = wall_clock
        buffer.start_playback()

    # Drain whatever is left in the buffer (up to the watch limit).
    remaining_wall = max(limit - watched_wall_s, 0.0)
    drainable = min(buffer.level_s, remaining_wall)
    if np.isfinite(limit):
        played += drainable
    else:
        played += buffer.level_s

    # Average bitrate: time-weighted over rungs actually buffered.
    if steady_time > 0:
        avg_bitrate = bitrate_time / steady_time
    else:
        # Session too short to reach steady state: the startup rung.
        avg_bitrate = manifest.ladder_kbps[last_rung if last_rung is not None else 0]

    return PlaybackResult(
        failed=False,
        join_time_s=join_time,
        played_s=played,
        buffering_s=buffer.total_stall_s,
        avg_bitrate_kbps=avg_bitrate,
        rung_switches=switches,
        stall_events=buffer.stall_events,
        rung_playtime_s=rung_playtime,
        segments_downloaded=downloads,
    )
