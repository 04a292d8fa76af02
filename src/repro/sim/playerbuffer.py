"""Player buffer dynamics.

The buffer holds downloaded-but-unplayed media (seconds of content).
While a segment downloads the buffer drains in real time; when it hits
zero mid-stream the player stalls (rebuffering) until the download
completes. Startup follows the same dynamics but counts toward join
time instead of buffering (the paper measures the two separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PlayerBuffer:
    """Seconds-of-content buffer with stall accounting."""

    capacity_s: float = 60.0
    level_s: float = 0.0
    playing: bool = False
    total_stall_s: float = field(default=0.0, init=False)
    stall_events: int = field(default=0, init=False)
    _in_stall: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_s <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= self.level_s <= self.capacity_s:
            raise ValueError("initial level out of range")

    @property
    def is_full(self) -> bool:
        return self.level_s >= self.capacity_s - 1e-9

    def headroom_s(self) -> float:
        return max(self.capacity_s - self.level_s, 0.0)

    def add(self, seconds: float) -> None:
        """Add downloaded content (clamped to capacity)."""
        if seconds < 0:
            raise ValueError("cannot add negative content")
        self.level_s = min(self.level_s + seconds, self.capacity_s)
        if self.playing and self.level_s > 0:
            self._in_stall = False

    def drain(self, wall_seconds: float) -> float:
        """Advance playback by ``wall_seconds``; returns stall seconds.

        While playing, the buffer drains one content-second per
        wall-second; any shortfall is a stall. When not playing (still
        joining) nothing drains.
        """
        if wall_seconds < 0:
            raise ValueError("cannot drain negative time")
        if not self.playing:
            return 0.0
        if self.level_s >= wall_seconds:
            self.level_s -= wall_seconds
            return 0.0
        stall = wall_seconds - self.level_s
        self.level_s = 0.0
        self.total_stall_s += stall
        if not self._in_stall:
            self.stall_events += 1
            self._in_stall = True
        return stall

    def start_playback(self) -> None:
        self.playing = True
        self._in_stall = False


class BatchPlayerBuffer:
    """Lockstep buffer dynamics for a session batch (DESIGN.md §9).

    One float64 level per session, updated in place with masked array
    arithmetic that gives :class:`PlayerBuffer`'s results bit for bit —
    the same subtractions and clamps, each selected per row. Sessions
    outside ``mask`` are left untouched by every update: levels stay
    within ``[0, capacity_s]``, so clamping a row outside the mask
    changes nothing.
    """

    def __init__(self, n: int, capacity_s: float = 60.0) -> None:
        if capacity_s <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_s = capacity_s
        self.level_s = np.zeros(n, dtype=np.float64)
        self.total_stall_s = np.zeros(n, dtype=np.float64)

    def add(self, seconds: np.ndarray | float, mask: np.ndarray) -> None:
        """Masked :meth:`PlayerBuffer.add`: clamp to capacity."""
        level = self.level_s
        np.add(level, seconds, out=level, where=mask)
        np.minimum(level, self.capacity_s, out=level)

    def drain(self, wall_seconds: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Masked :meth:`PlayerBuffer.drain`; returns per-session stalls.

        Rows with enough buffered content drain ``level -= wall`` with
        zero stall; short rows stall ``wall - level`` and hit level 0.
        Both branches are one clamp at zero: ``max(wall - level, 0)``
        is the stall and ``max(level - wall, 0)`` the new level, with
        the scalar buffer's own subtractions. Returned stalls are zero
        outside ``mask``, so they add to the stall totals unmasked.
        """
        level = self.level_s
        stall = np.zeros(level.shape)
        np.subtract(wall_seconds, level, out=stall, where=mask)
        np.maximum(stall, 0.0, out=stall)
        np.subtract(level, wall_seconds, out=level, where=mask)
        np.maximum(level, 0.0, out=level)
        self.total_stall_s += stall
        return stall
