"""Process-wide metrics registry: counters, gauges, histograms.

The default registry is the no-op :data:`NULL_METRICS` singleton, so
instrumented code (``metrics.inc("cache.hit")``) costs one global read
and one empty method call unless a real :class:`MetricsRegistry` is
installed with :func:`use_metrics` — the CLI does this alongside the
tracer when ``--trace-out`` is given, and tests install one to assert
on counter values.

Histograms are intentionally small: count / sum / min / max plus a
fixed-size uniform reservoir (Vitter's algorithm R, deterministically
seeded per histogram name) from which p50/p95/p99 are estimated —
mean/max alone hides the tail latency that matters for worker
queue-wait and per-epoch spans. Memory stays bounded regardless of how
many values are observed.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any

#: Values kept per histogram for quantile estimation. 256 uniform
#: samples put the p99 estimate within a few percentiles of truth,
#: which is plenty for "did the tail move" regression checks.
RESERVOIR_SIZE = 256

#: Quantiles exported by every histogram summary.
QUANTILES = (0.5, 0.95, 0.99)


class HistogramSummary:
    """Streaming count/sum/min/max + reservoir-quantile summary.

    The reservoir is uniform over everything observed (algorithm R) and
    its RNG is seeded from ``seed`` — registries seed from the histogram
    name, so two runs observing the same series report identical
    quantile estimates (no run-to-run flap in diffs).
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    def __init__(self, seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear interpolation over the
        reservoir); 0.0 before anything is observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        data = sorted(self._reservoir)
        pos = q * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def as_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


class MetricsRegistry:
    """Counters, gauges and histogram summaries, keyed by dotted names."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramSummary] = {}

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            # Seed from the name: the same series observed by two runs
            # yields identical reservoirs, hence identical quantiles.
            hist = self.histograms[name] = HistogramSummary(
                seed=zlib.crc32(name.encode("utf-8"))
            )
        hist.observe(value)

    def get(self, name: str, default: float = 0) -> float:
        """Current counter value (0 when never incremented)."""
        return self.counters.get(name, default)

    def as_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.as_dict() for name, hist in self.histograms.items()
            },
        }


def render_histograms(metrics: "MetricsRegistry") -> str:
    """Human-readable histogram table (count/mean/p50/p95/p99/max).

    The tail-latency companion to the span tree — the CLI prints it
    under the span tree when ``--timings`` is given and histograms were
    observed. Empty string when there is nothing to show.
    """
    if not getattr(metrics, "histograms", None):
        return ""
    lines = [
        f"{'histogram':<32s} {'count':>8s} {'mean':>10s} {'p50':>10s} "
        f"{'p95':>10s} {'p99':>10s} {'max':>10s}"
    ]
    for name in sorted(metrics.histograms):
        hist = metrics.histograms[name]
        lines.append(
            f"{name:<32s} {hist.count:>8d} {hist.mean:>10.4g} "
            f"{hist.quantile(0.5):>10.4g} {hist.quantile(0.95):>10.4g} "
            f"{hist.quantile(0.99):>10.4g} "
            f"{(hist.max if hist.count else 0.0):>10.4g}"
        )
    return "\n".join(lines)


class NullMetrics:
    """Default registry: every operation is a no-op."""

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def get(self, name: str, default: float = 0) -> float:
        return default

    def as_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
