"""Observability subsystem: tracing spans, metrics, sinks, degradations.

``repro.obs`` is the pipeline's first-class instrumentation layer
(DESIGN.md §6). It generalizes the flat
:class:`~repro.core.pipeline.PipelineTimings` counters into:

* a **span tree** (:class:`Tracer` / :class:`Span`) covering ingestion,
  index builds, snapshot load/save, worker fan-out (per-worker timing
  and queue wait) and aggregation;
* a **metrics registry** (:class:`MetricsRegistry`) of counters, gauges
  and histogram summaries (snapshot bytes, cache hits and misses,
  degraded paths);
* **sinks**: ``--trace-out`` JSON (:func:`write_trace_json`), the run
  manifest written next to results (:func:`write_run_manifest`), and
  the human span tree (:func:`render_tree`, what ``--timings`` and
  ``obs view`` print).

The analytics half (DESIGN.md §10) works over what those sinks wrote:
span aggregation and the critical path (:mod:`repro.obs.analyze`), the
append-only run journal (:class:`RunJournal`), run-vs-run and
run-vs-baseline verdicts (:func:`diff_records`) and the Prometheus
export (:func:`render_prometheus`).

Both the tracer and the registry default to shared no-op singletons, so
instrumented hot paths cost one global read + one empty call until
:func:`use_tracer` / :func:`use_metrics` install real collectors (the
CLI does both when ``--trace-out`` is given; tests do it to assert on
spans and counters).

Degraded-but-successful paths — a crashed worker pool completing
serially, a corrupt snapshot being rebuilt, a corrupt cache entry being
recomputed — are reported through :func:`record_degradation`, which logs a
warning (always), increments ``degraded.<kind>`` (when a registry is
installed) and records a ``degraded`` trace event (when a tracer is
installed). Failure *handling* lives at the call sites; this module
only guarantees the reason is observable.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Iterator, Union

from repro.obs.analyze import (
    critical_path,
    render_critical_path,
    render_tree,
    span_stats,
    top_spans,
)
from repro.obs.diff import DiffThresholds, diff_records
from repro.obs.journal import JOURNAL_VERSION, RunJournal
from repro.obs.metrics import (
    HistogramSummary,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    render_histograms,
)
from repro.obs.prom import render_prometheus
from repro.obs.sinks import (
    MANIFEST_VERSION,
    build_run_manifest,
    degradation_reasons,
    manifest_path_for,
    peak_rss_bytes,
    write_run_manifest,
    write_trace_json,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "DiffThresholds",
    "HistogramSummary",
    "JOURNAL_VERSION",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "RunJournal",
    "Span",
    "Tracer",
    "build_run_manifest",
    "critical_path",
    "current_metrics",
    "current_tracer",
    "degradation_reasons",
    "diff_records",
    "install_null_collectors",
    "manifest_path_for",
    "peak_rss_bytes",
    "record_degradation",
    "render_critical_path",
    "render_histograms",
    "render_prometheus",
    "render_tree",
    "span_stats",
    "top_spans",
    "use_metrics",
    "use_tracer",
    "write_run_manifest",
    "write_trace_json",
]

log = logging.getLogger("repro.obs")

# Process-wide active collectors. Plain module globals rather than
# contextvars: the pipeline parallelizes across processes, not threads.
# A forked pool worker inherits them, so workers install the no-op
# pair first (install_null_collectors).
_TRACER: Union[Tracer, NullTracer] = NULL_TRACER
_METRICS: Union[MetricsRegistry, NullMetrics] = NULL_METRICS


def current_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the no-op singleton unless one is installed)."""
    return _TRACER


def current_metrics() -> Union[MetricsRegistry, NullMetrics]:
    """The active metrics registry (no-op singleton by default)."""
    return _METRICS


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator:
    """Install ``tracer`` as the process-wide tracer for the block."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


@contextmanager
def use_metrics(metrics: Union[MetricsRegistry, NullMetrics]) -> Iterator:
    """Install ``metrics`` as the process-wide registry for the block."""
    global _METRICS
    previous, _METRICS = _METRICS, metrics
    try:
        yield metrics
    finally:
        _METRICS = previous


def install_null_collectors() -> None:
    """Make the no-op tracer and registry this process's collectors.

    Pool workers call this before any work: a forked worker inherits
    the parent's live collectors, and whatever it recorded into that
    copy would be thrown away with the process. Worker timings reach
    the parent's trace through the results instead.
    """
    global _TRACER, _METRICS
    _TRACER, _METRICS = NULL_TRACER, NULL_METRICS


def record_degradation(kind: str, reason: str) -> None:
    """Report a degraded-but-successful path (see module docstring).

    ``kind`` is a stable dotted-name suffix (``parallel_to_serial``,
    ``snapshot_rebuild``, ``cache_corrupt``, ``cache_bypass``);
    ``reason`` is the human-readable explanation that ends up in logs,
    the trace event and the run manifest.
    """
    log.warning("degraded path [%s]: %s", kind, reason)
    _METRICS.inc(f"degraded.{kind}")
    _TRACER.event("degraded", kind=kind, reason=reason)
