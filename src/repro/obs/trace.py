"""Structured tracing spans for the analysis pipeline.

A :class:`Tracer` records a tree of timed :class:`Span`\\ s — the
generalization of the flat :class:`~repro.core.pipeline.PipelineTimings`
phase counters that PR 1 introduced. Spans nest (ingest → index build →
worker fan-out → per-worker batches), carry free-form attributes
(row counts, byte counts, degradation reasons) and serialize to a plain
JSON tree (``--trace-out``).

The default tracer is the :data:`NULL_TRACER` singleton whose ``span``
returns a shared no-op context manager — instrumented code pays one
module-global read and one method call per span, so tracing costs
nothing unless a real tracer is installed with :func:`use_tracer` (the
CLI does this when ``--trace-out`` is given).

Two recording styles coexist:

* live spans — ``with tracer.span("index_build") as s: ...; s.set(...)``
  measures the enclosed block;
* post-hoc records — ``tracer.record("aggregate", duration_s=...)``
  attaches an already-measured child (used for phase totals accumulated
  inside worker processes, where the parent's tracer is not running).

The tracer is deliberately not thread-safe: the pipeline parallelizes
across *processes*, and worker-side span data travels back to the
parent with the results (see :func:`repro.core.fanout.fan_out`).
"""

from __future__ import annotations

import time
from typing import Any, Iterator


class Span:
    """One named, timed node of the trace tree."""

    __slots__ = ("name", "start_s", "duration_s", "attrs", "children")

    def __init__(self, name: str, start_s: float = 0.0) -> None:
        self.name = name
        self.start_s = start_s
        self.duration_s = 0.0
        self.attrs: dict[str, Any] = {}
        self.children: list[Span] = []

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (counters, byte sizes, labels) to the span."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class _LiveSpan:
    """Context manager pairing a :class:`Span` with its tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration_s = self._tracer._now() - span.start_s
        if exc_type is not None:
            span.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        popped = self._tracer._stack.pop()
        assert popped is span, "span stack corrupted"
        return False


class Tracer:
    """Collects a span tree for one run (install with :func:`use_tracer`)."""

    enabled = True

    def __init__(self, name: str = "run") -> None:
        self._t0 = time.perf_counter()
        self.started_unix = time.time()
        self.root = Span(name, 0.0)
        self.root.attrs["started_unix"] = self.started_unix
        self._stack: list[Span] = [self.root]

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        """Open a child span of the current span (use as ``with`` target)."""
        span = Span(name, self._now())
        if attrs:
            span.attrs.update(attrs)
        self.current.children.append(span)
        return _LiveSpan(self, span)

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration child span marking a point in time."""
        span = Span(name, self._now())
        span.attrs.update(attrs)
        self.current.children.append(span)
        return span

    def record(self, name: str, duration_s: float = 0.0, **attrs: Any) -> Span:
        """Attach an externally-measured child span (e.g. worker-side time)."""
        span = Span(name, self._now())
        span.duration_s = float(duration_s)
        span.attrs.update(attrs)
        self.current.children.append(span)
        return span

    def finish(self) -> Span:
        """Close the root span (idempotent); returns it."""
        self.root.duration_s = self._now()
        return self.root

    def find(self, name: str) -> list[Span]:
        """All spans with ``name``, depth-first."""
        return [s for s in self.root.walk() if s.name == name]

    def as_dict(self) -> dict:
        if self.root.duration_s == 0.0:
            self.finish()
        return self.root.as_dict()

    def render(self, max_depth: int = 6) -> str:
        """Human-readable indented span tree (the upgraded ``--timings``)."""
        if self.root.duration_s == 0.0:
            self.finish()
        lines: list[str] = []

        def visit(span: Span, depth: int) -> None:
            if depth > max_depth:
                return
            attrs = {
                k: v for k, v in span.attrs.items() if k != "started_unix"
            }
            detail = ""
            if attrs:
                parts = ", ".join(f"{k}={_compact(v)}" for k, v in attrs.items())
                detail = f"  [{parts}]"
            lines.append(
                f"{'  ' * depth}{span.name:<24s} {span.duration_s:9.4f} s{detail}"
            )
            for child in span.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class _NullSpan:
    """Shared do-nothing span: context manager and attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, duration_s: float = 0.0, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def find(self, name: str) -> list:
        return []


NULL_TRACER = NullTracer()
