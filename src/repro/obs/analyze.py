"""Span-tree analytics: aggregation, critical path, hotspot ranking.

Every consumer of a recorded trace — ``obs view``, ``obs diff``, the
run journal, the regression gate — needs the same three reductions of
the span tree, so they live here once:

* :func:`span_stats` — per-name aggregation (count, total time, self
  time, max single span). Self time is a span's duration minus its
  children's, clamped at zero: under a worker fan-out the children run
  in parallel and their summed durations legitimately exceed the
  parent's wall time.
* :func:`critical_path` — the root-to-leaf chain obtained by always
  descending into the longest child. Through a parallel fan-out this
  picks the slowest worker, which is exactly the chain that bounds the
  run's wall clock.
* :func:`top_spans` — hotspot ranking by aggregate self time; where the
  run actually spent its time, not which phase contains it.

All functions operate on the plain-dict JSON form of a span tree (what
``--trace-out`` writes); live :class:`~repro.obs.trace.Span` objects
are accepted and normalized via ``as_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.trace import Span


def normalize_tree(tree: Any) -> dict:
    """A span tree as a plain dict (accepts ``Span`` or dict)."""
    if isinstance(tree, Span):
        return tree.as_dict()
    if isinstance(tree, dict) and "name" in tree:
        return tree
    raise ValueError(
        "expected a span dict (with 'name') or a Span, "
        f"got {type(tree).__name__}"
    )


def load_trace_json(path: str | Path) -> dict:
    """Load a ``--trace-out`` JSON document ``{"trace": ..., "metrics": ...}``.

    Raises ``ValueError`` on malformed documents so CLI consumers exit 2
    with a one-line message instead of a traceback.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or "trace" not in payload:
        raise ValueError(f"{path} is not a trace JSON (no 'trace' key)")
    normalize_tree(payload["trace"])  # validates shape
    return payload


def walk_tree(tree: dict, depth: int = 0) -> Iterator[tuple[dict, int]]:
    """Depth-first ``(span_dict, depth)`` pairs over the tree."""
    yield tree, depth
    for child in tree.get("children", ()):
        yield from walk_tree(child, depth + 1)


@dataclass
class SpanStats:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": round(self.total_s, 6),
            "self_s": round(self.self_s, 6),
            "max_s": round(self.max_s, 6),
        }


def span_stats(tree: Any) -> dict[str, SpanStats]:
    """Per-name aggregation over the whole tree.

    ``self_s`` is duration minus the children's summed durations,
    clamped at zero (parallel children can exceed the parent's wall
    time). The returned dict preserves first-visit (depth-first) order,
    which reads naturally as "pipeline order".
    """
    tree = normalize_tree(tree)
    stats: dict[str, SpanStats] = {}
    for span, _ in walk_tree(tree):
        name = span["name"]
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanStats(name)
        duration = float(span.get("duration_s", 0.0))
        child_s = sum(
            float(c.get("duration_s", 0.0)) for c in span.get("children", ())
        )
        entry.count += 1
        entry.total_s += duration
        entry.self_s += max(0.0, duration - child_s)
        entry.max_s = max(entry.max_s, duration)
    return stats


def critical_path(tree: Any) -> list[dict]:
    """Root-to-leaf chain following the longest child at every level.

    Under the worker fan-out the children of ``fanout`` ran in
    parallel, so the longest child *is* the wall-clock-critical one;
    elsewhere children are sequential and the longest child is simply
    the dominant phase. Each entry carries the span's duration and its
    exclusive share of the path (duration minus the chosen child's).
    """
    node = normalize_tree(tree)
    path: list[dict] = []
    while True:
        duration = float(node.get("duration_s", 0.0))
        children = node.get("children", ())
        chosen = None
        if children:
            chosen = max(
                children, key=lambda c: float(c.get("duration_s", 0.0))
            )
        chosen_s = float(chosen.get("duration_s", 0.0)) if chosen else 0.0
        path.append(
            {
                "name": node["name"],
                "duration_s": round(duration, 6),
                "self_s": round(max(0.0, duration - chosen_s), 6),
                "attrs": dict(node.get("attrs", {})),
            }
        )
        if chosen is None:
            return path
        node = chosen


def top_spans(tree: Any, n: int = 10) -> list[SpanStats]:
    """The ``n`` span names with the largest aggregate self time."""
    ranked = sorted(
        span_stats(tree).values(), key=lambda s: s.self_s, reverse=True
    )
    return ranked[: max(0, n)]


def render_tree(tree: Any, max_depth: int = 6) -> str:
    """Indented span tree, one line per span down to ``max_depth``: its
    name, seconds and attributes. What ``--timings`` prints after a run
    (from ``Tracer.as_dict()``) and ``obs view`` prints from a saved
    trace."""
    tree = normalize_tree(tree)
    lines: list[str] = []
    for span, depth in walk_tree(tree):
        if depth > max_depth:
            continue
        attrs = {
            k: v
            for k, v in span.get("attrs", {}).items()
            if k != "started_unix"
        }
        detail = ""
        if attrs:
            parts = ", ".join(f"{k}={_compact(v)}" for k, v in attrs.items())
            detail = f"  [{parts}]"
        lines.append(
            f"{'  ' * depth}{span['name']:<24s} "
            f"{float(span.get('duration_s', 0.0)):9.4f} s{detail}"
        )
    return "\n".join(lines)


def render_critical_path(path: list[dict]) -> str:
    """One line per hop: name, duration, exclusive contribution."""
    total = path[0]["duration_s"] if path else 0.0
    lines = []
    for i, hop in enumerate(path):
        share = 100.0 * hop["duration_s"] / total if total > 0 else 0.0
        lines.append(
            f"{'  ' * i}{hop['name']:<24s} {hop['duration_s']:9.4f} s "
            f"({share:5.1f}% of run, self {hop['self_s']:.4f} s)"
        )
    return "\n".join(lines)


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
