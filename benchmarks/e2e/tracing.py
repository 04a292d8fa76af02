"""Bench-owned spans for the traced run, and their reduction to layers.

``patched()`` wraps a fixed set of public entry points in spans for the
duration of a traced round and puts the originals back afterwards; the
program's own spans, counters and returned ``PipelineTimings`` come
along unchanged and no program source is edited. ``layer_values``
turns one traced round into the per-layer metrics, and ``self_times``
splits its wall time into layer self times plus ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute path) of every wrapped entry point. The two
#: detectors are patched where ``repro.core.online`` imported them, so
#: only the online path's calls are spanned.
PATCH_POINTS = (
    ("repro.trace.generator", "generate_trace"),
    ("repro.io.binary", "read_sessions_npz"),
    ("repro.core.shards", "build_shard_store"),
    ("repro.core.shards", "analyze_shards"),
    ("repro.core.substrate", "StreamingSubstrate.append"),
    ("repro.core.substrate", "StreamingSubstrate.epoch_view"),
    ("repro.core.index", "EpochClusterView.aggregate"),
    ("repro.core.online", "find_problem_clusters"),
    ("repro.core.online", "find_critical_clusters"),
    ("repro.core.pipeline", "analyze_trace"),
    ("repro.core.substrate", "analyze_sweep"),
    ("repro.analysis.report", "write_report"),
    ("repro.core.resultcache", "ResultCache.get"),
    ("repro.core.resultcache", "ResultCache.put"),
)


def span_name(path: str) -> str:
    return "bench." + path


def resolve(module_name: str, path: str) -> tuple[object, str]:
    """The object owning the patched attribute, and the attribute name."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _spanned(fn, name: str):
    from repro.obs import current_tracer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with current_tracer().span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def patched(points=PATCH_POINTS):
    """Wrap every patch point in a span; restore the originals on exit."""
    saved = []
    try:
        for module_name, path in points:
            owner, attr = resolve(module_name, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(original, span_name(path)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: Spans attached after the fact with time measured elsewhere (inside
#: pool workers, or summed phase counters). Their time is not the
#: parent's wall, so it is neither a layer's self time nor subtracted
#: from the enclosing span's.
OFF_WALL = frozenset(
    {"worker", "shard", "shard.write", "aggregate", "problems", "critical", "degraded"}
)

#: Layer of each span name. A span not listed belongs to the layer of
#: the span enclosing it.
LAYER_OF = {
    span_name("generate_trace"): "trace",
    "generate.world": "trace",
    "generate.events": "trace",
    "generate.qoe": "trace",
    span_name("read_sessions_npz"): "io",
    "ingest": "io",
    "snapshot.save": "io",
    "snapshot.load": "io",
    span_name("build_shard_store"): "shards",
    "shards.build": "shards",
    span_name("analyze_shards"): "shards",
    "analyze_shards": "shards",
    "shards": "shards",
    "substrate.build": "substrate",
    span_name("StreamingSubstrate.append"): "substrate",
    span_name("analyze_sweep"): "substrate",
    "analyze_sweep": "substrate",
    "index.build": "index",
    "index_build": "index",
    span_name("StreamingSubstrate.epoch_view"): "index",
    span_name("EpochClusterView.aggregate"): "aggregation",
    span_name("find_problem_clusters"): "problems",
    span_name("find_critical_clusters"): "critical",
    span_name("analyze_trace"): "pipeline",
    "analyze_trace": "pipeline",
    "online.observe_epoch": "online",
    "worker_payload": "fanout",
    "fanout": "fanout",
    "cache.probe": "cache",
    "cache.load": "cache",
    "cache.store": "cache",
    span_name("ResultCache.get"): "cache",
    span_name("ResultCache.put"): "cache",
    span_name("write_report"): "report",
}


def self_times(root) -> dict[str, float]:
    """Wall time below ``root`` split into layer self times.

    A span's self time is its duration minus the part its (on-wall)
    children cover; ``root``'s own self time is ``unattributed``. The
    values sum to ``root.duration_s`` by construction, so a negative
    entry means a child outlived its parent.
    """
    out: dict[str, float] = defaultdict(float)

    def visit(span, layer: str) -> None:
        children = [c for c in span.children if c.name not in OFF_WALL]
        out[layer] += span.duration_s - sum(c.duration_s for c in children)
        for child in children:
            visit(child, LAYER_OF.get(child.name, layer))

    visit(root, "unattributed")
    return dict(out)


#: Every layer ``self_times`` can report besides ``unattributed``.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: Per-layer values that are ratios or end-of-round levels, not amounts
#: that scale with the number of requests.
NOT_PER_REQUEST = frozenset(
    {"substrate.append_growth", "fanout.efficiency", "cache.hit_ratio",
     "cache.bytes", "online.state_mb"}
    | {f"layer.{layer}_pct" for layer in LAYERS}
)


def _append_growth(spans) -> float:
    """Mean append time over the last third of epochs over the first."""
    per_epoch: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name != "online.observe_epoch":
            continue
        for child in span.walk():
            if child.name == span_name("StreamingSubstrate.append"):
                per_epoch[span.attrs["epoch"]] += child.duration_s
    times = [per_epoch[e] for e in sorted(per_epoch)]
    third = len(times) // 3
    if third == 0 or sum(times[:third]) == 0:
        return 0.0
    return statistics.fmean(times[-third:]) / statistics.fmean(times[:third])


def layer_values(round_span, registry: dict, facts: dict, requests: int) -> dict:
    """Per-layer values of one traced round, per request.

    Span totals are inclusive durations in the parent process; work
    done inside pool workers comes from ``facts`` (the returned
    ``PipelineTimings``), which take precedence where both exist.
    ``layer.<layer>_pct`` is the layer's self time as a share of the
    round's wall.
    """
    spans = list(round_span.walk())
    layers = self_times(round_span)

    def total(name: str) -> float:
        return sum(s.duration_s for s in spans if s.name == name)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    counters, gauges = registry["counters"], registry["gauges"]
    hits, misses = counters.get("cache.hit", 0), counters.get("cache.miss", 0)
    values = {
        "sim.segments": counters.get("generate.segments", 0),
        "io.ingest_s": total("ingest"),
        "io.snapshot_save_s": total("snapshot.save"),
        "io.snapshot_bytes": counters.get("snapshot.saved_bytes", 0),
        "substrate.build_s": total("substrate.build"),
        "substrate.append_s": total(span_name("StreamingSubstrate.append")),
        "substrate.append_growth": _append_growth(spans),
        "index.build_s": total("index.build"),
        "index.leaves": attr_sum("index.build", "leaves"),
        "index.epoch_view_s": total(span_name("StreamingSubstrate.epoch_view")),
        "aggregate_s": total(span_name("EpochClusterView.aggregate")),
        "problems_s": total(span_name("find_problem_clusters")),
        "critical_s": total(span_name("find_critical_clusters")),
        "shards.build_s": total("shards.build"),
        "fanout.payload_s": total("worker_payload"),
        "fanout.worker_busy_s": total("worker") + total("shard"),
        "fanout.queue_wait_s": attr_sum("worker", "queue_wait_s"),
        "cache.hit": hits,
        "cache.miss": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.probe_s": total("cache.probe"),
        "cache.load_s": total("cache.load"),
        "cache.store_s": total("cache.store"),
        "cache.bytes": gauges.get("cache.bytes", 0),
        "report.build_s": total(span_name("write_report")),
        "unattributed_s": layers.get("unattributed", 0.0),
    }
    for layer in LAYERS:
        values[f"layer.{layer}_pct"] = 100.0 * layers.get(layer, 0.0) / round_span.duration_s
    values.update(facts)
    return {
        name: value if name in NOT_PER_REQUEST else value / requests
        for name, value in values.items()
    }
