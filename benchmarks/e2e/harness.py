"""Pure helpers shared by the end-to-end benchmark and its tests.

Nothing here imports ``repro``: result digests read plain attributes of
the objects the program returns, so this module also loads in a
directory that holds only the benchmark (where ``run.py`` must fail
cleanly rather than crash on import).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

#: Worker processes for every pool the benchmark asks for (the host
#: this benchmark was defined on has 2 CPUs; fixed so runs compare).
WORKERS = 2

#: End-to-end metrics: what a user of the system sees. Bounds live in
#: BENCHMARK.json only. Every workload reports every one, so there is
#: no per-request latency here: on ``online`` it ramps with the prefix
#: and its median swings with where the ramp steepens (it is recorded
#: beside the metrics instead).
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("sessions_per_s", "sessions/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Per-layer metrics from the traced run, per request. Times are only
#: given for layers every workload enters; the others appear as their
#: share of wall time (``layer.*_pct``, 0 where idle), and their
#: absolute seconds in the result file's ``layer_detail``.
PER_LAYER_METRICS = (
    ("trace.generate_s", "s"),
    ("trace.qoe_s", "s"),
    ("index.build_s", "s"),
    ("index.epoch_view_s", "s"),
    ("aggregate_s", "s"),
    ("problems_s", "s"),
    ("critical_s", "s"),
    ("unattributed_s", "s"),
    ("layer.trace_pct", "%"),
    ("layer.io_pct", "%"),
    ("layer.shards_pct", "%"),
    ("layer.substrate_pct", "%"),
    ("layer.index_pct", "%"),
    ("layer.aggregation_pct", "%"),
    ("layer.problems_pct", "%"),
    ("layer.critical_pct", "%"),
    ("layer.pipeline_pct", "%"),
    ("layer.online_pct", "%"),
    ("layer.fanout_pct", "%"),
    ("layer.cache_pct", "%"),
    ("layer.report_pct", "%"),
    ("substrate.append_growth", "ratio"),
    ("fanout.efficiency", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("trace_overhead_pct", "%"),
    ("sim.segments", "count"),
    ("index.leaves", "count"),
    ("problems.clusters", "count"),
    ("critical.clusters", "count"),
    ("pipeline.units", "count"),
    ("cache.hit", "count"),
    ("cache.miss", "count"),
    ("io.snapshot_bytes", "bytes"),
    ("cache.bytes", "bytes"),
    ("online.state_mb", "MiB"),
    ("fanout.worker_peak_rss_mb", "MiB"),
    ("degraded.events", "count"),
)

#: Percentiles a tail may be reported at (nearest-rank definition).
TAIL_LADDER = (50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(
    samples: list[float], beyond: int = 10
) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank percentile (the value at 1-based rank
    ``ceil(p/100 * n)``), so ``n - rank`` samples lie beyond it. Returns
    ``(percentile, value)``, or ``None`` when even the median leaves
    fewer than ``beyond`` samples above it. With 72 samples this is
    p85: rank 62 leaves 10 beyond, p90's rank 65 leaves 7.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            best = (p, ordered[rank - 1])
    return best


# -- result digests -----------------------------------------------------
def _labels(keys) -> tuple[str, ...]:
    return tuple(sorted(k.label() for k in keys))


def analysis_rows(analysis, prefix: str = "") -> list[tuple]:
    """One row per (metric, epoch): total sessions, problem-cluster
    count and the sorted critical-cluster labels."""
    return [
        (prefix + name, e.epoch, e.total_sessions, e.n_problem_clusters,
         _labels(e.critical_clusters))
        for name, ma in analysis.metrics.items()
        for e in ma.epochs
    ]


def detector_rows(detectors) -> list[tuple]:
    """The same rows from online detectors' histories and alert
    lifecycles (``critical_keys_at`` is exact with ``clear_after=1``)."""
    return [
        (d.metric.name, obs.epoch, obs.total_sessions, obs.n_problem_clusters,
         _labels(d.critical_keys_at(obs.epoch)))
        for d in detectors
        for obs in d.history
    ]


def fingerprint(rows: list[tuple]) -> str:
    """Order-independent SHA-256 of digest rows."""
    payload = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def rows_mismatch(expected: list[tuple], got: list[tuple]) -> str | None:
    """``None`` when the digests agree, else a one-line description of
    the first differing (metric, epoch)."""
    want = {r[:2]: r for r in expected}
    have = {r[:2]: r for r in got}
    if want == have:
        return None
    for key in sorted(set(want) | set(have)):
        if want.get(key) != have.get(key):
            return f"{key[0]} epoch {key[1]}: expected {want.get(key)}, got {have.get(key)}"
    return "row sets differ"  # pragma: no cover - dict inequality implies a key


# -- statistics ---------------------------------------------------------
def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it improved)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    delta = new - base if better == "lower" else base - new
    return delta / abs(base)


def exceeds_bound(base: float, new: float, better: str, bound: float) -> bool:
    """Whether ``new`` regressed past ``bound`` (a share of ``base``)."""
    return worsening(base, new, better) > bound


# -- process and environment ---------------------------------------------
def peak_rss_mb() -> float:
    """This process's VmHWM in MiB (reset at exec, unlike ru_maxrss,
    which a child inherits from a larger parent across fork+exec)."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM not found in /proc/self/status")


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for descendant, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def git_sha(root: Path = ROOT) -> str | None:
    """HEAD's commit id read from ``.git`` directly, without walking up
    into enclosing repositories; ``None`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                mount, kind = parts[1], parts[2]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def environment(workdir: Path) -> dict:
    """What the run depended on, recorded beside its numbers."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "workdir_fs": filesystem_of(workdir),
        "workers": WORKERS,
        "recorded_unix": time.time(),
    }
