"""Observability sinks: trace JSON, run manifests, human summaries.

Three machine/human read-outs of one instrumented run:

* :func:`write_trace_json` — the full span tree plus the metrics
  snapshot, as one JSON document (the CLI's ``--trace-out``);
* :func:`write_run_manifest` — a compact, machine-readable record of
  *what ran and how it went* (command, arguments, environment, top-level
  timings, degradations), written next to a run's results so a fleet of
  runs stays auditable without parsing logs;
* :func:`~repro.obs.analyze.render_tree` — the indented tree
  ``--timings`` and ``obs view`` print.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.trace import Tracer

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


def _write_atomic(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` via tmp + :func:`os.replace`.

    The same discipline the result cache uses for its entries: a crashed
    or interrupted run can never leave a truncated trace or manifest
    behind to poison later journal ingestion — readers see either the
    old complete file or the new complete file. The tmp is unlinked on
    any failure.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size, in bytes.

    Reads the kernel's high-water mark ``VmHWM`` from
    ``/proc/self/status``. The kernel resets it at ``exec``, so a run
    launched from a large process (a test runner, a bench driver)
    reports its own peak. ``getrusage``'s ``ru_maxrss`` is the fallback
    where ``/proc`` is missing; Linux carries that figure across
    ``exec`` from the launching process, which is why it is not the
    first choice. Forked worker processes report their own peaks, which
    is what makes the shard engine's bounded-parent-memory claim
    observable: the parent's figure stays O(largest shard) while
    workers account for their own mapping. Returns ``None`` where
    neither source exists (non-POSIX).
    """
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024  # kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:  # pragma: no cover - defensive on exotic kernels
        return None
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return int(peak)
    return int(peak) * 1024  # kilobytes on Linux


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of argparse values etc. to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def write_trace_json(
    path: str | Path, tracer: Tracer, metrics: MetricsRegistry | None = None
) -> Path:
    """Write the span tree (+ metrics snapshot) as one JSON document."""
    path = Path(path)
    payload: dict[str, Any] = {"trace": tracer.as_dict()}
    if metrics is not None and not isinstance(metrics, NullMetrics):
        payload["metrics"] = metrics.as_dict()
    return _write_atomic(
        path, json.dumps(payload, indent=2, default=_jsonable) + "\n"
    )


def degradation_reasons(tracer: Tracer) -> list[dict]:
    """Every degraded-path event recorded in the trace, in span order."""
    return [
        {
            "kind": span.attrs.get("kind", "unknown"),
            "reason": span.attrs.get("reason", ""),
        }
        for span in tracer.find("degraded")
    ]


def build_run_manifest(
    command: str,
    argv: list[str] | None,
    tracer: Tracer,
    metrics: MetricsRegistry | None = None,
    args: dict[str, Any] | None = None,
    outputs: list[str] | None = None,
    exit_code: int | None = None,
) -> dict[str, Any]:
    """The run-manifest record as a dict (what :func:`write_run_manifest`
    serializes, and what :class:`~repro.obs.journal.RunJournal` ingests
    when no manifest file was requested)."""
    root = tracer.finish()
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "argv": list(argv) if argv is not None else list(sys.argv[1:]),
        "args": _jsonable(args or {}),
        "started_unix": tracer.started_unix,
        "finished_unix": tracer.started_unix + root.duration_s,
        "duration_s": round(root.duration_s, 6),
        "exit_code": exit_code,
        "outputs": list(outputs or []),
        "host": platform.node(),
        "pid": os.getpid(),
        "peak_rss_bytes": peak_rss_bytes(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "degradations": degradation_reasons(tracer),
        "span_names": sorted({s.name for s in root.walk()}),
    }
    try:  # numpy is a hard dependency, but keep the manifest resilient
        import numpy

        manifest["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is always importable here
        pass
    if metrics is not None and not isinstance(metrics, NullMetrics):
        manifest["metrics"] = metrics.as_dict()
    return manifest


def write_run_manifest(
    path: str | Path,
    command: str,
    argv: list[str] | None,
    tracer: Tracer,
    metrics: MetricsRegistry | None = None,
    args: dict[str, Any] | None = None,
    outputs: list[str] | None = None,
    exit_code: int | None = None,
    manifest: dict[str, Any] | None = None,
) -> Path:
    """Write the machine-readable run manifest next to a run's results.

    Pass a prebuilt ``manifest`` (from :func:`build_run_manifest`) to
    write exactly that record; otherwise one is built from the other
    arguments. The write is atomic (tmp + ``os.replace``)."""
    path = Path(path)
    if manifest is None:
        manifest = build_run_manifest(
            command, argv, tracer, metrics=metrics, args=args,
            outputs=outputs, exit_code=exit_code,
        )
    return _write_atomic(
        path, json.dumps(manifest, indent=2, default=_jsonable) + "\n"
    )


def manifest_path_for(trace_out: str | Path) -> Path:
    """Where the run manifest lives for a given ``--trace-out`` path."""
    trace_out = Path(trace_out)
    return trace_out.with_name(trace_out.stem + ".manifest.json")


def utcnow_unix() -> float:
    """Seconds since the epoch (isolated for testability)."""
    return time.time()
