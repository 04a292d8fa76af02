"""Append-only run journal: the pipeline's own measurement history.

The paper's central observation — quality problems are *structured over
time*, persistent and recurrent per cluster — applies to the
reproduction pipeline itself: a performance regression is a problem
cluster in the history of runs, and it can only be detected against a
kept baseline (the same discipline Ghasemi et al. and YouLighter apply
to production QoE telemetry). :class:`RunJournal` is that baseline
store.

Every instrumented run (``--journal`` on the CLI, or
:meth:`RunJournal.ingest` programmatically) appends one normalized JSON
line to ``<dir>/journal.jsonl`` combining the run manifest, a per-name
span aggregation, the wall-clock critical path, the metrics snapshot, a
config digest (for "last K *matching* runs" baselines) and the current
git SHA. Records are self-describing (``journal_version``) and the
reader is tolerant: corrupt lines are skipped with a warning, records
from a different journal version are rejected with a warning — one bad
byte never poisons the history.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
from pathlib import Path
from typing import Any, Iterator

from repro.obs.analyze import critical_path, span_stats
from repro.obs.sinks import utcnow_unix

log = logging.getLogger("repro.obs.journal")

#: Bumped when the record layout changes incompatibly; records carrying
#: a different version are rejected (skipped with a warning) on read.
JOURNAL_VERSION = 1

#: Manifest args that never affect what a run computes or how fast —
#: they are excluded from the config digest so output paths and
#: observability knobs don't fragment the baseline.
_DIGEST_EXCLUDED_ARGS = frozenset(
    {"output", "trace_out", "journal", "timings", "profile"}
)


def config_digest(command: str, args: dict[str, Any] | None) -> str:
    """Digest identifying "the same run configuration".

    Covers the command and every argument except pure output paths and
    observability flags (:data:`_DIGEST_EXCLUDED_ARGS`): two runs with
    equal digests computed the same thing over the same inputs with the
    same execution knobs, so their timings are directly comparable.
    """
    payload = {
        "command": command,
        "args": {
            k: v
            for k, v in sorted((args or {}).items())
            if k not in _DIGEST_EXCLUDED_ARGS
        },
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_sha(cwd: str | Path | None = None) -> str | None:
    """Current git commit SHA, or ``None`` outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha if sha else None


class RunJournal:
    """Append-only JSONL history of instrumented runs."""

    #: Default location, relative to the working directory.
    DEFAULT_DIR = ".repro-journal"

    def __init__(self, path: str | Path = DEFAULT_DIR) -> None:
        self.dir = Path(path)
        self.file = self.dir / "journal.jsonl"

    # -- writing -----------------------------------------------------------
    def ingest(
        self,
        manifest: dict[str, Any],
        trace: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Normalize one run (manifest + optional span tree) into a
        record and append it. Returns the record (with its ``run_id``).

        ``trace`` is the span tree in JSON form (``tracer.as_dict()`` or
        the ``"trace"`` key of a ``--trace-out`` document); when given,
        the record carries the per-name phase aggregation and the
        critical path, which is what ``obs diff`` compares.
        """
        if not isinstance(manifest, dict) or "command" not in manifest:
            raise ValueError("manifest must be a dict with a 'command' key")
        command = manifest["command"]
        args = manifest.get("args") or {}
        record: dict[str, Any] = {
            "journal_version": JOURNAL_VERSION,
            "run_id": "",  # filled by append()
            "recorded_unix": utcnow_unix(),
            "command": command,
            "config_digest": config_digest(command, args),
            "git_sha": git_sha(),
            "argv": manifest.get("argv", []),
            "args": args,
            "started_unix": manifest.get("started_unix"),
            "duration_s": manifest.get("duration_s", 0.0),
            "exit_code": manifest.get("exit_code"),
            "host": manifest.get("host"),
            "python": manifest.get("python"),
            "peak_rss_bytes": manifest.get("peak_rss_bytes"),
            "degradations": manifest.get("degradations", []),
            "metrics": manifest.get("metrics")
            or {"counters": {}, "gauges": {}, "histograms": {}},
            "phases": {},
            "critical_path": [],
        }
        if trace is not None:
            record["phases"] = {
                name: stats.as_dict()
                for name, stats in span_stats(trace).items()
            }
            record["critical_path"] = [
                {k: hop[k] for k in ("name", "duration_s", "self_s")}
                for hop in critical_path(trace)
            ]
        return self.append(record)

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one record, stamping ``run_id`` and ``journal_version``."""
        record.setdefault("journal_version", JOURNAL_VERSION)
        record.setdefault("recorded_unix", utcnow_unix())
        if not record.get("run_id"):
            record["run_id"] = self._next_run_id(record)
        self.dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        if "\n" in line:  # defensive: one record is one line, always
            raise ValueError("journal records must serialize to one line")
        with open(self.file, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return record

    def _next_run_id(self, record: dict[str, Any]) -> str:
        """``r<seq>-<digest6>``: human-orderable, collision-safe."""
        seq = self._line_count() + 1
        blob = json.dumps(
            [record.get("command"), record.get("started_unix"),
             record.get("recorded_unix"), os.getpid(), seq],
            default=str,
        )
        suffix = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:6]
        return f"r{seq:05d}-{suffix}"

    def _line_count(self) -> int:
        try:
            with open(self.file, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    # -- reading -----------------------------------------------------------
    def _iter_records(self) -> Iterator[dict[str, Any]]:
        """Valid records in append order; corrupt lines and version
        mismatches are skipped with a warning, never raised."""
        try:
            with open(self.file, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                log.warning(
                    "journal %s line %d: corrupt record skipped",
                    self.file, lineno,
                )
                continue
            if not isinstance(record, dict):
                log.warning(
                    "journal %s line %d: corrupt record skipped",
                    self.file, lineno,
                )
                continue
            version = record.get("journal_version")
            if version != JOURNAL_VERSION:
                log.warning(
                    "journal %s line %d: version %r rejected "
                    "(this reader speaks version %d)",
                    self.file, lineno, version, JOURNAL_VERSION,
                )
                continue
            yield record

    def records(
        self,
        command: str | None = None,
        config_digest: str | None = None,
        last: int | None = None,
    ) -> list[dict[str, Any]]:
        """Matching records in append order (optionally only the last N)."""
        out = [
            r
            for r in self._iter_records()
            if (command is None or r.get("command") == command)
            and (
                config_digest is None
                or r.get("config_digest") == config_digest
            )
        ]
        if last is not None:
            out = out[-max(0, last):] if last else []
        return out

    def get(self, run_id: str) -> dict[str, Any] | None:
        """The record with ``run_id`` (or a unique prefix of one)."""
        exact = [r for r in self._iter_records() if r.get("run_id") == run_id]
        if exact:
            return exact[-1]
        prefixed = [
            r
            for r in self._iter_records()
            if str(r.get("run_id", "")).startswith(run_id)
        ]
        if len(prefixed) == 1:
            return prefixed[0]
        return None

    def latest(self, command: str | None = None) -> dict[str, Any] | None:
        """The most recent (optionally command-matching) record."""
        matching = self.records(command=command)
        return matching[-1] if matching else None

    def baseline(
        self,
        record: dict[str, Any],
        k: int = 5,
    ) -> dict[str, Any] | None:
        """Synthetic baseline record: the mean of the last ``k`` runs
        matching ``record``'s command + config digest (excluding the
        record itself). ``None`` when no matching history exists.

        Phase totals, duration and peak RSS are averaged element-wise;
        that is the "learned normal" a new run is diffed against.
        """
        matching = [
            r
            for r in self.records(
                command=record.get("command"),
                config_digest=record.get("config_digest"),
            )
            if r.get("run_id") != record.get("run_id")
        ][-max(1, k):]
        if not matching:
            return None
        phases: dict[str, dict[str, float]] = {}
        counts: dict[str, int] = {}
        for r in matching:
            for name, stats in (r.get("phases") or {}).items():
                agg = phases.setdefault(
                    name, {"count": 0.0, "total_s": 0.0, "self_s": 0.0,
                           "max_s": 0.0}
                )
                for key in agg:
                    agg[key] += float(stats.get(key, 0.0))
                counts[name] = counts.get(name, 0) + 1
        for name, agg in phases.items():
            for key in agg:
                agg[key] /= counts[name]
        durations = [float(r.get("duration_s") or 0.0) for r in matching]
        rss = [
            r["peak_rss_bytes"]
            for r in matching
            if r.get("peak_rss_bytes") is not None
        ]
        return {
            "journal_version": JOURNAL_VERSION,
            "run_id": f"baseline[{len(matching)}]",
            "command": record.get("command"),
            "config_digest": record.get("config_digest"),
            "duration_s": sum(durations) / len(durations),
            "peak_rss_bytes": (sum(rss) / len(rss)) if rss else None,
            "phases": phases,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "baseline_of": [r.get("run_id") for r in matching],
        }
