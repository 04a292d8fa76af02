"""Content-addressed cache of per-(shard, config) analysis results.

The paper's diagnosis workflow is repetitive by design: the same
mostly-unchanged session history is re-analyzed daily, and threshold
sweeps run many configs over identical shard bytes (PAPER.md §4–5).
The shard merge (:func:`~repro.core.shards.merge_shard_analyses`)
only concatenates epochs, which makes the per-shard
:class:`~repro.core.pipeline.TraceAnalysis` the natural memoization
unit — this module persists those partials so warm runs are pure
load + merge. An entry holds the shard's results only: per metric one
:class:`~repro.core.pipeline.ResultTable` (per-epoch columns plus
problem and critical rows with keys packed against the shard's codec)
and the shard's label tables; timelines and streaks are derived after
the merge, never stored.

**Keys are content addresses, never paths or mtimes.** A cache entry's
key (:func:`shard_result_key`) is the SHA-256 of a canonical record
binding everything that determines the result:

* the shard snapshot's payload ``content_sha256`` (stamped at
  ``save_substrate`` time, so keying never re-hashes array bytes),
* the store's attribute-schema digest,
* :meth:`~repro.core.pipeline.AnalysisConfig.config_digest` — which
  covers every config field; the ``workers`` count is a call argument,
  not config, since results are identical at any count,
* the shard's split: a digest of each row's shard-local epoch (its
  store epoch minus the shard's first store epoch, in row order), which
  both store builders record in the manifest and
  :meth:`~repro.core.shards.ShardStore.load_shard` checks, plus the
  shard's epoch count. Identical payload bytes split differently (at
  epoch lengths that are not exact in binary, a store rebuilt with
  earlier sessions can move a row across an epoch edge) or spread over
  a different number of epochs (e.g. empty gap shards) produce
  different results; the same split does not, whatever the store's
  origin, so a rolling-window or backfilled rebuild keeps its
  unchanged shards' entries,
* :data:`RESULT_FORMAT_VERSION`, bumped whenever the pickled result
  shape changes.

Anything that would change the analysis changes the key, so
invalidation is automatic: appending a day via ``ShardStoreBuilder``
rewrites only the affected shard snapshots, and only those shards
miss.

**Entries are self-verifying files.** Each entry is
``magic + version + payload length + payload sha256 + pickle``,
written to a unique temp file and :func:`os.replace`\\ d into place, so
readers never observe a partial entry. On read, truncation, a bad
digest, or a version mismatch degrades to a logged miss
(:func:`~repro.obs.record_degradation`) — a corrupt cache can slow a
run down but never corrupt its output.

**Eviction is LRU over a byte cap.** Hits bump the entry's mtime;
:meth:`ResultCache.evict_to` removes oldest-first (name-ordered on
ties for determinism) until the store fits. The cache emits
``cache.hit`` / ``cache.miss`` / ``cache.evict`` counters and byte
gauges through :mod:`repro.obs`, so run manifests record exactly how
warm a run was.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path

from repro.obs import current_metrics, current_tracer, record_degradation

#: Bumped whenever the pickled result payload shape changes; old
#: entries then miss (and age out via LRU) instead of being migrated.
#: Version 2 entries hold no cluster timelines. Version 3 entries split
#: each shard by the store grid's epochs; a version 2 entry at an epoch
#: length that is not exact in binary may hold a different split.
#: Version 4 keys bind the shard's split digest, not the store origin.
#: Version 5 entries hold each metric's results as columns of packed
#: keys plus the shard's label tables, not per-epoch dicts.
RESULT_FORMAT_VERSION = 5

#: Entry file magic ("repro result cache", format 1).
ENTRY_MAGIC = b"RPRORC1\0"

#: Cache entry file suffix.
ENTRY_SUFFIX = ".rce"

# magic + uint32 format version + uint64 payload length + 32-byte
# payload sha256, followed by the pickled payload.
_ENTRY_HEADER = struct.Struct("<8sIQ32s")


def shard_result_key(
    payload_sha256: str,
    schema_sha256: str,
    config_digest: str,
    split_sha256: str,
    n_epochs: int,
) -> str:
    """Content address of one (shard, config) analysis result.

    ``split_sha256`` digests the shard's rows' local epochs
    (:func:`~repro.core.shards.split_sha256`) and ``n_epochs`` is its
    epoch count. See the module docstring for why each component is
    present. The record is canonical JSON (sorted keys, fixed
    separators), so the same inputs always produce the same key across
    processes and runs.
    """
    spec = {
        "format": RESULT_FORMAT_VERSION,
        "payload_sha256": str(payload_sha256),
        "schema_sha256": str(schema_sha256),
        "config_digest": str(config_digest),
        "split_sha256": str(split_sha256),
        "n_epochs": int(n_epochs),
    }
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time shape of a cache directory."""

    entries: int
    total_bytes: int
    max_bytes: int | None


class ResultCache:
    """A directory of self-verifying, content-addressed result entries.

    ``max_bytes`` caps the total size of entry files; ``None`` means
    unbounded (``cache prune`` can still shrink it later). The
    directory is created on first use; a cache directory is always
    safe to delete wholesale — it holds only derived data.
    """

    def __init__(self, path: str | Path, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.path = Path(path)
        self.max_bytes = max_bytes

    def entry_path(self, key: str) -> Path:
        return self.path / f"{key}{ENTRY_SUFFIX}"

    # -- read path ---------------------------------------------------
    def get(self, key: str) -> object | None:
        """Load and verify one entry; ``None`` on any kind of miss.

        An absent entry is a plain miss. A present-but-unreadable one
        (truncated, bad magic, version-mismatched, digest mismatch,
        unpicklable) is a *degraded* miss: it is reported through
        :func:`record_degradation` and the entry is removed so it
        cannot fail again, but the caller just recomputes.
        """
        path = self.entry_path(key)
        tracer = current_tracer()
        with tracer.span("cache.load", key=key[:16]) as span:
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                current_metrics().inc("cache.miss")
                span.set(outcome="miss")
                return None
            except OSError as exc:
                self._degraded_miss(path, f"unreadable entry: {exc}")
                span.set(outcome="degraded_miss")
                return None
            try:
                value = self._decode(path, blob)
            except ValueError as exc:
                self._degraded_miss(path, str(exc))
                span.set(outcome="degraded_miss")
                return None
            # LRU recency: hits move the entry to the back of the
            # eviction queue.
            try:
                os.utime(path)
            except OSError:
                pass
            current_metrics().inc("cache.hit")
            span.set(outcome="hit", bytes=len(blob))
            return value

    @staticmethod
    def _decode(path: Path, blob: bytes) -> object:
        if len(blob) < _ENTRY_HEADER.size:
            raise ValueError(f"{path}: truncated cache entry header")
        magic, version, length, digest = _ENTRY_HEADER.unpack(
            blob[: _ENTRY_HEADER.size]
        )
        if magic != ENTRY_MAGIC:
            raise ValueError(
                f"{path}: bad cache-entry magic {magic!r} "
                f"(expected {ENTRY_MAGIC!r})"
            )
        if version != RESULT_FORMAT_VERSION:
            raise ValueError(
                f"{path}: cache-entry format v{version} != "
                f"v{RESULT_FORMAT_VERSION}"
            )
        payload = blob[_ENTRY_HEADER.size :]
        if len(payload) != length:
            raise ValueError(
                f"{path}: truncated cache entry "
                f"({len(payload)} of {length} payload bytes)"
            )
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError(f"{path}: cache-entry payload digest mismatch")
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise ValueError(
                f"{path}: cache-entry payload does not unpickle: {exc}"
            ) from exc

    def _degraded_miss(self, path: Path, reason: str) -> None:
        record_degradation(
            "cache_corrupt", f"{reason}; treating as a miss"
        )
        try:
            path.unlink()
        except OSError:
            pass
        current_metrics().inc("cache.miss")

    # -- write path --------------------------------------------------
    def put(self, key: str, value: object) -> bool:
        """Store one entry atomically; returns whether it was written.

        A failed store (disk full, permissions, unpicklable value) is
        reported through :func:`record_degradation` and returns
        ``False`` — caching is an optimization, never a reason to fail
        the analysis that just succeeded. Writing may evict older
        entries to respect ``max_bytes``.
        """
        path = self.entry_path(key)
        tracer = current_tracer()
        with tracer.span("cache.store", key=key[:16]) as span:
            try:
                # pickle signals unpicklable values inconsistently
                # (PicklingError, AttributeError, TypeError, ...), so
                # treat any serialization failure as "not cacheable".
                try:
                    payload = pickle.dumps(
                        value, protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception as exc:
                    raise pickle.PicklingError(str(exc)) from exc
                header = _ENTRY_HEADER.pack(
                    ENTRY_MAGIC,
                    RESULT_FORMAT_VERSION,
                    len(payload),
                    hashlib.sha256(payload).digest(),
                )
                self.path.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
                try:
                    tmp.write_bytes(header + payload)
                    os.replace(tmp, path)
                finally:
                    tmp.unlink(missing_ok=True)
            except (OSError, pickle.PicklingError) as exc:
                record_degradation(
                    "cache_store_failed",
                    f"could not store cache entry {key[:16]}…: {exc}",
                )
                span.set(outcome="failed")
                return False
            span.set(outcome="stored", bytes=len(payload))
            current_metrics().inc("cache.store")
            if self.max_bytes is not None:
                self.evict_to(self.max_bytes)
            self._record_size()
            return True

    # -- maintenance -------------------------------------------------
    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        if not self.path.is_dir():
            return []
        out = []
        for p in self.path.iterdir():
            if p.suffix != ENTRY_SUFFIX:
                continue
            try:
                out.append((p, p.stat()))
            except OSError:
                continue
        return out

    def stats(self) -> CacheStats:
        entries = self._entries()
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(st.st_size for _, st in entries),
            max_bytes=self.max_bytes,
        )

    def evict_to(self, max_bytes: int) -> list[str]:
        """Remove least-recently-used entries until the cache fits.

        Recency is file mtime (bumped on every hit); ties break on
        file name so eviction order is deterministic under coarse
        filesystem timestamps. Returns the evicted keys.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self._entries()
        total = sum(st.st_size for _, st in entries)
        if total <= max_bytes:
            return []
        evicted: list[str] = []
        metrics = current_metrics()
        for path, st in sorted(
            entries, key=lambda e: (e[1].st_mtime_ns, e[0].name)
        ):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            evicted.append(path.name[: -len(ENTRY_SUFFIX)])
            metrics.inc("cache.evict")
        self._record_size()
        return evicted

    def _record_size(self) -> None:
        stats = self.stats()
        metrics = current_metrics()
        metrics.gauge("cache.bytes", stats.total_bytes)
        metrics.gauge("cache.entries", stats.entries)
