"""Epoch-range shard store and bounded-memory map/merge analysis.

The paper's dataset is ~300M sessions over two weeks (Section 2); the
monolithic engine assumes the packed table, the
:class:`~repro.core.index.TraceClusterIndex` and the per-epoch row
splits all fit in one process. This module removes that assumption by
partitioning a trace into **epoch-range shards**:

* :func:`build_shard_store` (a whole in-memory table) and
  :class:`ShardStoreBuilder` (chunks in any arrival order, held in
  memory until :meth:`~ShardStoreBuilder.finalize`) cut the trace into
  ``(epoch_lo, epoch_hi, table)`` parts and hand them to one writer,
  which saves each part as an ordinary substrate snapshot
  (:mod:`repro.io.snapshot`: the shard's session table, nothing derived
  from it) and then one store-level JSON manifest (``manifest.json``:
  epoch grid, shard boundaries, schema hash, per-shard session counts
  and split digests). Writing a store packs and indexes nothing.
* :func:`analyze_shards` / :func:`sweep_shards` map shards across the
  process pool of :func:`~repro.core.fanout.fan_out` — each worker
  mmap-loads only its shard's snapshot (the zero-copy load path) and
  indexes it, so the parent's peak memory stays O(largest shard), not
  O(trace) — then fold the per-shard results through the exact
  **merge layer**:

  - each metric's result tables concatenate by manifest offsets
    (epochs are renumbered ``shard.epoch_lo + local``), after checking
    that each shard's result covers exactly its range; every shard's
    keys stay packed against its own codec (each shard codes its own
    labels, and the union of the shards' vocabularies need not fit one
    packing), and identity across shards is label identity,
  - nothing else: a shard result carries only its epochs, and the
    merged analysis derives its
    :class:`~repro.core.streaks.ClusterTimeline`\\ s from the merged
    epochs like every other analysis, so persistence streaks coalesce
    across shard boundaries — a problem run ending at one shard's last
    epoch and resuming at the next shard's first epoch is one logical
    event, exactly as the monolithic engine reports it.

Output is bit-identical to ``analyze_trace`` over the unsharded table —
same problem/critical cluster sets, series, prevalence and
boundary-spanning streaks — pinned across shard counts and ragged last
shards by ``tests/property/test_shard_equivalence.py``. Shard
boundaries are analysis-invariant because every per-epoch quantity
(aggregation, ``min_sessions`` resolution, the problem predicate, the
critical DP) depends only on that epoch's sessions, and the merge layer
restores all cross-epoch structure exactly (DESIGN.md §7).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.core.epoching import (
    DEFAULT_EPOCH_SECONDS,
    EpochGrid,
    split_into_epochs,
)
from repro.core.fanout import fan_out
from repro.core.pipeline import (
    AnalysisConfig,
    MetricAnalysis,
    PipelineTimings,
    ResultTable,
    TraceAnalysis,
    resolve_worker_count,
)
from repro.core.resultcache import ResultCache, shard_result_key
from repro.core.sessions import Session, SessionTable
from repro.core.substrate import AnalysisSubstrate, analyze_sweep
from repro.io.snapshot import (
    load_substrate,
    save_substrate,
    schema_sha256,
    snapshot_content_sha256,
)
from repro.obs import (
    current_metrics,
    current_tracer,
    peak_rss_bytes,
    record_degradation,
)

#: Store-level manifest file name inside a shard-store directory.
STORE_MANIFEST = "manifest.json"

#: Store manifest format marker and version; version-mismatched stores
#: must be rebuilt, not migrated. Version 3 stores table-only shard
#: snapshots.
STORE_KIND = "repro-shard-store"
STORE_VERSION = 3


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the store manifest.

    ``epoch_lo``/``epoch_hi`` are store-grid epoch indices bounding the
    shard's half-open range ``[epoch_lo, epoch_hi)``; ranges of
    consecutive shards abut exactly and together cover the whole grid.
    ``split_sha256`` is :func:`split_sha256` of the shard's rows: the
    split :meth:`ShardStore.load_shard` must reproduce and the result
    cache keys on, so it must be a SHA-256 hex digest.
    """

    file: str
    epoch_lo: int
    epoch_hi: int
    sessions: int
    split_sha256: str

    def __post_init__(self) -> None:
        if self.epoch_hi <= self.epoch_lo:
            raise ValueError(
                f"shard epoch range must be non-empty, got "
                f"[{self.epoch_lo}, {self.epoch_hi})"
            )
        digest = self.split_sha256
        if len(digest) != 64 or digest.strip("0123456789abcdef"):
            raise ValueError(
                f"split_sha256 must be a SHA-256 hex digest, got {digest!r}"
            )

    @property
    def n_epochs(self) -> int:
        return self.epoch_hi - self.epoch_lo


def split_sha256(local_epochs: np.ndarray) -> str:
    """Digest of a shard's split: each row's shard-local epoch (its
    store epoch minus the shard's ``epoch_lo``), in row order."""
    return hashlib.sha256(np.ascontiguousarray(local_epochs, dtype="<i8")).hexdigest()


def shard_boundaries(
    n_epochs: int,
    epochs_per_shard: int | None = None,
    n_shards: int | None = None,
) -> list[tuple[int, int]]:
    """Half-open ``(lo, hi)`` epoch ranges covering ``[0, n_epochs)``.

    Exactly one of ``epochs_per_shard`` (fixed-width shards, ragged
    last) and ``n_shards`` (near-equal split; clamped to ``n_epochs``)
    must be given. Boundaries never change analysis results — only the
    unit of out-of-core work.
    """
    if (epochs_per_shard is None) == (n_shards is None):
        raise ValueError(
            "exactly one of epochs_per_shard and n_shards must be given"
        )
    if n_epochs == 0:
        return []
    if epochs_per_shard is not None:
        if epochs_per_shard < 1:
            raise ValueError(
                f"epochs_per_shard must be >= 1, got {epochs_per_shard}"
            )
        edges = list(range(0, n_epochs, int(epochs_per_shard))) + [n_epochs]
    else:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        k = min(int(n_shards), n_epochs)
        # Integer split: strictly increasing because n_epochs / k >= 1.
        edges = [(i * n_epochs) // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _shard_filename(i: int) -> str:
    return f"shard-{i:04d}.sub"


class ShardStore:
    """A directory of epoch-range substrate snapshots plus a manifest.

    Open an existing store with :meth:`open`; create one with
    :func:`build_shard_store` or :class:`ShardStoreBuilder`. The store
    is the unit :func:`analyze_shards` maps over — shards load lazily
    (:meth:`load_shard` mmaps one snapshot), never all at once.
    """

    def __init__(
        self,
        path: str | Path,
        grid: EpochGrid,
        schema: AttributeSchema,
        shards: Sequence[ShardInfo],
        total_sessions: int,
        schema_digest: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.grid = grid
        self.schema = schema
        self.shards = tuple(shards)
        self.total_sessions = int(total_sessions)
        self.schema_digest = schema_digest or schema_sha256(schema)
        self._content_sha: dict[int, str] = {}
        self._validate()

    def _validate(self) -> None:
        expected_lo = 0
        for i, shard in enumerate(self.shards):
            if shard.epoch_lo != expected_lo:
                raise ValueError(
                    f"{self.path}: shard {i} starts at epoch "
                    f"{shard.epoch_lo}, expected {expected_lo} (shard "
                    "ranges must abut and cover the grid)"
                )
            expected_lo = shard.epoch_hi
        if expected_lo != self.grid.n_epochs:
            raise ValueError(
                f"{self.path}: shards cover epochs [0, {expected_lo}) but "
                f"the grid has {self.grid.n_epochs} epochs"
            )

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def epoch_seconds(self) -> float:
        return self.grid.epoch_seconds

    def shard_path(self, shard_index: int) -> Path:
        return self.path / self.shards[shard_index].file

    def shard_grid(self, shard_index: int) -> EpochGrid:
        """The epoch grid a shard's local analysis runs on: the store
        grid restricted to the shard's epoch range. Its epochs are the
        store grid's minus ``epoch_lo`` (:meth:`load_shard`), never
        re-derived from its own shifted origin."""
        shard = self.shards[shard_index]
        return EpochGrid(
            origin=self.grid.epoch_start(shard.epoch_lo),
            epoch_seconds=self.grid.epoch_seconds,
            n_epochs=shard.n_epochs,
        )

    def load_shard(self, shard_index: int) -> AnalysisSubstrate:
        """mmap-load one shard's substrate snapshot (zero-copy views).

        Its rows split on :meth:`shard_grid` by the store grid's epoch
        rule: a session's shard-local epoch is its store epoch minus
        ``epoch_lo``. A session outside the shard's range, or a split
        whose digest differs from the manifest's ``split_sha256`` (a
        store whose shard files do not match its manifest), raises
        ``ValueError`` rather than analysing another split than the one
        the result cache keys on.
        """
        path = self.shard_path(shard_index)
        substrate = load_substrate(path)
        shard = self.shards[shard_index]
        epochs = self.grid.epoch_of(substrate.table.start_time) - shard.epoch_lo
        outside = int(np.count_nonzero((epochs < 0) | (epochs >= shard.n_epochs)))
        if outside:
            raise ValueError(
                f"{path}: {outside} session(s) lie outside the shard's store "
                f"epochs [{shard.epoch_lo}, {shard.epoch_hi}); rebuild the store"
            )
        if split_sha256(epochs) != shard.split_sha256:
            raise ValueError(
                f"{path}: the shard's rows split into epochs other than the "
                "manifest records; rebuild the store"
            )
        substrate.pin_epochs(self.shard_grid(shard_index), epochs)
        return substrate

    def shard_content_sha256(self, shard_index: int) -> str:
        """Content address of one shard's array payload.

        A manifest-only read for snapshots stamped at save time
        (:func:`~repro.io.snapshot.snapshot_content_sha256`); memoized
        per open store, since the bytes on disk cannot change under a
        validated store (appends rewrite shard files and the manifest).
        """
        cached = self._content_sha.get(shard_index)
        if cached is None:
            cached = snapshot_content_sha256(self.shard_path(shard_index))
            self._content_sha[shard_index] = cached
        return cached

    def manifest_dict(self) -> dict:
        return {
            "kind": STORE_KIND,
            "version": STORE_VERSION,
            "grid": {
                "origin": self.grid.origin,
                "epoch_seconds": self.grid.epoch_seconds,
                "n_epochs": self.grid.n_epochs,
            },
            "schema": list(self.schema.names),
            "schema_sha256": self.schema_digest,
            "total_sessions": self.total_sessions,
            "shards": [
                {
                    "file": s.file,
                    "epoch_lo": s.epoch_lo,
                    "epoch_hi": s.epoch_hi,
                    "sessions": s.sessions,
                    "split_sha256": s.split_sha256,
                }
                for s in self.shards
            ],
        }

    def write_manifest(self) -> Path:
        """Write ``manifest.json`` atomically (write-then-rename)."""
        path = self.path / STORE_MANIFEST
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.manifest_dict(), indent=2) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def open(cls, path: str | Path) -> "ShardStore":
        """Open and validate an existing store directory.

        Raises :class:`ValueError` on anything that is not a
        well-formed shard store of :data:`STORE_VERSION` (missing or
        corrupt manifest, unknown kind or version, non-contiguous shard
        ranges, missing shard files).
        """
        path = Path(path)
        manifest_path = path / STORE_MANIFEST
        if not manifest_path.is_file():
            raise ValueError(
                f"{path}: not a shard store (no {STORE_MANIFEST}); build "
                "one with 'repro-video-quality shard build'"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"{manifest_path}: corrupted shard-store manifest: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("kind") != STORE_KIND:
            kind = manifest.get("kind") if isinstance(manifest, dict) else None
            raise ValueError(
                f"{manifest_path}: not a shard-store manifest "
                f"(kind={kind!r}, expected {STORE_KIND!r})"
            )
        if manifest.get("version") != STORE_VERSION:
            raise ValueError(
                f"{manifest_path}: unsupported shard-store version "
                f"{manifest.get('version')!r} (rebuild the store)"
            )
        try:
            grid_spec = manifest["grid"]
            grid = EpochGrid(
                origin=float(grid_spec["origin"]),
                epoch_seconds=float(grid_spec["epoch_seconds"]),
                n_epochs=int(grid_spec["n_epochs"]),
            )
            schema = AttributeSchema(names=tuple(manifest["schema"]))
            shards = [
                ShardInfo(
                    file=str(s["file"]),
                    epoch_lo=int(s["epoch_lo"]),
                    epoch_hi=int(s["epoch_hi"]),
                    sessions=int(s["sessions"]),
                    split_sha256=str(s["split_sha256"]),
                )
                for s in manifest["shards"]
            ]
            total = int(manifest["total_sessions"])
            digest = str(manifest["schema_sha256"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{manifest_path}: malformed shard-store manifest: {exc}"
            ) from exc
        store = cls(
            path=path,
            grid=grid,
            schema=schema,
            shards=shards,
            total_sessions=total,
            schema_digest=digest,
        )
        missing = [s.file for s in store.shards if not (path / s.file).is_file()]
        if missing:
            raise ValueError(
                f"{path}: manifest lists missing shard file(s): "
                f"{', '.join(missing)}"
            )
        return store


def _write_store(
    path: Path,
    grid: EpochGrid,
    schema: AttributeSchema,
    parts: Iterable[tuple[int, int, SessionTable]],
) -> ShardStore:
    """Write a store: one snapshot per ``(epoch_lo, epoch_hi, table)``
    part, in epoch order, then the manifest, last and atomically, so a
    crashed write never leaves a store that :meth:`ShardStore.open`
    would accept. Packs and indexes nothing; a part whose vocabularies
    need more than 62 bits raises ``ValueError`` from its save."""
    tracer = current_tracer()
    shards: list[ShardInfo] = []
    for k, (lo, hi, table) in enumerate(parts):
        filename = _shard_filename(k)
        save_substrate(AnalysisSubstrate(table), path / filename)
        tracer.record("shard.write", shard=k, sessions=len(table), epochs=hi - lo)
        shards.append(
            ShardInfo(
                file=filename, epoch_lo=lo, epoch_hi=hi, sessions=len(table),
                split_sha256=split_sha256(grid.epoch_of(table.start_time) - lo),
            )
        )
    store = ShardStore(
        path=path,
        grid=grid,
        schema=schema,
        shards=shards,
        total_sessions=sum(s.sessions for s in shards),
    )
    store.write_manifest()
    current_metrics().inc("shards.stores_built")
    current_metrics().inc("shards.shards_written", len(shards))
    return store


def build_shard_store(
    table: SessionTable,
    path: str | Path,
    epochs_per_shard: int | None = None,
    n_shards: int | None = None,
    epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
    grid: EpochGrid | None = None,
) -> ShardStore:
    """Partition a whole in-memory trace into an on-disk shard store.

    Each shard's rows keep their original relative order (and the
    table's vocabularies); the parts go to the one store writer, one
    shard table at a time.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if grid is None:
        grid = EpochGrid.covering(table, epoch_seconds=epoch_seconds)
    grid, per_epoch_rows = split_into_epochs(table, grid)
    bounds = shard_boundaries(
        grid.n_epochs, epochs_per_shard=epochs_per_shard, n_shards=n_shards
    )
    parts = (
        (lo, hi, table.select(np.sort(np.concatenate(per_epoch_rows[lo:hi]))))
        for lo, hi in bounds
    )
    with current_tracer().span(
        "shards.build",
        sessions=len(table),
        epochs=grid.n_epochs,
        shards=len(bounds),
    ):
        return _write_store(path, grid, table.schema, parts)


class ShardStoreBuilder:
    """Streaming shard-store construction from chunks of sessions.

    The chunked twin of :func:`build_shard_store`: chunks arrive in any
    time order and are bucketed by absolute epoch block
    (``floor(floor(start / epoch_seconds) / epochs_per_shard)``) into
    per-block :class:`~repro.core.substrate.AnalysisSubstrate`\\ s grown
    by :meth:`~repro.core.substrate.AnalysisSubstrate.append`, which
    never index. It is not out-of-core: every block stays in memory
    until :meth:`finalize`, which derives the store grid
    (:meth:`EpochGrid.spanning`, as ``EpochGrid.covering`` over the
    concatenated table), moves the rare session whose store-grid epoch
    falls in a neighbouring block, and hands one part per block (an
    empty table for any gap block, keeping the store's epoch coverage
    contiguous) to the store writer.

    Shard tables built this way grow their vocabularies in arrival
    order — different codes than a batch build, but identical decoded
    cluster identities, so analysis output is still bit-identical
    (cluster keys are label-based; pinned by the shard property suite).
    """

    def __init__(
        self,
        path: str | Path,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
        epochs_per_shard: int = 24,
    ) -> None:
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if epochs_per_shard < 1:
            raise ValueError(
                f"epochs_per_shard must be >= 1, got {epochs_per_shard}"
            )
        self.path = Path(path)
        self.schema = schema
        self.epoch_seconds = float(epoch_seconds)
        self.epochs_per_shard = int(epochs_per_shard)
        self._blocks: dict[int, AnalysisSubstrate] = {}
        self._finalized = False

    def append(self, chunk: "SessionTable | Iterable[Session]") -> int:
        """Bucket one chunk of sessions into its epoch-block substrates.

        Returns the number of sessions appended.
        """
        if self._finalized:
            raise ValueError("ShardStoreBuilder is already finalized")
        if not isinstance(chunk, SessionTable):
            chunk = SessionTable.from_sessions(chunk, schema=self.schema)
        if len(chunk) == 0:
            return 0
        absolute = EpochGrid(epoch_seconds=self.epoch_seconds)
        self._bucket(chunk, absolute.epoch_of(chunk.start_time))
        return len(chunk)

    def _bucket(self, chunk: SessionTable, epochs: np.ndarray) -> None:
        """Append each row of ``chunk`` to the block of its epoch."""
        blocks = epochs // self.epochs_per_shard
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        uniq, starts = np.unique(sorted_blocks, return_index=True)
        bounds = np.append(starts, sorted_blocks.size)
        for i, block in enumerate(uniq):
            block = int(block)
            rows = order[bounds[i] : bounds[i + 1]]
            substrate = self._blocks.get(block)
            if substrate is None:
                substrate = AnalysisSubstrate(SessionTable.empty(self.schema))
                self._blocks[block] = substrate
            substrate.append(chunk.select(np.sort(rows)))

    def _settle(self, grid: EpochGrid, first: int) -> None:
        """Move every row to the block of its store-grid epoch.

        :meth:`append` buckets by ``floor(t / s)`` before the store
        grid is known; at epoch lengths that are not exact in binary a
        session at an epoch edge can land one epoch away from its
        store-grid epoch, hence in the neighbouring block. Such rows
        move to it, and the blocks they leave keep the rest.
        """
        strays = []
        for block, substrate in list(self._blocks.items()):
            table = substrate.table
            epochs = grid.epoch_of(table.start_time) + first
            stray = epochs // self.epochs_per_shard != block
            if stray.any():
                self._blocks[block] = AnalysisSubstrate(table.select(~stray))
                strays.append((table.select(stray), epochs[stray]))
        for chunk, epochs in strays:
            self._bucket(chunk, epochs)

    def finalize(self) -> ShardStore:
        """Write every shard snapshot plus the store manifest."""
        if self._finalized:
            raise ValueError("ShardStoreBuilder is already finalized")
        self._finalized = True
        self.path.mkdir(parents=True, exist_ok=True)
        es = self.epoch_seconds
        if not self._blocks:
            grid = EpochGrid(origin=0.0, epoch_seconds=es, n_epochs=0)
            return _write_store(self.path, grid, self.schema, [])
        # The grid EpochGrid.covering gives the concatenated table, so
        # the store grid matches the monolithic analysis grid exactly.
        grid = EpochGrid.spanning(
            min(float(s.table.start_time.min()) for s in self._blocks.values()),
            max(float(s.table.start_time.max()) for s in self._blocks.values()),
            es,
        )
        # The origin is a whole number of epochs: the store grid's
        # epoch e is epoch first + e of the blocks' absolute numbering.
        first = int(round(grid.origin / es))
        self._settle(grid, first)
        eps = self.epochs_per_shard
        n_epochs = grid.n_epochs
        blocks = range(first // eps, (first + n_epochs - 1) // eps + 1)
        empty = SessionTable.empty(self.schema)
        parts = [
            (
                max(block * eps - first, 0),
                min((block + 1) * eps - first, n_epochs),
                # A gap block is an empty shard, so merge offsets stay exact.
                self._blocks[block].table if block in self._blocks else empty,
            )
            for block in blocks
        ]
        with current_tracer().span(
            "shards.finalize", epochs=n_epochs, shards=len(parts)
        ):
            return _write_store(self.path, grid, self.schema, parts)


# ---------------------------------------------------------------------------
# Map phase
# ---------------------------------------------------------------------------
def _analyze_shard_configs(
    store: ShardStore, shard_index: int, configs: Sequence[AnalysisConfig]
) -> list[TraceAnalysis]:
    """Map step: mmap-load one shard, run every config over it.

    Runs inside a pool worker (or inline on the serial path). The
    substrate is dropped on return, so resident memory per process
    stays bounded by one shard. The results carry only their epoch
    summaries; timelines are derived once, from the merged epochs.
    """
    t0 = time.perf_counter()
    substrate = store.load_shard(shard_index)
    load_s = time.perf_counter() - t0
    analyses = analyze_sweep(
        substrate.table,
        configs,
        grid=store.shard_grid(shard_index),
        substrate=substrate,
        workers=0,
    )
    for analysis in analyses:
        analysis.timings.load_s += load_s / len(configs)
    return analyses


def _shard_task(state, task: tuple[int, tuple[int, ...]]) -> dict:
    """The fan-out task: one shard's missing configs, plus self-timing
    stats (serial and pool paths return the same shape).

    ``config_indices`` selects which of ``configs`` to actually run —
    the result cache dispatches only a shard's missing configs, so a
    sweep with partial hits computes exactly the missing
    (shard, config) pairs. ``analyses[j]`` corresponds to
    ``configs[config_indices[j]]``.
    """
    store, configs = state
    shard_index, config_indices = task
    t0 = time.perf_counter()
    analyses = _analyze_shard_configs(
        store, shard_index, [configs[ci] for ci in config_indices]
    )
    info = store.shards[shard_index]
    return {
        "shard": shard_index,
        "config_indices": config_indices,
        "analyses": analyses,
        "pid": os.getpid(),
        "busy_s": time.perf_counter() - t0,
        "epochs": info.n_epochs,
        "rows": info.sessions,
        "peak_rss_bytes": peak_rss_bytes(),
    }


# ---------------------------------------------------------------------------
# Merge phase
# ---------------------------------------------------------------------------
def merge_shard_analyses(
    store: ShardStore,
    config: AnalysisConfig,
    shard_analyses: Sequence[TraceAnalysis],
) -> TraceAnalysis:
    """Exact fold of per-shard analyses into one whole-trace analysis.

    ``shard_analyses[i]`` must be the analysis of ``store.shards[i]``
    under ``config`` on :meth:`ShardStore.shard_grid`. Each metric's
    :class:`~repro.core.pipeline.ResultTable`\\ s concatenate, epochs
    renumbered by each shard's manifest offset and every shard's keys
    kept against its own codec. The merged analysis derives its
    timelines and streaks from those epochs, grouping rows by label
    identity across the shards' codecs, so a streak spanning a shard
    boundary is one event.
    A part whose epochs are not exactly its shard's range (wrong count
    or numbering) raises :class:`ValueError` rather than landing in a
    neighbour's epoch slots.
    """
    if len(shard_analyses) != len(store.shards):
        raise ValueError(
            f"expected {len(store.shards)} shard analyses, "
            f"got {len(shard_analyses)}"
        )
    grid = store.grid
    timings = PipelineTimings()
    for analysis in shard_analyses:
        timings.merge(analysis.timings)

    metrics = {}
    for metric in config.metrics:
        parts = []
        for info, analysis in zip(store.shards, shard_analyses):
            part = analysis.metrics[metric.name].table
            if not np.array_equal(part.epochs["epoch"], np.arange(info.n_epochs)):
                raise ValueError(
                    f"the {metric.name} result of shard [{info.epoch_lo}, "
                    f"{info.epoch_hi}) has {len(part)} epochs; expected "
                    f"exactly its {info.n_epochs}, numbered from 0"
                )
            parts.append(part)
        table = ResultTable.concat(parts)
        # The shards abut and cover the grid (ShardStore checks), so
        # shard-local epoch e of a part lands at epoch_lo + e.
        table.epochs["epoch"] = np.arange(grid.n_epochs, dtype=np.int64)
        metrics[metric.name] = MetricAnalysis(metric, grid, table=table)
    return TraceAnalysis(grid=grid, config=config, metrics=metrics, timings=timings)


# ---------------------------------------------------------------------------
# Result cache integration
# ---------------------------------------------------------------------------
def _shard_cache_keys(
    store: ShardStore, configs: Sequence[AnalysisConfig]
) -> list[list[str]] | None:
    """Per-(shard, config) cache keys, or ``None`` to bypass caching.

    Keys bind the shard snapshot's payload content address, the store
    schema digest, the config's result-determining digest, the digest
    of the shard's split into local epochs and its epoch count (see
    :func:`~repro.core.resultcache.shard_result_key`).
    When any component is unavailable — an unregistered custom metric
    has no content-addressable identity, or a shard snapshot cannot be
    content-addressed — the whole run degrades to uncached execution
    rather than risking a wrong key.
    """
    try:
        digests = [config.config_digest() for config in configs]
    except ValueError as exc:
        record_degradation("cache_bypass", f"result cache disabled: {exc}")
        return None
    keys: list[list[str]] = []
    for i in range(len(store.shards)):
        try:
            payload_sha = store.shard_content_sha256(i)
        except (OSError, ValueError) as exc:
            record_degradation(
                "cache_bypass",
                f"result cache disabled: shard {i} has no content "
                f"address ({exc})",
            )
            return None
        shard = store.shards[i]
        keys.append(
            [
                shard_result_key(
                    payload_sha256=payload_sha,
                    schema_sha256=store.schema_digest,
                    config_digest=digest,
                    split_sha256=shard.split_sha256,
                    n_epochs=shard.n_epochs,
                )
                for digest in digests
            ]
        )
    return keys


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------
def sweep_shards(
    store: ShardStore,
    configs: Iterable[AnalysisConfig],
    workers: int | str | None = None,
    progress: Callable[[int, int], None] | None = None,
    result_cache: ResultCache | None = None,
) -> list[TraceAnalysis]:
    """Analyse a shard store under many configs, out of core.

    Maps shards across a process pool (``workers``; default serial —
    still bounded-memory, shards load one at a time) and merges exactly.
    Every config's ``epoch_seconds`` must equal the store's: shard
    boundaries are fixed at build time, so re-gridding requires
    rebuilding the store. ``progress`` is called with
    ``(done_units, total_units)`` where units are (shard, config)
    pairs.

    With ``result_cache``, every (shard, config) pair is looked up by
    content address before the map phase; hits skip computation
    entirely and only the missing config subset of each shard is
    dispatched. Fresh results are written back by the parent (a single
    writer), so a warm re-run is pure load + merge and appending a day
    via :class:`ShardStoreBuilder` recomputes only the new or changed
    shards. Cached and uncached runs are bit-identical (pinned by
    ``tests/property/test_cache_equivalence.py``); a corrupt or
    unusable cache degrades to uncached execution, never to a wrong
    answer.
    """
    configs = list(configs)
    if not configs:
        return []
    for config in configs:
        if config.epoch_seconds != store.grid.epoch_seconds:
            raise ValueError(
                f"config epoch_seconds ({config.epoch_seconds}) does not "
                f"match the shard store's ({store.grid.epoch_seconds}); "
                "rebuild the store at the desired epoch length"
            )
    n_workers = resolve_worker_count(0 if workers is None else workers)
    n_shards = len(store.shards)
    n_configs = len(configs)
    total_units = n_shards * n_configs
    per_shard: list[list[TraceAnalysis | None]] = [
        [None] * n_configs for _ in range(n_shards)
    ]
    worker_peaks: list[int] = []
    done = 0
    tracer = current_tracer()
    wall_start = time.perf_counter()

    with tracer.span(
        "analyze_shards",
        shards=n_shards,
        configs=n_configs,
        sessions=store.total_sessions,
        epochs=store.grid.n_epochs,
        workers=n_workers,
        cache="on" if result_cache is not None else "off",
    ) as run_span:
        cache_keys: list[list[str]] | None = None
        if result_cache is not None and n_shards:
            cache_keys = _shard_cache_keys(store, configs)
        if cache_keys is not None:
            hits = 0
            with tracer.span("cache.probe", units=total_units):
                for i in range(n_shards):
                    for ci in range(n_configs):
                        value = result_cache.get(cache_keys[i][ci])
                        if isinstance(value, TraceAnalysis):
                            per_shard[i][ci] = value
                            hits += 1
                        elif value is not None:
                            record_degradation(
                                "cache_corrupt",
                                f"cache entry {cache_keys[i][ci][:16]}… "
                                f"holds {type(value).__name__}, not a "
                                "TraceAnalysis; recomputing",
                            )
            run_span.set(cache_hits=hits, cache_misses=total_units - hits)
            done = hits
            if progress is not None and hits:
                progress(done, total_units)

        # Shards with at least one missing (shard, config) pair; each
        # is dispatched with only its missing config subset.
        tasks = [
            (i, cis)
            for i in range(n_shards)
            if (cis := tuple(
                ci for ci in range(n_configs) if per_shard[i][ci] is None
            ))
        ]

        def fold(out: dict) -> None:
            nonlocal done
            i = out["shard"]
            for ci, analysis in zip(out["config_indices"], out["analyses"]):
                per_shard[i][ci] = analysis
                if cache_keys is not None:
                    result_cache.put(cache_keys[i][ci], analysis)
            if out["peak_rss_bytes"] is not None:
                worker_peaks.append(out["peak_rss_bytes"])
            tracer.record(
                "shard",
                duration_s=out["busy_s"],
                shard=i,
                pid=out["pid"],
                epochs=out["epochs"],
                sessions=out["rows"],
                configs=len(out["config_indices"]),
                peak_rss_bytes=out["peak_rss_bytes"],
            )
            done += len(out["config_indices"])
            if progress is not None:
                progress(done, total_units)

        fan_out(
            tasks,
            _shard_task,
            (store, configs),
            fold,
            workers=n_workers,
            serial_span="shards",
        )

        t_merge = time.perf_counter()
        merged = [
            merge_shard_analyses(
                store, config, [per_shard[i][ci] for i in range(n_shards)]
            )
            for ci, config in enumerate(configs)
        ]
        merge_s = time.perf_counter() - t_merge
        wall = time.perf_counter() - wall_start
        for analysis in merged:
            analysis.timings.merge_s += merge_s / len(configs)
            analysis.timings.wall_s = wall / len(configs)
        run_span.set(merge_s=round(merge_s, 6))

        metrics = current_metrics()
        parent_peak = peak_rss_bytes()
        if parent_peak is not None:
            metrics.gauge("shards.parent_peak_rss_bytes", parent_peak)
        if worker_peaks:
            metrics.gauge("shards.max_shard_peak_rss_bytes", max(worker_peaks))
        metrics.inc("shards.analyses")
        metrics.inc("shards.shards_analyzed", n_shards)
    return merged


def analyze_shards(
    store: ShardStore,
    config: AnalysisConfig | None = None,
    workers: int | str | None = None,
    progress: Callable[[int, int], None] | None = None,
    result_cache: ResultCache | None = None,
) -> TraceAnalysis:
    """Out-of-core ``analyze_trace`` over a shard store.

    Bit-identical to ``analyze_trace`` on the unsharded table at the
    store's epoch length, with parent peak memory O(largest shard):
    each shard's snapshot is mmap-loaded (by a pool worker when
    ``workers`` > 1, else inline, one at a time), analyzed on its own
    epoch range, and the compact per-shard results are merged exactly
    (:func:`merge_shard_analyses`). ``result_cache`` memoizes the
    per-shard partials by content address (see :func:`sweep_shards`).
    """
    config = config or AnalysisConfig()
    return sweep_shards(
        store,
        [config],
        workers=workers,
        progress=progress,
        result_cache=result_cache,
    )[0]
