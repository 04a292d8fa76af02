"""Config-independent analysis substrate and amortized config sweeps.

The paper's robustness story re-runs the whole pipeline under varied
knobs — the 1.5x ratio multiplier, metric thresholds, epoch lengths
(Section 2, Section 3.1 footnote 2). Almost everything ``analyze_trace``
computes is the *same* across those variants:

**Config-independent** (the substrate — built once per trace):

* the packed :class:`~repro.core.sessions.SessionTable` and its
  :class:`~repro.core.aggregation.KeyCodec`,
* the :class:`~repro.core.index.TraceClusterIndex` — leaf universe,
  per-mask cluster tables, lattice projections,
* per-epoch :class:`~repro.core.index.EpochClusterView`\\ s (active
  cluster subsets; depend on the epoch grid, not on thresholds),
* raw per-leaf validity/session folds (cached per metric on each view).

**Config-dependent** (cheap, re-run per variant):

* whole-table problem masks per (metric, thresholds) — cached on the
  index,
* the problem-cluster predicate (``min_sessions`` resolution, ratio
  multiplier, significance test),
* the critical-cluster phase-transition DP.

:class:`AnalysisSubstrate` materializes the first list once;
:func:`analyze_sweep` runs N :class:`~repro.core.pipeline.AnalysisConfig`
variants over it, sharing one epoch view (and one session-count fold
per metric, and one aggregate per distinct (metric, thresholds)) across
all configs of each epoch. Outputs are bit-identical to N independent
``analyze_trace`` calls (pinned by
``tests/property/test_sweep_equivalence.py``); only the wall time
changes.

This is the only analysis engine: ``analyze_trace`` is a one-config
sweep, and :func:`_sweep_epoch` is the only unit of work, run in-process
or over the process pool of :func:`~repro.core.fanout.fan_out`.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.aggregation import KeyCodec
from repro.core.critical import find_critical_clusters
from repro.core.epoching import (
    DEFAULT_EPOCH_SECONDS,
    EpochGrid,
    split_into_epochs,
)
from repro.core.fanout import fan_out
from repro.core.index import TraceClusterIndex
from repro.core.pipeline import (
    AnalysisConfig,
    EpochAnalysis,
    PipelineTimings,
    TraceAnalysis,
    _epoch_summary,
    analyze_trace,
    assemble_trace_analysis,
    resolve_worker_count,
)
from repro.core.attributes import DEFAULT_SCHEMA, AttributeSchema
from repro.core.problems import find_problem_clusters
from repro.core.sessions import METRIC_COLUMNS, Session, SessionTable, grow_append
from repro.obs import current_tracer


def _table_nbytes(table: SessionTable) -> int:
    """Bytes of a table's packed code matrix and metric columns."""
    return int(
        table.codes.nbytes + sum(getattr(table, c).nbytes for c in METRIC_COLUMNS)
    )


class AnalysisSubstrate:
    """Everything about a trace that no :class:`AnalysisConfig` changes.

    Build once with :meth:`build`, then run any number of configs over
    it — :meth:`analyze` for one, :meth:`sweep` for many — without
    re-packing sessions or rebuilding the cluster lattice. Epoch splits
    are cached per grid, so sweeping thresholds variants at the same
    epoch length re-uses the row partition too.
    """

    __slots__ = ("table", "index", "build_seconds", "_splits")

    def __init__(
        self, table: SessionTable, index: TraceClusterIndex, build_seconds: float = 0.0
    ) -> None:
        self.table = table
        self.index = index
        self.build_seconds = build_seconds
        self._splits: dict[EpochGrid, list[np.ndarray]] = {}

    @classmethod
    def build(
        cls, table: SessionTable, codec: KeyCodec | None = None
    ) -> "AnalysisSubstrate":
        """Pack the table and build the trace-global cluster index."""
        with current_tracer().span("substrate.build", sessions=len(table)):
            t0 = time.perf_counter()
            index = TraceClusterIndex.build(table, codec=codec)
            return cls(
                table=table, index=index, build_seconds=time.perf_counter() - t0
            )

    @property
    def codec(self) -> KeyCodec:
        return self.index.codec

    def grid_covering(self, epoch_seconds: float) -> EpochGrid:
        """The grid ``analyze_trace`` would derive at this epoch length."""
        return EpochGrid.covering(self.table, epoch_seconds=epoch_seconds)

    def epoch_rows(self, grid: EpochGrid) -> list[np.ndarray]:
        """Per-epoch row index arrays for ``grid`` (cached per grid)."""
        rows = self._splits.get(grid)
        if rows is None:
            _, rows = split_into_epochs(self.table, grid)
            self._splits[grid] = rows
        return rows

    def memory_bytes(self) -> int:
        """Bytes held by the whole substrate: packed session-table
        columns, index arrays (incl. caches) and cached per-grid
        epoch-row splits — the true footprint shard-size budgeting
        needs, not just the index."""
        total = _table_nbytes(self.table)
        total += self.index.memory_bytes()
        total += sum(
            int(rows.nbytes)
            for split in self._splits.values()
            for rows in split
        )
        return int(total)

    def analyze(
        self,
        config: AnalysisConfig | None = None,
        grid: EpochGrid | None = None,
        workers: int | str | None = None,
    ) -> TraceAnalysis:
        """Run one config through :func:`analyze_trace`, reusing the index."""
        return analyze_trace(
            self.table, config=config, grid=grid, workers=workers, substrate=self
        )

    def sweep(
        self,
        configs: Sequence[AnalysisConfig],
        grid: EpochGrid | None = None,
        workers: int | str | None = None,
        progress: Callable[[int, int], None] | None = None,
    ) -> list[TraceAnalysis]:
        """Run many configs, amortizing this substrate across all of them."""
        return analyze_sweep(
            self.table,
            configs,
            grid=grid,
            substrate=self,
            workers=workers,
            progress=progress,
        )


class StreamingSubstrate:
    """An :class:`AnalysisSubstrate` maintained online over arriving data.

    Feed it chunks of sessions (epoch-sized or otherwise, in any
    arrival order) with :meth:`append`; it extends the packed table and
    the :class:`~repro.core.index.TraceClusterIndex` incrementally and
    keeps per-epoch row splits up to date, so at any moment the full
    batch analysis path is available without re-packing or re-indexing:
    :meth:`analyze`/:meth:`sweep` run over exactly the state a batch
    ``analyze_trace`` would build from the concatenated chunks, with
    bit-identical output (pinned by
    ``tests/property/test_streaming_equivalence.py``).

    Epoch bookkeeping uses *absolute* epoch ids
    (``floor(start_time / epoch_seconds)``), so the grid grows to cover
    whatever has arrived and :attr:`grid` always equals
    ``EpochGrid.covering`` over the accumulated table. Per-epoch row
    arrays grow by doubling; appends are amortized O(chunk rows) once
    the trace's leaf universe has saturated.

    Per-epoch streamed detection goes through the same
    :class:`~repro.core.index.EpochClusterView` path the batch engine
    uses: ``substrate.epoch_view(rows)`` on the rows :meth:`append`
    returned (this is what :class:`~repro.core.online.OnlineDetector`
    does).
    """

    __slots__ = ("index", "epoch_seconds", "_epoch_rows", "_grow")

    def __init__(
        self,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
        index: TraceClusterIndex | None = None,
    ) -> None:
        """Start empty, or wrap an existing ``index`` (e.g. restored by
        :func:`~repro.io.snapshot.load_substrate`) and keep appending."""
        if index is None:
            index = TraceClusterIndex.build(SessionTable.empty(schema))
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        self.index = index
        self.epoch_seconds = float(epoch_seconds)
        self._epoch_rows: dict[int, np.ndarray] = {}
        self._grow: dict = {}
        if len(index.table):
            self._ingest_rows(np.arange(len(index.table), dtype=np.int64))

    @property
    def table(self) -> SessionTable:
        return self.index.table

    @property
    def codec(self) -> KeyCodec:
        return self.index.codec

    def __len__(self) -> int:
        return len(self.index.table)

    @property
    def n_epochs(self) -> int:
        return self.grid.n_epochs

    def append(self, chunk: "SessionTable | Iterable[Session]") -> np.ndarray:
        """Fold a chunk into the table, index and epoch splits.

        Returns the appended row indices — pass them straight to
        :meth:`epoch_view` for streamed per-chunk detection.
        """
        rows = self.index.append(chunk)
        if rows.size:
            self._ingest_rows(rows)
        return rows

    def _ingest_rows(self, rows: np.ndarray) -> None:
        """File new rows under their absolute epoch ids.

        Row indices only ever grow, so appending each chunk's rows (in
        ascending order) keeps every epoch's array ascending — exactly
        the order ``split_into_epochs``'s stable sort produces, even
        when chunks arrive out of time order.
        """
        keys = np.floor(
            self.table.start_time[rows] / self.epoch_seconds
        ).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        rows, keys = rows[order], keys[order]
        uniq, starts = np.unique(keys, return_index=True)
        bounds = np.append(starts, keys.size)
        for i, key in enumerate(uniq):
            key = int(key)
            part = rows[bounds[i] : bounds[i + 1]]
            cur = self._epoch_rows.get(key)
            if cur is None:
                cur = np.empty(0, dtype=np.int64)
            self._epoch_rows[key] = grow_append(self._grow, key, cur, part)

    @property
    def grid(self) -> EpochGrid:
        """The covering grid of everything appended so far."""
        if not self._epoch_rows:
            return EpochGrid(
                origin=0.0, epoch_seconds=self.epoch_seconds, n_epochs=0
            )
        lo, hi = min(self._epoch_rows), max(self._epoch_rows)
        return EpochGrid(
            origin=lo * self.epoch_seconds,
            epoch_seconds=self.epoch_seconds,
            n_epochs=hi - lo + 1,
        )

    def epoch_rows(self) -> list[np.ndarray]:
        """Per-epoch row arrays for :attr:`grid` (empty epochs included)."""
        if not self._epoch_rows:
            return []
        lo = min(self._epoch_rows)
        empty = np.empty(0, dtype=np.int64)
        return [
            self._epoch_rows.get(lo + e, empty)
            for e in range(self.grid.n_epochs)
        ]

    def epoch_view(self, rows: np.ndarray, epoch: int = 0):
        """Per-epoch cluster view over ``rows`` — the same reduction
        path the batch engine uses."""
        return self.index.epoch_view(rows, epoch=epoch)

    def as_substrate(self) -> AnalysisSubstrate:
        """Snapshot the current state as a batch substrate (shared
        arrays, pre-seeded epoch splits — nothing is copied)."""
        substrate = AnalysisSubstrate(table=self.table, index=self.index)
        substrate._splits[self.grid] = self.epoch_rows()
        return substrate

    def analyze(
        self,
        config: AnalysisConfig | None = None,
        workers: int | str | None = None,
    ) -> TraceAnalysis:
        """Batch-analyze everything appended so far (on :attr:`grid`)."""
        return self.as_substrate().analyze(
            config=config, grid=self.grid, workers=workers
        )

    def sweep(
        self,
        configs: Sequence[AnalysisConfig],
        workers: int | str | None = None,
        progress: Callable[[int, int], None] | None = None,
    ) -> list[TraceAnalysis]:
        """Sweep configs over everything appended so far (on :attr:`grid`)."""
        return self.as_substrate().sweep(
            configs, grid=self.grid, workers=workers, progress=progress
        )

    def memory_bytes(self) -> int:
        """Bytes held by the whole substrate: packed session-table
        columns, index arrays (incl. caches) and per-epoch row splits.
        Doubling growth buffers can transiently hold up to 2x the
        column/split bytes beyond this logical figure."""
        total = _table_nbytes(self.table)
        total += self.index.memory_bytes()
        total += sum(int(a.nbytes) for a in self._epoch_rows.values())
        return int(total)


def _sweep_epoch(
    index: TraceClusterIndex,
    configs: Sequence[AnalysisConfig],
    rows: np.ndarray,
    epoch: int,
) -> list[tuple[list[EpochAnalysis], PipelineTimings]]:
    """All configs x metrics of one epoch, sharing one epoch view.

    The only unit of analysis work: the serial loop and the process
    pool both run it, which is what guarantees serial/parallel
    equality. One :class:`EpochClusterView` serves every config; the
    view caches session folds per metric, and distinct (metric,
    thresholds) pairs share one aggregate through ``agg_cache``, so a
    thresholds variant pays only its problem-count bincounts and the
    problem/critical detectors.
    """
    t0 = time.perf_counter()
    view = index.epoch_view(rows, epoch=epoch)
    view_share = (time.perf_counter() - t0) / len(configs)

    agg_cache: dict = {}
    out: list[tuple[list[EpochAnalysis], PipelineTimings]] = []
    for config in configs:
        timings = PipelineTimings(pack_s=view_share, n_epochs=1)
        summaries: list[EpochAnalysis] = []
        for metric in config.metrics:
            key = (metric.name, config.thresholds)
            t1 = time.perf_counter()
            agg = agg_cache.get(key)
            if agg is None:
                agg = view.aggregate(metric, thresholds=config.thresholds)
                agg_cache[key] = agg
            t2 = time.perf_counter()
            problems = find_problem_clusters(agg, config.problem_config)
            t3 = time.perf_counter()
            critical = find_critical_clusters(problems)
            t4 = time.perf_counter()
            timings.aggregate_s += t2 - t1
            timings.problems_s += t3 - t2
            timings.critical_s += t4 - t3
            timings.n_units += 1
            summaries.append(_epoch_summary(agg, problems, critical, epoch))
        out.append((summaries, timings))
    return out


def _sweep_batch(state, batch: list[tuple[int, int, np.ndarray]]) -> list:
    """A batch of (grid group, epoch, rows) units; the fan-out task."""
    index, groups = state
    return [
        (gi, epoch, _sweep_epoch(index, groups[gi], rows, epoch))
        for gi, epoch, rows in batch
    ]


def analyze_sweep(
    table: SessionTable,
    configs: Iterable[AnalysisConfig],
    grid: EpochGrid | None = None,
    substrate: AnalysisSubstrate | None = None,
    workers: int | str | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[TraceAnalysis]:
    """Analyse one trace under many configs, building the substrate once.

    Returns one :class:`TraceAnalysis` per config, in input order, each
    bit-identical to ``analyze_trace(table, config=c)`` — same problem
    clusters, same critical attribution, same grid. The sweep groups
    configs by epoch grid (``grid`` applies to all when given,
    otherwise each config's ``epoch_seconds`` derives its covering
    grid) and, per epoch, shares one cluster view across every config:
    session-count folds are computed once per metric, aggregates once
    per distinct (metric, thresholds), and only the problem predicate
    and the critical DP run per config.

    ``workers`` fans epochs out over a process pool: ``None``/``0``/``1``
    run serially in-process, ``"auto"`` uses every CPU, ``n`` uses
    ``n`` processes; results are identical at any count. ``progress``
    is called with ``(done_units, total_units)`` where units are
    (config, epoch, metric) triples, after each epoch completes across
    all configs.

    Timing attribution: phases measured per config where possible
    (aggregate/problems/critical); shared costs — substrate build,
    epoch-view construction, the parent's wall clock — are divided
    evenly across configs, so summing ``timings`` over the returned
    analyses reproduces the sweep's true totals.
    """
    configs = list(configs)
    with current_tracer().span(
        "analyze_sweep",
        configs=len(configs),
        sessions=len(table),
        workers=resolve_worker_count(workers),
    ):
        return _run_sweep(table, configs, grid, substrate, workers, progress)


def _run_sweep(
    table: SessionTable,
    configs: list[AnalysisConfig],
    grid: EpochGrid | None,
    substrate: AnalysisSubstrate | None,
    workers: int | str | None,
    progress: Callable[[int, int], None] | None,
) -> list[TraceAnalysis]:
    """The body of :func:`analyze_sweep`, without its span; ``analyze_trace``
    runs it under its own."""
    if not configs:
        return []
    n_workers = resolve_worker_count(workers)
    wall_start = time.perf_counter()

    # Group configs by epoch grid; one epoch split (and one set of
    # views) serves every config of a group.
    grouped: dict[EpochGrid, list[tuple[int, AnalysisConfig]]] = {}
    for i, config in enumerate(configs):
        g = (
            grid
            if grid is not None
            else EpochGrid.covering(table, epoch_seconds=config.epoch_seconds)
        )
        grouped.setdefault(g, []).append((i, config))
    group_grids = list(grouped)
    group_configs = [[c for _, c in grouped[g]] for g in group_grids]
    group_rows = [
        substrate.epoch_rows(g)
        if substrate is not None
        else split_into_epochs(table, g)[1]
        for g in group_grids
    ]

    index = None
    build_share = 0.0
    if any(g.n_epochs for g in group_grids):
        tracer = current_tracer()
        with tracer.span("index_build", reused=substrate is not None) as span:
            if substrate is None:
                substrate = AnalysisSubstrate.build(table)
            index = substrate.index
            for config in configs:
                index.warm_metric_masks(config.metrics, config.thresholds)
            span.set(leaves=int(index.leaf_keys.size))
        build_share = substrate.build_seconds / len(configs)

    units_per_epoch = [sum(len(c.metrics) for c in cs) for cs in group_configs]
    total_units = sum(n * g.n_epochs for n, g in zip(units_per_epoch, group_grids))
    units = [
        (gi, epoch, rows)
        for gi, rows_list in enumerate(group_rows)
        for epoch, rows in enumerate(rows_list)
    ]
    # ~4 contiguous batches per worker balance load without paying a
    # round trip per epoch; the serial path runs unit by unit.
    chunk = max(1, math.ceil(len(units) / (n_workers * 4))) if n_workers > 1 else 1
    batches = [units[i : i + chunk] for i in range(0, len(units), chunk)]

    # results[gi][epoch] -> per-config-in-group (summaries, timings)
    results: list[list] = [[None] * g.n_epochs for g in group_grids]
    done = 0

    def fold(batch_out: list) -> None:
        nonlocal done
        for gi, epoch, epoch_out in batch_out:
            results[gi][epoch] = epoch_out
            done += units_per_epoch[gi]
            if progress is not None:
                progress(done, total_units)

    fan_out(
        batches,
        _sweep_batch,
        (index, group_configs),
        fold,
        workers=n_workers,
        serial_span="epochs",
    )

    wall_share = (time.perf_counter() - wall_start) / len(configs)
    analyses: list[TraceAnalysis | None] = [None] * len(configs)
    for gi, g in enumerate(group_grids):
        for ci, (orig_i, config) in enumerate(grouped[g]):
            timings = PipelineTimings(index_build_s=build_share)
            per_epoch: list[list[EpochAnalysis]] = []
            for epoch in range(g.n_epochs):
                summaries, epoch_timings = results[gi][epoch][ci]
                per_epoch.append(summaries)
                timings.merge(epoch_timings)
            timings.wall_s = wall_share
            analyses[orig_i] = assemble_trace_analysis(
                g, config, per_epoch, timings
            )
    return analyses
