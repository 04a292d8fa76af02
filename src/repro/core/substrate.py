"""Config-independent analysis substrate and amortized config sweeps.

The paper's robustness story re-runs the whole pipeline under varied
knobs — the 1.5x ratio multiplier, metric thresholds, epoch lengths
(Section 2, Section 3.1 footnote 2). Almost everything ``analyze_trace``
computes is the *same* across those variants:

**Config-independent** (the substrate — built once per trace):

* the packed :class:`~repro.core.sessions.SessionTable` and its
  :class:`~repro.core.aggregation.KeyCodec`,
* the :class:`~repro.core.index.TraceClusterIndex` — the sorted leaf
  universe and the row -> leaf inverse,
* per-epoch :class:`~repro.core.index.EpochClusterView`\\ s (the
  lattice of the epoch's active leaves; depend on the epoch grid, not
  on thresholds), built a budgeted batch of epochs at a time,
* raw per-leaf validity/session folds (cached per metric on each view
  batch).

**Config-dependent** (cheap, re-run per variant):

* whole-table problem masks per (metric, thresholds) — cached on the
  index,
* the problem-cluster predicate (``min_sessions`` resolution, ratio
  multiplier, significance test),
* the critical-cluster phase-transition search.

:class:`AnalysisSubstrate` materializes the first list once;
:func:`analyze_sweep` runs N :class:`~repro.core.pipeline.AnalysisConfig`
variants over it, sharing one epoch view (and one session-count fold
per metric, and one aggregate per distinct (metric, thresholds)) across
all configs of each epoch, and detects every (config, metric) unit of
an epoch in one pass over the view's lattice. The views of a run of
epochs are built together, in batches whose rows x masks stay within
:data:`_VIEW_BUDGET`. Outputs are bit-identical
to N independent ``analyze_trace`` calls (pinned by
``tests/property/test_sweep_equivalence.py``); only the wall time
changes.

There is one substrate class, batch, streamed or loaded, and one way
to make one: ``AnalysisSubstrate(table)``. Its index is derived state,
built by :meth:`~repro.core.index.TraceClusterIndex.build` on the first
read of :attr:`AnalysisSubstrate.index` (:meth:`AnalysisSubstrate.build`
reads it at once). :meth:`AnalysisSubstrate.append` extends the table
in place (the shard store builder and loaded snapshots use it) and
drops the index, so N appends cost N table extends plus one build. A
snapshot (:mod:`repro.io.snapshot`) stores the table alone, and a
loaded one builds its index like any other. Epoch splits are always
derived per grid from the table, never kept per epoch. The online
detector builds one substrate per epoch instead, so its state does not
grow with the stream.

This is the only analysis engine: ``analyze_trace`` is a one-config
sweep, and :func:`_sweep_batch` (one view batch of epochs, then each
epoch's detection) is the only unit of work, run in-process or over
the process pool of :func:`~repro.core.fanout.fan_out`.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.aggregation import KeyCodec
from repro.core.epoching import EpochGrid, rows_by_epoch, split_into_epochs
from repro.core.fanout import fan_out
from repro.core.index import EpochClusterView, TraceClusterIndex
from repro.core.pipeline import (
    AnalysisConfig,
    MetricAnalysis,
    PipelineTimings,
    ResultTable,
    TraceAnalysis,
    _epoch_summaries,
    analyze_trace,
    resolve_worker_count,
)
from repro.core.metrics import QualityMetric
from repro.core.problems import ProblemClusterConfig
from repro.core.sessions import METRIC_COLUMNS, Session, SessionTable
from repro.obs import current_tracer


def _table_nbytes(table: SessionTable) -> int:
    """Bytes of a table's packed code matrix and metric columns."""
    return int(
        table.codes.nbytes + sum(getattr(table, c).nbytes for c in METRIC_COLUMNS)
    )


class AnalysisSubstrate:
    """Everything about a trace that no :class:`AnalysisConfig` changes.

    Build once with :meth:`build` (or construct over a table and let
    the first read of :attr:`index` build it), then run any number of
    configs over it — :meth:`analyze` for one, :meth:`sweep` for many —
    without re-packing sessions or rebuilding the cluster lattice.
    Epoch splits are derived per grid from the table
    (:func:`split_into_epochs`) and cached, so sweeping thresholds
    variants at the same epoch length re-uses the row partition too.

    The substrate also grows: :meth:`append` extends the table in
    place with a chunk of sessions (epoch-sized or otherwise, in any
    arrival order) and drops the index and the cached splits, and the
    next read of :attr:`index` builds the index over everything
    appended so far, so the batch path stays bit-identical to a fresh
    build over the concatenated chunks (pinned by
    ``tests/property/test_streaming_equivalence.py``). Start a stream
    from ``AnalysisSubstrate(SessionTable.empty(schema))`` or from a
    loaded snapshot.
    """

    __slots__ = ("table", "build_seconds", "_index", "_splits")

    def __init__(self, table: SessionTable) -> None:
        self.table = table
        self.build_seconds = 0.0
        self._index: TraceClusterIndex | None = None
        self._splits: dict[EpochGrid, list[np.ndarray]] = {}

    @classmethod
    def build(cls, table: SessionTable) -> "AnalysisSubstrate":
        """A substrate over ``table`` with its cluster index built."""
        with current_tracer().span("substrate.build", sessions=len(table)):
            substrate = cls(table)
            substrate.index  # the first read builds it
            return substrate

    @property
    def index(self) -> TraceClusterIndex:
        """The table's cluster index, built on the first read and on the
        first read after an :meth:`append` (one pack and one
        ``np.unique``); the build's seconds become :attr:`build_seconds`."""
        if self._index is None:
            t0 = time.perf_counter()
            self._index = TraceClusterIndex.build(self.table)
            self.build_seconds = time.perf_counter() - t0
        return self._index

    @property
    def codec(self) -> KeyCodec:
        return self.index.codec

    def __len__(self) -> int:
        return len(self.table)

    def append(self, chunk: "SessionTable | Iterable[Session]") -> np.ndarray:
        """Extend the table in place with a chunk of sessions and drop
        the index (with its warmed metric masks) and the cached epoch
        splits, which the next :attr:`index` and :meth:`epoch_rows`
        derive afresh. A substrate built over a caller's table extends
        that table object. Appends between two analyses cost one
        build, but a view built after every append pays one
        whole-table build each time.

        A chunk whose labels would push the packed key past 62 bits
        raises ``ValueError`` before anything changes, so later chunks
        still append. Returns the appended row indices.
        """
        if not isinstance(chunk, SessionTable):
            chunk = SessionTable.from_sessions(chunk, schema=self.table.schema)
        KeyCodec.layout(self.table.merged_vocab_sizes(chunk))  # the 62-bit check
        rows = self.table.extend(chunk)
        self._index = None
        self._splits.clear()
        return rows

    def epoch_view(self, rows: np.ndarray, epoch: int = 0, floor: int = 1):
        """Per-epoch cluster view over ``rows`` at session floor
        ``floor`` — the same reduction path the batch engine uses."""
        return self.index.epoch_view(rows, epoch=epoch, floor=floor)

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

    def pin_epochs(self, grid: EpochGrid, epoch_ids: np.ndarray) -> None:
        """Split the rows on ``grid`` by the given per-row epoch indices
        instead of ``grid.epoch_of``. A shard takes its epochs from the
        store grid this way (:meth:`~repro.core.shards.ShardStore.load_shard`).
        Dropped, like every split, by :meth:`append`."""
        self._splits[grid] = rows_by_epoch(epoch_ids, grid.n_epochs)

    def memory_bytes(self) -> int:
        """Bytes held by the whole substrate: packed session-table
        columns, index arrays (incl. caches) and cached per-grid
        epoch-row splits — the true footprint shard-size budgeting
        needs, not just the index, which it builds if it is not built
        yet. Doubling growth buffers of an appended-to substrate can
        transiently hold up to 2x the column bytes beyond this logical
        figure."""
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


#: The former name of the streaming substrate, now the one class; code
#: that imports or patches ``StreamingSubstrate.append`` by name still
#: resolves.
StreamingSubstrate = AnalysisSubstrate


#: Cells a view batch may span, counted as its rows x masks: a bound on
#: its leaf -> cluster matrix (one int32 per leaf and mask, and an epoch
#: has at most one leaf per row), which grows with the batch together
#: with the dense per-mask group counts. An epoch past it is a batch of
#: one. 3 x 2^18 holds five 1,200-session epochs: view time per epoch
#: barely falls past four, while each epoch adds its matrix to a pool
#: worker's peak.
_VIEW_BUDGET = 3 << 18


def epoch_floors(
    index: TraceClusterIndex,
    rows_list: Sequence[np.ndarray],
    served: Iterable[tuple[ProblemClusterConfig, QualityMetric]],
) -> list[int]:
    """The smallest session floor of the served (problem config,
    metric) pairs on each epoch of ``rows_list``.

    Each pair's floor is resolved on the metric's valid-session count
    in the epoch's rows, as :func:`~repro.core.problems.find_problem_clusters`
    resolves it from the aggregate, so an epoch view built for the
    result serves every pair. Each metric's counts are taken once for
    the whole batch.
    """
    floors = [1] * len(rows_list)
    n_valid: dict[str, list[int]] = {}
    for k, (config, metric) in enumerate(served):
        counts = n_valid.get(metric.name)
        if counts is None:
            valid = index.valid_mask(metric)
            counts = [int(np.count_nonzero(valid[rows])) for rows in rows_list]
            n_valid[metric.name] = counts
        resolved = [config.resolve_min_sessions(n) for n in counts]
        floors = resolved if k == 0 else list(map(min, floors, resolved))
    return floors


def epoch_floor(
    index: TraceClusterIndex,
    rows: np.ndarray,
    served: Iterable[tuple[ProblemClusterConfig, QualityMetric]],
) -> int:
    """:func:`epoch_floors` of one epoch."""
    (floor,) = epoch_floors(index, [rows], served)
    return floor


def _view_batches(
    units: Sequence[tuple[int, int, np.ndarray]], n_masks: int, max_epochs: int
) -> list[tuple[int, list[tuple[int, np.ndarray]]]]:
    """Consecutive (grid group, epoch, rows) units split into runs of
    one grid group, each a ``(group, [(epoch, rows), ...])`` view batch
    of at most ``max_epochs`` epochs whose rows x ``n_masks`` stay
    within :data:`_VIEW_BUDGET`; a unit past the budget runs alone."""
    runs: list[tuple[int, list]] = []
    cells = 0
    for gi, epoch, rows in units:
        size = np.size(rows) * n_masks
        if (
            not runs
            or runs[-1][0] != gi
            or len(runs[-1][1]) == max_epochs
            or cells + size > _VIEW_BUDGET
        ):
            runs.append((gi, []))
            cells = 0
        runs[-1][1].append((epoch, rows))
        cells += size
    return runs


def _sweep_epoch(
    view: EpochClusterView,
    configs: Sequence[AnalysisConfig],
    timings: Sequence[PipelineTimings],
    view_share: float,
    view_batches: int,
) -> list[tuple]:
    """All configs x metrics of one epoch, sharing one epoch view.

    The view, built for the smallest session floor of every (config,
    metric) pair, serves every config; its batch folds session counts
    once per metric and problem counts once per (metric, thresholds),
    and distinct (metric, thresholds) pairs share one aggregate. Every
    (config, metric) unit of the epoch is then detected in one pass
    over the view's lattice (:func:`~repro.core.pipeline._epoch_summaries`),
    which returns one :class:`~repro.core.pipeline.ResultTable` part
    per unit, configs in order and metrics in order within a config.
    The epoch's seconds are added to each config's ``timings``:
    ``view_share`` is the view batch's build seconds split evenly over
    its epochs and configs, and the problem and critical seconds are
    split evenly across the configs, so the sums over the timings stay
    true; ``view_batches`` (1 on a batch's first epoch, else 0) counts
    the batch once per config.
    """
    agg_cache: dict = {}
    units = []
    for config, config_timings in zip(configs, timings):
        config_timings.pack_s += view_share
        config_timings.n_epochs += 1
        config_timings.n_units += len(config.metrics)
        config_timings.n_view_batches += view_batches
        for metric in config.metrics:
            key = (metric.name, config.thresholds)
            t1 = time.perf_counter()
            agg = agg_cache.get(key)
            if agg is None:
                agg = view.aggregate(metric, thresholds=config.thresholds)
                agg_cache[key] = agg
            config_timings.aggregate_s += time.perf_counter() - t1
            units.append((agg, config.problem_config))

    parts, problems_s, critical_s = _epoch_summaries(units, view.epoch)
    for config_timings in timings:
        config_timings.problems_s += problems_s / len(configs)
        config_timings.critical_s += critical_s / len(configs)
    return parts


def _sweep_batch(state, run: tuple[int, list[tuple[int, np.ndarray]]]) -> tuple:
    """One view batch of a grid group's (epoch, rows) units and each of
    its epochs' detection; the fan-out task.

    The only unit of analysis work: the serial loop and the process
    pool both run it, which is what guarantees serial/parallel
    equality. The run's views are built together
    (:meth:`~repro.core.index.TraceClusterIndex.epoch_views`) for the
    smallest session floor of each epoch's (config, metric) pairs, and
    each epoch is then detected on its own view (:func:`_sweep_epoch`);
    the batch is dropped on return.

    Returns ``(group, epochs, block, timings)``: the batch's epochs, one
    :class:`~repro.core.pipeline.ResultTable` block holding every
    (unit, epoch) of the batch unit-major — unit ``u``'s epochs at
    positions ``u * len(epochs)`` on — with keys packed against the
    index's codec (which the parent attaches), and one
    :class:`PipelineTimings` per config of the group.
    """
    index, groups = state
    gi, units = run
    configs = groups[gi]
    served = [(c.problem_config, m) for c in configs for m in c.metrics]
    rows_list = [rows for _, rows in units]
    t0 = time.perf_counter()
    views = index.epoch_views(
        rows_list,
        [epoch for epoch, _ in units],
        epoch_floors(index, rows_list, served),
    )
    share = (time.perf_counter() - t0) / (len(views) * len(configs))
    timings = [PipelineTimings() for _ in configs]
    per_epoch = [
        _sweep_epoch(view, configs, timings, share, int(k == 0))
        for k, view in enumerate(views)
    ]
    block = ResultTable.from_parts(
        [parts[u] for u in range(len(served)) for parts in per_epoch]
    )
    return gi, [view.epoch for view in views], block, timings


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
    per distinct (metric, thresholds), and one detection pass finds the
    problem and critical clusters of every (config, metric) unit.

    ``workers`` fans epochs out over a process pool: ``None``/``0``/``1``
    run serially in-process, ``"auto"`` uses every CPU, ``n`` uses
    ``n`` processes; results are identical at any count. ``progress``
    is called with ``(done_units, total_units)`` where units are
    (config, epoch, metric) triples, once per epoch as each batch of
    epochs completes across all configs.

    Timing attribution: aggregation is measured per config; shared
    costs — substrate build, epoch-view construction, each epoch's
    problem and critical stages, the parent's wall clock — are divided
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
    # One view batch per task. In the pool a batch also holds at most a
    # quarter of a worker's share of the epochs, so ~4 tasks per worker
    # balance load without paying a round trip per epoch.
    per_task = (
        math.ceil(len(units) / (n_workers * 4)) if n_workers > 1 else len(units)
    )
    tasks = (
        _view_batches(units, index.codec.full_mask + 1, per_task) if units else []
    )

    # results[gi] -> the (epochs, block, timings) of each of its tasks
    results: list[list[tuple]] = [[] for _ in group_grids]
    done = 0

    def fold(task_out: tuple) -> None:
        nonlocal done
        gi, epochs, block, timings = task_out
        results[gi].append((epochs, block, timings))
        for _ in epochs:
            done += units_per_epoch[gi]
            if progress is not None:
                progress(done, total_units)

    fan_out(
        tasks,
        _sweep_batch,
        (index, group_configs),
        fold,
        workers=n_workers,
        serial_span="epochs",
    )

    wall_share = (time.perf_counter() - wall_start) / len(configs)
    codecs = (index.codec.snapshot(),) if index is not None else ()
    analyses: list[TraceAnalysis | None] = [None] * len(configs)
    for gi, g in enumerate(group_grids):
        parts = sorted(results[gi], key=lambda part: part[0][0])
        whole = ResultTable.concat([block for _, block, _ in parts], codecs)
        # Unit u of a task with E epochs sits at u * E past the task's
        # first position in ``whole``, its epochs contiguous.
        sizes = np.array([len(epochs) for epochs, _, _ in parts], dtype=np.int64)
        bases = np.cumsum(sizes * units_per_epoch[gi]) - sizes * units_per_epoch[gi]
        local = np.arange(g.n_epochs) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        u = 0
        for ci, (orig_i, config) in enumerate(grouped[g]):
            timings = PipelineTimings(index_build_s=build_share)
            for _, _, part_timings in parts:
                timings.merge(part_timings[ci])
            timings.wall_s = wall_share
            metrics = {}
            for metric in config.metrics:
                positions = np.repeat(bases + u * sizes, sizes) + local
                metrics[metric.name] = MetricAnalysis(
                    metric, g, table=whole.take(positions)
                )
                u += 1
            analyses[orig_i] = TraceAnalysis(
                grid=g, config=config, metrics=metrics, timings=timings
            )
    return analyses
