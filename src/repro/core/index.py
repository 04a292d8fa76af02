"""Trace-level leaf index: pack once, build epoch lattices from its leaves.

The per-epoch pipeline used to rebuild the same structure for every
(epoch, metric) unit: pack attribute codes into int64 leaf keys, reduce
them with ``np.unique``, project every non-empty attribute mask, and
``searchsorted`` leaf keys into each mask's cluster table. The index
splits the work into two amortised levels:

**Trace level** (:class:`TraceClusterIndex`, built once per trace): all
sessions are packed once and reduced to the trace's sorted leaf
universe (``leaf_keys`` + a row -> leaf inverse), and per-metric
validity/problem masks over the whole table are computed once and
sliced per epoch. Nothing per attribute mask is kept at this level, so
building is one pack plus one ``np.unique``. That build is the index's
only construction path: a table that grows is indexed again, lazily,
on the next read (:attr:`repro.core.substrate.AnalysisSubstrate.index`).

**Epoch level** (:class:`EpochClusterView`, one per epoch, shared by
every metric): the *iceberg* lattice of the epoch's active leaves —
only the clusters with at least ``floor`` sessions, where the floor is
the smallest §3.1 session floor of the (config, metric) pairs the view
serves (floor 1 keeps the whole lattice through the same code). A
cluster's sessions are a subset of its parent's, so the kept clusters
are closed under coarsening, and every metric's valid sessions are a
subset of all sessions, so no cluster a detector can find significant
is pruned. Views are built a batch of epochs at a time
(:meth:`TraceClusterIndex.epoch_views`, a :class:`ViewBatch`; one
epoch is a batch of one): masks are built coarse to fine for every
epoch of the batch at once, each kept cluster carrying its epoch
beside its packed key and each epoch keeping its own floor. Each
mask's candidates are the leaves under the kept clusters of one
one-attribute-coarser parent, grouped by (parent cluster, code of the
added attribute) with one dense ``bincount``; a mask with a parent that
kept nothing is skipped, and only the kept keys are sorted. Each
epoch's result is laid out flat as one
:class:`~repro.core.aggregation.EpochLattice` — every kept cluster gets
an id in the epoch's ``(mask, key)`` order and every leaf one id per
mask (-1 where its cluster was pruned) — sliced out of the batch's
arrays, which is what lets the detectors work on whole-lattice arrays.

With a view, aggregating one (epoch, metric) unit collapses to two
``np.bincount`` calls at the leaf level plus the *residual fold*: a
kept cluster's count is the sum of its kept children on one finer mask
plus the leaves under its pruned children there, one ``bincount`` per
popcount level, fine to coarse, run once per count vector for the whole
batch. This is the only aggregation path in the library. On the kept
clusters the counts equal a direct per-metric aggregation (pack the
metric's valid rows, ``np.unique`` them, project every mask), which the
test suite keeps as its oracle (``tests/core/direct_aggregate.py``).
The direct path also holds every cluster below the floor, which no
detector at or above the floor reads, and drops leaf combinations whose
sessions are all invalid for the metric, which the view keeps with
zero counts; zero-count clusters can never be problem clusters, never
disqualify an ancestor, and never receive attribution. So
problem/critical outputs are identical to the oracle's (pinned by
``tests/property/test_parallel_equivalence.py`` and
``tests/core/test_detector_oracle.py``), at any batch size
(``tests/core/test_view_batch.py``).

Memory footprint: the trace level holds ``n_leaves * 8`` bytes of leaf
keys, ``n_rows * 4`` bytes of row -> leaf inverse and one byte per row
per cached metric mask (:meth:`TraceClusterIndex.memory_bytes`). A
batch holds its kept cluster keys (8 bytes each) and one representative
leaf per cluster (4 bytes), the residual fold's index arrays (one entry
per kept child and residual leaf), its count folds and an int32
``(n_masks + 1) x n_leaves`` leaf -> cluster matrix over all its
epochs' active leaves; each count vector is one int64 per kept cluster.
It is dropped with its last view, so callers bound the rows they batch
(:data:`repro.core.substrate._VIEW_BUDGET`).
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.aggregation import EpochAggregate, EpochLattice, KeyCodec
from repro.core.attributes import popcount
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.sessions import SessionTable
from repro.obs import current_metrics, current_tracer


class TraceClusterIndex:
    """Leaf universe of one :class:`SessionTable`.

    Build once with :meth:`build`, then call :meth:`epoch_view` for any
    rows subset of the same table.
    The index snapshots the table's vocabularies through its
    :class:`KeyCodec`, so decoded cluster identities are stable across
    epochs. It covers the table as it was built and is never updated:
    :meth:`~repro.core.substrate.AnalysisSubstrate.append` drops it and
    the next read of ``substrate.index`` builds a new one.
    """

    __slots__ = (
        "table",
        "codec",
        "leaf_keys",
        "row_to_leaf",
        "_valid_masks",
        "_problem_masks",
    )

    def __init__(
        self,
        table: SessionTable,
        codec: KeyCodec,
        leaf_keys: np.ndarray,
        row_to_leaf: np.ndarray,
    ) -> None:
        self.table = table
        self.codec = codec
        self.leaf_keys = leaf_keys
        self.row_to_leaf = row_to_leaf
        self._valid_masks: dict[str, np.ndarray] = {}
        self._problem_masks: dict[
            tuple[str, MetricThresholds], np.ndarray
        ] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, table: SessionTable) -> "TraceClusterIndex":
        """Pack all sessions and reduce them to the sorted leaf universe.

        Raises ``ValueError`` when the table's vocabularies need more
        than the packed key's 62 bits.
        """
        with current_tracer().span("index.build", sessions=len(table)) as span:
            codec = KeyCodec.from_table(table)
            leaf_keys, row_to_leaf = np.unique(
                codec.pack(table.codes), return_inverse=True
            )
            index = cls(
                table=table,
                codec=codec,
                leaf_keys=leaf_keys,
                row_to_leaf=row_to_leaf.astype(np.int32, copy=False),
            )
            span.set(leaves=int(leaf_keys.size))
        current_metrics().inc("index.builds")
        return index

    # ------------------------------------------------------------------
    # Precomputed structure
    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return int(self.leaf_keys.size)

    def valid_mask(self, metric: QualityMetric) -> np.ndarray:
        """Whole-table validity mask for one metric (threshold-free).

        Validity depends only on the metric's definition (e.g. "joined
        sessions only"), never on thresholds, so config sweeps reuse one
        cached mask per metric across every thresholds variant.
        """
        cached = self._valid_masks.get(metric.name)
        if cached is None:
            cached = metric.valid_mask(self.table)
            self._valid_masks[metric.name] = cached
        return cached

    def problem_mask(
        self, metric: QualityMetric, thresholds: MetricThresholds | None = None
    ) -> np.ndarray:
        """Whole-table problem mask, cached per (metric, thresholds)."""
        thresholds = thresholds or MetricThresholds()
        key = (metric.name, thresholds)
        cached = self._problem_masks.get(key)
        if cached is None:
            cached = metric.problem_mask(self.table, thresholds)
            self._problem_masks[key] = cached
        return cached

    def metric_masks(
        self, metric: QualityMetric, thresholds: MetricThresholds | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-table ``(valid, problem)`` boolean masks for one metric.

        Computed once per metric (validity) and per (metric name,
        thresholds) pair (problem flags) and cached; per-epoch
        aggregation slices these instead of re-deriving full-table
        masks for every epoch.
        """
        return self.valid_mask(metric), self.problem_mask(metric, thresholds)

    def warm_metric_masks(
        self,
        metrics: Iterable[QualityMetric],
        thresholds: MetricThresholds | None = None,
    ) -> None:
        """Precompute metric masks (e.g. before shipping to workers)."""
        for metric in metrics:
            self.metric_masks(metric, thresholds)

    def memory_bytes(self) -> int:
        """Bytes held by the index's numpy arrays (incl. metric masks)."""
        arrays = [self.leaf_keys, self.row_to_leaf]
        arrays += list(self._valid_masks.values())
        arrays += list(self._problem_masks.values())
        return int(sum(a.nbytes for a in arrays))

    # ------------------------------------------------------------------
    # Per-epoch reduction
    # ------------------------------------------------------------------
    def epoch_views(
        self,
        rows_list: Sequence[np.ndarray],
        epochs: Sequence[int],
        floors: Sequence[int],
    ) -> list["EpochClusterView"]:
        """One view per epoch, built for the whole batch in one pass.

        ``rows_list[k]`` are the rows of epoch ``epochs[k]`` and
        ``floors[k]`` its session floor. Each view's lattice, and every
        aggregate it gives, equals what a batch of that epoch alone
        gives; the batch only shares the numpy calls of its masks and
        folds (:class:`ViewBatch`).
        """
        if not len(rows_list):
            return []
        with current_tracer().span(
            "index.view_batch", epochs=len(rows_list)
        ) as span:
            batch = ViewBatch(self, rows_list, floors)
            span.set(
                rows=int(batch.rows.size),
                leaves=batch.n_leaves,
                clusters=batch.n_clusters,
            )
        return [
            EpochClusterView(batch, k, epoch, lattice)
            for k, (epoch, lattice) in enumerate(zip(epochs, batch.lattices))
        ]

    def epoch_view(
        self, rows: np.ndarray, epoch: int = 0, floor: int = 1
    ) -> "EpochClusterView":
        """The lattice of the epoch's clusters with at least ``floor``
        sessions, shared by every metric analysed over the same
        ``rows`` whose session floor is ``floor`` or more: a batch of
        one (:meth:`epoch_views`)."""
        (view,) = self.epoch_views([rows], [epoch], [floor])
        return view


class ViewBatch:
    """The iceberg lattices of a batch of epochs, built in one pass.

    Leaves are numbered epoch-major: epoch ``k``'s active leaves,
    ascending by key, are batch leaves ``leaf_offsets[k]:leaf_offsets[k
    + 1]``. Every kept cluster carries its epoch beside its packed key
    (the 62-bit key layout is the trace's), so the masks are built once
    for the whole batch (:func:`_build_iceberg`). Clusters are numbered
    epoch-major too: epoch ``k``'s are batch ids
    ``cluster_offsets[k]:cluster_offsets[k + 1]``, in that epoch's own
    ``(mask, key)`` order. The leaf -> cluster matrix holds epoch-local
    ids, so each epoch's :class:`~repro.core.aggregation.EpochLattice`
    is slices of the batch's arrays (a column slice of the matrix, a
    slice of the keys and representative leaves, one row of the
    per-epoch mask starts), equal to the lattice a batch of that epoch
    alone builds.

    Count vectors are folded once for the whole batch, per metric
    (session counts) and per (metric, thresholds) (problem counts);
    each epoch's aggregate slices them. A batch holds one int32
    ``(n_masks + 1) x n_leaves`` matrix over all its epochs' leaves, so
    callers bound the rows they batch together.
    """

    __slots__ = (
        "index",
        "rows",
        "row_leaf",
        "row_offsets",
        "leaf_offsets",
        "cluster_offsets",
        "lattices",
        "_levels",
        "_sessions",
        "_problems",
    )

    def __init__(
        self,
        index: TraceClusterIndex,
        rows_list: Sequence[np.ndarray],
        floors: Sequence[int],
    ) -> None:
        self.index = index
        n = len(rows_list)
        sizes = [np.size(rows) for rows in rows_list]
        self.row_offsets = np.array([0] + sizes, dtype=np.int64).cumsum()
        self.rows = rows = np.concatenate(rows_list)

        # One np.unique over (epoch, trace leaf) pairs, the epoch in the
        # high bits, sorts the leaves epoch-major and by key within each
        # epoch.
        shift = max(index.n_leaves - 1, 0).bit_length()
        leaf_ids = index.row_to_leaf[rows] + (
            np.arange(n, dtype=np.int64) << shift
        ).repeat(sizes)
        leaf_ids, row_leaf, leaf_rows = np.unique(
            leaf_ids, return_inverse=True, return_counts=True
        )
        self.row_leaf = row_leaf.astype(np.int32, copy=False)
        leaf_epoch = leaf_ids >> shift
        self.leaf_offsets = leaf_epoch.searchsorted(np.arange(n + 1))
        leaf_ids &= (1 << shift) - 1

        floors = np.asarray(floors, dtype=np.int64)
        codec = index.codec
        (
            keys,
            epoch_starts,
            leaf_cluster,
            rep_leaf,
            self.cluster_offsets,
            levels,
        ) = _build_iceberg(
            codec,
            index.leaf_keys[leaf_ids],
            leaf_rows,
            leaf_epoch,
            self.leaf_offsets,
            floors,
        )
        self._levels = levels
        self._sessions: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._problems: dict[
            tuple[str, MetricThresholds], tuple[np.ndarray, np.ndarray]
        ] = {}

        leaf_bounds = self.leaf_offsets.tolist()
        cluster_bounds = self.cluster_offsets.tolist()
        self.lattices = [
            EpochLattice(
                codec,
                keys[cluster_bounds[k] : cluster_bounds[k + 1]],
                epoch_starts[k],
                leaf_cluster[:, leaf_bounds[k] : leaf_bounds[k + 1]],
                rep_leaf[cluster_bounds[k] : cluster_bounds[k + 1]],
                floor=int(floors[k]),
            )
            for k in range(n)
        ]

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_offsets[-1])

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_offsets[-1])

    def _fold(self, leaf_counts: np.ndarray) -> np.ndarray:
        """Per-cluster counts of a per-leaf count vector.

        Levels run fine to coarse, so a cluster's kept children on its
        fold mask are complete before it sums them with its residual
        leaves. Counts stay int64-exact: bincount's float64 weights are
        exact for values < 2^53.
        """
        n = self.n_clusters
        counts = np.zeros(n, dtype=np.float64)
        for dst, children, residual in self._levels:
            weights = np.concatenate((counts[children], leaf_counts[residual]))
            counts += np.bincount(dst, weights=weights, minlength=n)
        return counts.astype(np.int64)

    def _leaf_fold(self, flagged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(per-leaf, per-cluster)`` counts of the batch rows set in
        the boolean ``flagged``."""
        leaf_counts = np.bincount(
            self.row_leaf[flagged], minlength=self.n_leaves
        ).astype(np.int64, copy=False)
        return leaf_counts, self._fold(leaf_counts)

    def session_counts(self, metric: QualityMetric) -> tuple[np.ndarray, np.ndarray]:
        """``(leaf_sessions, sessions)`` of one metric over the batch.

        Session counts depend only on the metric's *validity* pattern,
        never on thresholds, so one fold per metric is shared by every
        thresholds variant of a config sweep.
        """
        cached = self._sessions.get(metric.name)
        if cached is None:
            cached = self._leaf_fold(self.index.valid_mask(metric)[self.rows])
            self._sessions[metric.name] = cached
        return cached

    def problem_counts(
        self, metric: QualityMetric, thresholds: MetricThresholds | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(leaf_problems, problems)`` of one (metric, thresholds) pair
        over the batch, folded once."""
        key = (metric.name, thresholds or MetricThresholds())
        cached = self._problems.get(key)
        if cached is None:
            cached = self._leaf_fold(
                self.index.problem_mask(metric, thresholds)[self.rows]
            )
            self._problems[key] = cached
        return cached


class EpochClusterView:
    """The iceberg cluster lattice of one epoch's active leaves.

    Holds the epoch's :class:`~repro.core.aggregation.EpochLattice`,
    built for a session ``floor``: only the clusters with at least
    ``floor`` sessions are kept, and each leaf's cluster id per mask is
    -1 where its cluster was pruned. The lattice and the residual fold
    that sums any per-leaf count vector into the kept clusters belong
    to the view's :class:`ViewBatch`; the view is its epoch's slice.

    The view is metric-independent: aggregate each metric over the same
    epoch with :meth:`aggregate`. Every metric's valid sessions are a
    subset of the epoch's sessions, so a view built for the smallest
    floor any (config, metric) pair resolves to serves all of them.
    Every aggregate carries the view's lattice, so the problem/critical
    detectors of every metric and config share its ids and memoised
    keys.
    """

    __slots__ = ("batch", "slot", "epoch", "rows", "lattice", "_leaves", "_clusters")

    def __init__(
        self, batch: ViewBatch, slot: int, epoch: int, lattice: EpochLattice
    ) -> None:
        self.batch = batch
        self.slot = slot
        self.epoch = epoch
        self.lattice = lattice
        rows = batch.row_offsets
        self.rows = batch.rows[rows[slot] : rows[slot + 1]]
        leaves, clusters = batch.leaf_offsets, batch.cluster_offsets
        self._leaves = slice(int(leaves[slot]), int(leaves[slot + 1]))
        self._clusters = slice(int(clusters[slot]), int(clusters[slot + 1]))

    @property
    def n_leaves(self) -> int:
        return self.lattice.n_leaves

    @property
    def row_leaf_local(self) -> np.ndarray:
        """Each of the epoch's rows' leaf, numbered within the epoch."""
        batch, k = self.batch, self.slot
        rows = batch.row_leaf[batch.row_offsets[k] : batch.row_offsets[k + 1]]
        return rows - int(batch.leaf_offsets[k])

    def keys(self, mask: int) -> np.ndarray:
        """Sorted packed keys of the epoch's kept clusters of ``mask``."""
        return self.lattice.keys[self.lattice.span(mask)]

    def aggregate(
        self,
        metric: QualityMetric,
        thresholds: MetricThresholds | None = None,
    ) -> EpochAggregate:
        """Aggregate this epoch's rows for one metric.

        On every cluster the view keeps, the counts equal a direct
        per-metric aggregation of the same rows (the test suite's
        oracle). That direct path also holds the clusters below the
        view's floor and drops clusters with no *valid* session for the
        metric, which the view keeps with zero counts; detection at any
        floor at or above the view's reads neither. The counts are
        slices of the batch's folds (two leaf-level bincounts plus the
        residual fold, once per batch); no per-epoch key packing at
        all. The threshold-independent half (validity and session
        counts) is folded once per metric, so re-aggregating under new
        thresholds pays only the problem counts.
        """
        leaf_sessions, sessions = self.batch.session_counts(metric)
        leaf_problems, problems = self.batch.problem_counts(metric, thresholds)
        leaves, clusters = self._leaves, self._clusters
        return EpochAggregate(
            epoch=self.epoch,
            metric_name=metric.name,
            lattice=self.lattice,
            sessions=sessions[clusters],
            problems=problems[clusters],
            leaf_sessions=leaf_sessions[leaves],
            leaf_problems=leaf_problems[leaves],
        )


class _Links(NamedTuple):
    """The mask lattice of ``n_attrs`` attributes, indexed by mask."""

    #: One-attribute-coarser parents as (parent, added attribute) pairs.
    parents: tuple
    #: The same parents as a set.
    parent_set: tuple
    #: One-attribute-finer children.
    children: tuple
    #: Entry ``d``: the masks of ``d`` attributes.
    by_depth: tuple


@functools.lru_cache(maxsize=None)
def _links(n_attrs: int) -> _Links:
    """The mask lattice the builder and the residual fold walk."""
    masks = range(1 << n_attrs)
    parents = tuple(
        tuple((m ^ 1 << i, i) for i in range(n_attrs) if m >> i & 1) for m in masks
    )
    children = tuple(
        tuple(m | 1 << i for i in range(n_attrs) if not m >> i & 1) for m in masks
    )
    return _Links(
        parents=parents,
        parent_set=tuple(frozenset(p for p, _ in pairs) for pairs in parents),
        children=children,
        by_depth=tuple(
            tuple(m for m in masks if popcount(m) == d) for d in range(n_attrs + 1)
        ),
    )


def _build_iceberg(
    codec: KeyCodec,
    leaf_keys: np.ndarray,
    leaf_rows: np.ndarray,
    leaf_epoch: np.ndarray,
    leaf_offsets: np.ndarray,
    floors: np.ndarray,
) -> tuple:
    """The clusters of a batch of epochs with at least their epoch's
    floor of sessions, and their residual fold.

    ``leaf_keys`` are the batch's leaves, epoch-major (epoch ``k``'s
    are ``leaf_offsets[k]:leaf_offsets[k + 1]``, ascending by key),
    ``leaf_rows`` their session counts, ``leaf_epoch`` their epochs and
    ``floors[k]`` epoch ``k``'s floor. Mask 0 holds one root per epoch
    whose sessions reach its floor. Masks are visited in ascending
    order, so each mask's one-attribute-coarser parents are done before
    it. A mask is skipped when a parent kept no cluster in any epoch
    (each of its clusters would lie under a pruned one). Otherwise its
    candidates are the leaves under the kept clusters of one parent,
    grouped by (parent cluster, code of the added attribute) with one
    dense ``bincount``, and a group is kept when it reaches the floor of
    its parent's epoch. The parent is the one that minimises the
    elements that ``bincount`` touches (its covered leaves plus kept
    clusters x the added attribute's codes). Only the kept keys are
    sorted, by (epoch, key). Which parent generates a mask changes
    neither its kept set nor its order, so every epoch gets the
    clusters a batch of it alone gets.

    The mask loop numbers clusters mask-major over the whole batch;
    one stable sort by epoch then numbers them epoch-major, and each
    leaf's epoch-local cluster id per mask is written once the ids are
    known. Returns the batch's clusters numbered epoch-major: their
    keys, each epoch's mask starts (one row per epoch), the leaf ->
    cluster matrix of epoch-local ids (-1 where pruned), one
    representative leaf per cluster (numbered within its epoch), the
    epochs' cluster offsets and the residual fold
    (:func:`_residual_levels`).
    """
    n_attrs = codec.n_attrs
    full = codec.full_mask
    offsets = codec.offsets.tolist()
    n_leaves = leaf_keys.size
    codes = [
        (leaf_keys >> offsets[i]) & ((1 << int(codec.widths[i])) - 1)
        for i in range(n_attrs)
    ]
    n_codes = [int(c.max()) + 1 if n_leaves else 1 for c in codes]
    weights = leaf_rows.astype(np.float64)
    n_epochs = floors.size

    none = np.empty(0, dtype=np.intp)
    # Mask 0 holds one root per epoch whose sessions reach its floor;
    # an epoch's sessions are its leaves' rows.
    bounds = leaf_offsets.tolist()
    roots = [
        k
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if hi > lo and int(leaf_rows[lo:hi].sum()) >= floors[k]
    ]
    # Per mask: the kept keys, the covered leaves, each covered leaf's
    # cluster position within the mask, each kept cluster's epoch,
    # floor (a column, for the keep test of its children) and
    # representative leaf.
    size = [0] * (full + 1)
    size[0] = len(roots)
    keys = [np.zeros(len(roots), dtype=np.int64)] + [np.empty(0, np.int64)] * full
    covered = [none] * (full + 1)
    if roots:
        covered[0] = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in roots])
    local = [
        np.repeat(np.arange(len(roots)), [bounds[k + 1] - bounds[k] for k in roots])
    ] + [none] * full
    owner = [np.array(roots, dtype=np.intp)] + [none] * full
    floor = [floors[owner[0]][:, None]] + [none] * full
    reps = [np.empty(0, np.int32)] * (full + 1)
    starts = [0, 0]
    links = _links(n_attrs)
    # Masks that kept no cluster in any epoch.
    empty = set() if roots else {0}
    for m, parents in enumerate(links.parents[1:], start=1):
        starts.append(starts[-1])
        if not empty.isdisjoint(links.parent_set[m]):
            empty.add(m)
            continue
        p, i = min(
            parents, key=lambda pi: covered[pi[0]].size + size[pi[0]] * n_codes[pi[1]]
        )
        n = n_codes[i]
        cand = covered[p]
        group = local[p] * n + codes[i][cand]
        counts = np.bincount(group, weights=weights[cand], minlength=size[p] * n)
        kept = (counts.reshape(size[p], n) >= floor[p]).ravel().nonzero()[0]
        if not kept.size:
            empty.add(m)
            continue
        parent, code = np.divmod(kept, n)
        unsorted = keys[p][parent] | code << offsets[i]
        # kept ascends and a mask's clusters are epoch-major, so the
        # epochs ascend and stay in place under the sort.
        epochs = owner[p][parent]
        order = np.lexsort((unsorted, epochs))
        slot = np.empty(counts.size, dtype=np.int32)
        slot.fill(-1)
        slot[kept[order]] = np.arange(kept.size)
        pos = slot[group]
        inside = (pos >= 0).nonzero()[0]
        if inside.size < pos.size:
            cand, pos = cand[inside], pos[inside]
        size[m], keys[m], covered[m], local[m] = kept.size, unsorted[order], cand, pos
        owner[m], floor[m] = epochs, floor[p][parent]
        starts[-1] += kept.size
        reps[m] = rep = np.empty(kept.size, dtype=np.int32)
        rep[pos] = cand

    del floor, owner
    built = [m for m in range(1, full + 1) if size[m]]
    kept_reps = np.concatenate([reps[0]] + [reps[m] for m in built])
    # Mask-major position -> epoch-major batch id, stable, so each
    # epoch keeps its (mask, key) order.
    owners = leaf_epoch[kept_reps]
    order = owners.argsort(kind="stable")
    batch_id = np.empty(order.size, dtype=np.int64)
    batch_id[order] = np.arange(order.size)
    masks = np.array(built, dtype=np.intp).repeat([size[m] for m in built])
    per_mask = np.bincount(
        owners * (full + 1) + masks, minlength=n_epochs * (full + 1)
    ).reshape(n_epochs, full + 1)
    epoch_starts = np.zeros((n_epochs, full + 2), dtype=np.int64)
    epoch_starts[:, 1:] = per_mask.cumsum(axis=1)
    cluster_offsets = np.zeros(n_epochs + 1, dtype=np.int64)
    cluster_offsets[1:] = epoch_starts[:, -1].cumsum()
    local_id = (batch_id - cluster_offsets[owners]).astype(np.int32)
    leaf_cluster = np.full((full + 1, n_leaves), -1, dtype=np.int32)
    for m in built:
        leaf_cluster[m][covered[m]] = local_id[starts[m] : starts[m + 1]][local[m]]
    del local
    epoch_reps = (kept_reps - leaf_offsets[owners]).astype(np.int32)[order]
    epoch_keys = np.concatenate([keys[0][:0]] + [keys[m] for m in built])[order]
    leaf_base = cluster_offsets[:-1].repeat(np.diff(leaf_offsets))
    levels = _residual_levels(
        links, size, starts, batch_id, leaf_cluster, covered, reps, leaf_base
    )
    return epoch_keys, epoch_starts, leaf_cluster, epoch_reps, cluster_offsets, levels


def _residual_levels(
    links: _Links,
    size: list[int],
    starts: list[int],
    batch_id: np.ndarray,
    leaf_cluster: np.ndarray,
    covered: list[np.ndarray],
    reps: list[np.ndarray],
    leaf_base: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The residual fold, one ``(dst, children, residual)`` per level.

    A kept cluster's count is the sum of its kept children on one
    one-attribute-finer mask ``f`` plus the leaves under its pruned
    children there. A leaf covered on ``f`` is covered on ``m``, so
    those residual leaves number ``covered(m) - covered(f)`` and ``f``
    is chosen to minimise kept children plus residual leaves without a
    pass over the leaves (no finer mask with a kept cluster: every
    covered leaf is residual). The counts are exact integers whichever
    ``f`` a cluster folds through. Levels are popcounts, finest first;
    each one sums the kept clusters ``children`` and the leaves
    ``residual`` into the cluster ids ``dst`` (children first, then
    leaves), all batch ids.

    ``size`` and ``starts`` count each mask's clusters over the batch in
    mask-major order, ``batch_id`` maps those positions to batch ids,
    ``reps[m]`` holds one leaf of each of mask ``m``'s clusters,
    ``leaf_cluster`` each leaf's epoch-local ids and ``leaf_base`` each
    leaf's epoch's first batch id.
    """
    none = np.empty(0, dtype=np.intp)
    n_covered = [leaves.size for leaves in covered]
    levels = []
    for depth in range(len(links.by_depth) - 1, 0, -1):
        child_dst, kids, child_reps, residual_dst, residual = [], [], [], [], []
        for m in links.by_depth[depth]:
            if not size[m]:
                continue
            leaves = covered[m]
            covered[m] = none  # read again only through n_covered
            on_m = leaf_cluster[m]
            finer = [f for f in links.children[m] if size[f]]
            if finer:
                f = min(finer, key=lambda f: size[f] - n_covered[f])
                child_dst.append(on_m[reps[f]])
                kids.append(batch_id[starts[f] : starts[f + 1]])
                child_reps.append(reps[f])
                if n_covered[f] == leaves.size:
                    continue
                leaves = leaves[leaf_cluster[f][leaves] < 0]
            residual_dst.append(on_m[leaves])
            residual.append(leaves)
        if child_dst or residual_dst:
            dst = np.concatenate(child_dst + residual_dst) + leaf_base[
                np.concatenate(child_reps + residual)
            ]
            levels.append(
                (dst, np.concatenate(kids + [none]), np.concatenate(residual + [none]))
            )
    return levels
