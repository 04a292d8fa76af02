"""Trace-level leaf index: pack once, build each epoch's lattice from its leaves.

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
building is one pack plus one ``np.unique`` and appending a chunk is
one sorted leaf merge plus a ``row_to_leaf`` remap.

**Epoch level** (:class:`EpochClusterView`, built once per epoch and
shared by every metric): the *iceberg* lattice of the epoch's active
leaves — only the clusters with at least ``floor`` sessions, where the
floor is the smallest §3.1 session floor of the (config, metric) pairs
the view serves (floor 1 keeps the whole lattice through the same
code). A cluster's sessions are a subset of its parent's, so the kept
clusters are closed under coarsening, and every metric's valid
sessions are a subset of all sessions, so no cluster a detector can
find significant is pruned. Masks are built coarse to fine: each
mask's candidates are the leaves under the kept clusters of one
one-attribute-coarser parent, grouped by (parent cluster, code of the
added attribute) with one dense ``bincount``; a mask with a parent that
kept nothing is skipped, and only the kept keys are sorted. The result
is laid out flat as one :class:`~repro.core.aggregation.EpochLattice`:
every kept cluster gets an id in ``(mask, key)`` order and every leaf
one id per mask (-1 where its cluster was pruned), which is what lets
the detectors work on whole-lattice arrays.

With a view, aggregating one (epoch, metric) unit collapses to two
``np.bincount`` calls at the leaf level plus the *residual fold*: a
kept cluster's count is the sum of its kept children on one finer mask
plus the leaves under its pruned children there, one ``bincount`` per
popcount level, fine to coarse. This is the only aggregation path in
the library. On the kept clusters the counts equal a direct per-metric
aggregation (pack the metric's valid rows, ``np.unique`` them, project
every mask), which the test suite keeps as its oracle
(``tests/core/direct_aggregate.py``). The direct path also holds every
cluster below the floor, which no detector at or above the floor reads,
and drops leaf combinations whose sessions are all invalid for the
metric, which the view keeps with zero counts; zero-count clusters can
never be problem clusters, never disqualify an ancestor, and never
receive attribution. So problem/critical outputs are identical to the
oracle's (pinned by ``tests/property/test_parallel_equivalence.py``
and ``tests/core/test_detector_oracle.py``).

Memory footprint: the trace level holds ``n_leaves * 8`` bytes of leaf
keys, ``n_rows * 4`` bytes of row -> leaf inverse and one byte per row
per cached metric mask (:meth:`TraceClusterIndex.memory_bytes`). A view
holds its kept cluster keys (8 bytes each) and one representative leaf
per cluster (4 bytes), the residual fold's index arrays (one entry per
kept child and residual leaf) and an int32 ``(n_masks + 1) x n_leaves``
leaf -> cluster matrix over the epoch's active leaves; each count
vector is one int64 per kept cluster. It is dropped with its epoch.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from repro.core.aggregation import EpochAggregate, EpochLattice, KeyCodec
from repro.core.attributes import popcount
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.sessions import Session, SessionTable, grow_append
from repro.obs import current_metrics, current_tracer


def _merge_sorted_unique(
    old: np.ndarray, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two disjoint sorted unique key arrays.

    Returns ``(merged, old_to_new)`` where ``merged[old_to_new] == old``.
    ``merged`` is exactly what ``np.unique`` over the concatenation
    would produce, so incremental maintenance stays bit-identical to a
    from-scratch build.
    """
    old_to_new = np.arange(old.size, dtype=np.int64) + np.searchsorted(
        fresh, old
    )
    fresh_to_new = np.arange(fresh.size, dtype=np.int64) + np.searchsorted(
        old, fresh
    )
    merged = np.empty(old.size + fresh.size, dtype=old.dtype)
    merged[old_to_new] = old
    merged[fresh_to_new] = fresh
    return merged, old_to_new


class TraceClusterIndex:
    """Leaf universe of one :class:`SessionTable`.

    Build once with :meth:`build`, then call :meth:`epoch_view` for any
    rows subset of the same table.
    The index snapshots the table's vocabularies through its
    :class:`KeyCodec`, so decoded cluster identities are stable across
    epochs.
    """

    __slots__ = (
        "table",
        "codec",
        "leaf_keys",
        "row_to_leaf",
        "_valid_masks",
        "_problem_masks",
        "_metric_objs",
        "_grow",
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
        # Metric objects behind the cached masks: append() needs them to
        # extend the masks chunk-wise. Entries without a tracked object
        # (e.g. masks restored from a snapshot) are dropped on append
        # and lazily recomputed.
        self._metric_objs: dict[str, QualityMetric] = {}
        # Doubling buffers for append-grown arrays (row_to_leaf, masks).
        self._grow: dict[str, np.ndarray] = {}

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
    # Incremental maintenance
    # ------------------------------------------------------------------
    def append(self, chunk: "SessionTable | Iterable[Session]") -> np.ndarray:
        """Fold a chunk of new sessions into the table and the index.

        Extends the table in place (:meth:`SessionTable.extend`), then
        merges the chunk's unseen leaves into the sorted leaf universe
        and extends ``row_to_leaf`` and the warmed metric masks —
        without rebuilding from scratch. The result is bit-identical to
        ``TraceClusterIndex.build`` over the concatenated table (pinned
        by ``tests/property/test_streaming_equivalence.py``).

        Cost: O(chunk rows) when the chunk brings no unseen leaf;
        otherwise one sorted merge of the leaf keys plus a gather that
        renumbers ``row_to_leaf`` (no re-packing of old rows). A full
        key rebuild happens only when a vocabulary crosses a
        power-of-two size boundary and changes the packed-key bit
        layout — O(log V) times over a stream's lifetime. Array storage
        grows by doubling, so repeated epoch-sized appends are
        amortized O(total appended rows).

        Outstanding :class:`EpochClusterView` objects reference the
        pre-append arrays and must not be used after an append; build
        views per epoch, as the online detector and the batch engine
        both do. :meth:`~repro.core.substrate.AnalysisSubstrate.append`
        wraps this call and also drops the substrate's cached epoch
        splits.

        A chunk whose labels would push the packed key past 62 bits
        raises ``ValueError`` before anything changes, so the table and
        the index stay as they were and later chunks still append.

        Returns the appended row indices.
        """
        if not isinstance(chunk, SessionTable):
            chunk = SessionTable.from_sessions(chunk, schema=self.table.schema)
        widths, _ = KeyCodec.layout(self.table.merged_vocab_sizes(chunk))
        rows = self.table.extend(chunk)
        if rows.size:
            current_metrics().inc("index.appends")
            current_metrics().inc("index.appended_rows", int(rows.size))
            self._extend_metric_masks(rows)
        if not np.array_equal(widths, self.codec.widths):
            # A vocabulary crossed a power-of-two boundary (even through
            # an empty chunk's labels), so every packed key changes
            # layout. The (already extended) metric masks are
            # key-independent and carry over unchanged.
            fresh = TraceClusterIndex.build(self.table)
            self.codec = fresh.codec
            self.leaf_keys = fresh.leaf_keys
            self.row_to_leaf = fresh.row_to_leaf
        elif rows.size:
            self._append_keys(rows)
        return rows

    def _extend_metric_masks(self, rows: np.ndarray) -> None:
        """Extend cached metric masks over the appended rows.

        Every registered metric's validity/problem predicate is
        row-elementwise, so evaluating it on the chunk alone equals the
        corresponding slice of a whole-table evaluation. Cached masks
        whose metric object is unknown (restored from a snapshot) are
        dropped and recomputed lazily on next use.
        """
        if not self._valid_masks and not self._problem_masks:
            return
        chunk = self.table.select(rows)
        for name in list(self._valid_masks):
            metric = self._metric_objs.get(name)
            if metric is None:
                del self._valid_masks[name]
                continue
            self._valid_masks[name] = grow_append(
                self._grow,
                ("valid", name),
                self._valid_masks[name],
                metric.valid_mask(chunk),
            )
        for key in list(self._problem_masks):
            name, thresholds = key
            metric = self._metric_objs.get(name)
            if metric is None:
                del self._problem_masks[key]
                continue
            self._problem_masks[key] = grow_append(
                self._grow,
                ("problem",) + key,
                self._problem_masks[key],
                metric.problem_mask(chunk, thresholds),
            )

    def _append_keys(self, rows: np.ndarray) -> None:
        """Merge the appended rows' packed keys into the leaf universe."""
        packed = self.codec.pack(self.table.codes[rows])
        chunk_keys, chunk_inv = np.unique(packed, return_inverse=True)

        n_old = self.leaf_keys.size
        pos = np.searchsorted(self.leaf_keys, chunk_keys)
        known = np.zeros(chunk_keys.size, dtype=bool)
        if n_old:
            known = (pos < n_old) & (
                self.leaf_keys[np.minimum(pos, n_old - 1)] == chunk_keys
            )
        row_to_leaf = self.row_to_leaf
        if not known.all():
            merged, old_to_new = _merge_sorted_unique(
                self.leaf_keys, chunk_keys[~known]
            )
            row_to_leaf = old_to_new[row_to_leaf].astype(np.int32, copy=False)
            pos = np.searchsorted(merged, chunk_keys)
            self.leaf_keys = merged
        self.row_to_leaf = grow_append(
            self._grow, "row_to_leaf", row_to_leaf, pos[chunk_inv]
        )

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
        self._metric_objs[metric.name] = metric
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
        self._metric_objs[metric.name] = metric
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
    def epoch_view(
        self, rows: np.ndarray, epoch: int = 0, floor: int = 1
    ) -> "EpochClusterView":
        """The lattice of the epoch's clusters with at least ``floor``
        sessions, shared by every metric analysed over the same
        ``rows`` whose session floor is ``floor`` or more."""
        return EpochClusterView(self, rows, epoch=epoch, floor=floor)


class EpochClusterView:
    """The iceberg cluster lattice of one epoch's active leaves.

    Holds the epoch's :class:`~repro.core.aggregation.EpochLattice`,
    built for a session ``floor``: only the clusters with at least
    ``floor`` sessions are kept, and each leaf's cluster id per mask is
    -1 where its cluster was pruned. Also holds the level-by-level
    residual fold that sums any per-leaf count vector into the kept
    clusters.

    The view is metric-independent: aggregate each metric over the same
    epoch with :meth:`aggregate`. Every metric's valid sessions are a
    subset of the epoch's sessions, so a view built for the smallest
    floor any (config, metric) pair resolves to serves all of them.
    Every aggregate carries the view's lattice, so the problem/critical
    detectors of every metric and config share its ids and memoised
    keys.
    """

    __slots__ = (
        "index",
        "epoch",
        "rows",
        "row_leaf_local",
        "lattice",
        "_levels",
        "_metric_sessions",
    )

    def __init__(
        self,
        index: TraceClusterIndex,
        rows: np.ndarray,
        epoch: int = 0,
        floor: int = 1,
    ) -> None:
        self.index = index
        self.epoch = epoch
        rows = np.asarray(rows)
        self.rows = rows

        leaf_ids, row_leaf_local, leaf_rows = np.unique(
            index.row_to_leaf[rows], return_inverse=True, return_counts=True
        )
        self.row_leaf_local = row_leaf_local.astype(np.int32, copy=False)
        self.lattice, covered = _build_iceberg(
            index.codec, index.leaf_keys[leaf_ids], leaf_rows, floor
        )
        self._levels = _residual_levels(self.lattice, covered)
        self._metric_sessions: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_leaves(self) -> int:
        return self.lattice.n_leaves

    def keys(self, mask: int) -> np.ndarray:
        """Sorted packed keys of the epoch's kept clusters of ``mask``."""
        return self.lattice.keys[self.lattice.span(mask)]

    def _fold(self, leaf_counts: np.ndarray) -> np.ndarray:
        """Per-cluster counts of a per-leaf count vector.

        Levels run fine to coarse, so a cluster's kept children on its
        fold mask are complete before it sums them with its residual
        leaves. Counts stay int64-exact: bincount's float64 weights are
        exact for values < 2^53.
        """
        n = self.lattice.n_clusters
        counts = np.zeros(n, dtype=np.float64)
        for dst, children, residual in self._levels:
            weights = np.concatenate((counts[children], leaf_counts[residual]))
            counts += np.bincount(dst, weights=weights, minlength=n)
        return counts.astype(np.int64)

    def _metric_session_folds(
        self, metric: QualityMetric
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(leaf_sessions, sessions)`` for one metric.

        Session counts depend only on the metric's *validity* pattern,
        never on thresholds, so one computation per (epoch, metric) is
        shared by every thresholds variant of a config sweep. Cached on
        the view.
        """
        cached = self._metric_sessions.get(metric.name)
        if cached is None:
            valid = self.index.valid_mask(metric)[self.rows]
            leaf_sessions = np.bincount(
                self.row_leaf_local[valid], minlength=self.n_leaves
            ).astype(np.int64, copy=False)
            cached = (leaf_sessions, self._fold(leaf_sessions))
            self._metric_sessions[metric.name] = cached
        return cached

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
        floor at or above the view's reads neither. Two leaf-level bincounts
        plus the residual fold; no per-epoch key packing at all. The
        threshold-independent half (validity and session counts) is
        cached per metric, so re-aggregating the same epoch under new
        thresholds pays only the problem counts.
        """
        leaf_sessions, sessions = self._metric_session_folds(metric)
        problem = self.index.problem_mask(metric, thresholds)[self.rows]

        leaf_problems = np.bincount(
            self.row_leaf_local[problem], minlength=self.n_leaves
        ).astype(np.int64, copy=False)
        return EpochAggregate(
            epoch=self.epoch,
            metric_name=metric.name,
            lattice=self.lattice,
            sessions=sessions,
            problems=self._fold(leaf_problems),
            leaf_sessions=leaf_sessions,
            leaf_problems=leaf_problems,
        )


@functools.lru_cache(maxsize=None)
def _links(n_attrs: int) -> tuple[tuple, tuple]:
    """Per mask (indexed by mask): its one-attribute-coarser parents as
    (parent, added attribute) pairs, and its one-attribute-finer
    children."""
    masks = range(1 << n_attrs)
    parents = tuple(
        tuple((m ^ 1 << i, i) for i in range(n_attrs) if m >> i & 1) for m in masks
    )
    children = tuple(
        tuple(m | 1 << i for i in range(n_attrs) if not m >> i & 1) for m in masks
    )
    return parents, children


def _build_iceberg(
    codec: KeyCodec, leaf_keys: np.ndarray, leaf_rows: np.ndarray, floor: int
) -> tuple[EpochLattice, list[np.ndarray]]:
    """The lattice of the clusters with at least ``floor`` sessions.

    ``leaf_keys`` are the epoch's sorted leaf keys and ``leaf_rows``
    their session counts. Masks are visited in ascending order, so each
    mask's one-attribute-coarser parents are done before it. A mask is
    skipped when a parent kept no cluster (each of its clusters would
    lie under a pruned one). Otherwise its candidates are the leaves
    under the kept clusters of one parent, grouped by (parent cluster,
    code of the added attribute) with one dense ``bincount``; the
    parent is the one that minimises the elements that ``bincount``
    touches (its covered leaves plus kept clusters x the added
    attribute's codes). Only the kept keys are sorted.

    Also returns, per mask, the leaves under its kept clusters (its
    *covered* leaves, ascending), which the residual fold reads.
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

    none = np.empty(0, dtype=np.intp)
    root = n_leaves > 0 and int(leaf_rows.sum()) >= floor
    # Per mask: the kept keys, the covered leaves and each covered
    # leaf's cluster position within the mask. Mask 0 is the root.
    size = [0] * (full + 1)
    size[0] = int(root)
    keys = [np.zeros(size[0], dtype=np.int64)] + [np.empty(0, np.int64)] * full
    covered = [np.arange(n_leaves) if root else none] + [none] * full
    local = [np.zeros(n_leaves if root else 0, dtype=np.intp)] + [none] * full
    leaf_cluster = np.full((full + 1, n_leaves), -1, dtype=np.int32)
    starts = [0, 0]
    reps = []
    parents_of, children_of = _links(n_attrs)
    for m, parents in enumerate(parents_of[1:], start=1):
        starts.append(starts[-1])
        for q, _ in parents_of[m - 1]:
            if children_of[q][-1] == m - 1:
                local[q] = none  # every child of q is built
        if not all(size[p] for p, _ in parents):
            continue
        p, i = min(
            parents, key=lambda pi: covered[pi[0]].size + size[pi[0]] * n_codes[pi[1]]
        )
        cand = covered[p]
        group = local[p] * n_codes[i] + codes[i][cand]
        counts = np.bincount(
            group, weights=weights[cand], minlength=size[p] * n_codes[i]
        )
        kept = np.flatnonzero(counts >= floor)
        if not kept.size:
            continue
        unsorted = keys[p][kept // n_codes[i]] | (kept % n_codes[i]) << offsets[i]
        order = np.argsort(unsorted)
        slot = np.full(counts.size, -1, dtype=np.intp)
        slot[kept[order]] = np.arange(kept.size)
        pos = slot[group]
        inside = pos >= 0
        if not inside.all():
            cand, pos = cand[inside], pos[inside]
        size[m], keys[m], covered[m], local[m] = kept.size, unsorted[order], cand, pos
        starts[-1] += kept.size
        leaf_cluster[m, cand] = pos + starts[m]
        rep = np.empty(kept.size, dtype=np.int32)
        rep[pos] = cand
        reps.append(rep)
    lattice = EpochLattice(
        codec,
        np.concatenate(keys[1:]),
        np.array(starts, dtype=np.int64),
        leaf_cluster,
        np.concatenate(reps) if reps else np.empty(0, dtype=np.int32),
        floor=floor,
    )
    return lattice, covered


def _residual_levels(
    lattice: EpochLattice, covered: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The residual fold, one ``(dst, children, residual)`` per level.

    A kept cluster's count is the sum of its kept children on one
    one-attribute-finer mask ``f`` plus the leaves under its pruned
    children there. A leaf covered on ``f`` is covered on ``m``, so
    those residual leaves number ``covered(m) - covered(f)`` and ``f``
    is chosen to minimise kept children plus residual leaves without a
    pass over the leaves (no finer mask with a kept cluster: every
    covered leaf is residual). Levels are popcounts, finest first; each
    one sums the kept clusters ``children`` and the leaves ``residual``
    into the cluster ids ``dst`` (children first, then leaves).
    """
    leaf_cluster = lattice.leaf_cluster
    rep_leaf = lattice.rep_leaf
    n_attrs = lattice.codec.n_attrs
    children = _links(n_attrs)[1]
    starts = lattice.starts.tolist()
    size = [hi - lo for lo, hi in zip(starts, starts[1:])]
    none = np.empty(0, dtype=np.intp)
    levels = []
    for depth in range(n_attrs, 0, -1):
        child_dst, kids, residual_dst, residual = [], [], [], []
        for m in range(1, len(size)):
            if not size[m] or popcount(m) != depth:
                continue
            leaves = covered[m]
            finer = [f for f in children[m] if size[f]]
            if finer:
                f = min(finer, key=lambda f: size[f] - covered[f].size)
                ids = np.arange(starts[f], starts[f + 1])
                child_dst.append(leaf_cluster[m, rep_leaf[ids]])
                kids.append(ids)
                if covered[f].size == leaves.size:
                    continue
                leaves = leaves[leaf_cluster[f, leaves] < 0]
            residual_dst.append(leaf_cluster[m, leaves])
            residual.append(leaves)
        if child_dst or residual_dst:
            levels.append(
                (
                    np.concatenate(child_dst + residual_dst),
                    np.concatenate(kids + [none]),
                    np.concatenate(residual + [none]),
                )
            )
    return levels
