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
shared by every metric): the cluster lattice of the epoch's *active*
leaves. Masks are visited from fine to coarse; each one projects the
smallest one-attribute-finer mask's keys with one ``np.unique``, which
yields the sorted cluster keys, the finer -> coarser fold index and
(composed with the finer mask's) each leaf's cluster on the mask. The
tables are exactly the clusters a direct per-epoch
:func:`~repro.core.aggregation.aggregate_epoch` would enumerate, and
each ``np.unique`` runs over a cluster table, never over the epoch's
rows. They are then laid out flat as one
:class:`~repro.core.aggregation.EpochLattice`: every cluster gets an
id in ``(mask, key)`` order and every leaf one id per mask, which is
what lets the detectors work on whole-lattice arrays.

With a view, aggregating one (epoch, metric) unit collapses to two
``np.bincount`` calls at the leaf level plus two per mask, folded down
the lattice from the cheapest finer mask. The resulting aggregates may
retain leaf combinations whose sessions are all invalid for the metric
(the direct path drops them); such zero-count clusters can never be
problem clusters, never disqualify an ancestor, and never receive
attribution, so problem/critical outputs are identical to the direct
per-epoch reference (pinned by
``tests/property/test_parallel_equivalence.py``).

Memory footprint: the trace level holds ``n_leaves * 8`` bytes of leaf
keys, ``n_rows * 4`` bytes of row -> leaf inverse and one byte per row
per cached metric mask (:meth:`TraceClusterIndex.memory_bytes`). A view
holds its active cluster keys (8 bytes each) and one representative
leaf per cluster (4 bytes), each mask's fold index over its source's
clusters (4 bytes per entry) and an int32 ``(n_masks + 1) x n_leaves``
leaf -> cluster matrix over the epoch's active leaves, and is dropped
with its epoch.
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


@functools.lru_cache(maxsize=None)
def _fold_order(n_attrs: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every mask but the full one, fine to coarse (each after all its
    one-attribute-finer masks), with those finer masks."""
    full = (1 << n_attrs) - 1
    return tuple(
        (m, tuple(m | 1 << i for i in range(n_attrs) if not m >> i & 1))
        for m in sorted(range(1, full), key=popcount, reverse=True)
    )


class TraceClusterIndex:
    """Leaf universe of one :class:`SessionTable`.

    Build once with :meth:`build`, then call :meth:`epoch_view` (or
    :meth:`aggregate` directly) for any rows subset of the same table.
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
    def build(
        cls, table: SessionTable, codec: KeyCodec | None = None
    ) -> "TraceClusterIndex":
        """Pack all sessions and reduce them to the sorted leaf universe."""
        with current_tracer().span("index.build", sessions=len(table)) as span:
            codec = codec or KeyCodec.from_table(table)
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
        views per epoch (as :class:`~repro.core.substrate.StreamingSubstrate`
        and the batch engine both do).

        Returns the appended row indices.
        """
        rows = self.table.extend(chunk)
        if rows.size == 0:
            return rows
        current_metrics().inc("index.appends")
        current_metrics().inc("index.appended_rows", int(rows.size))
        self._extend_metric_masks(rows)
        if not np.array_equal(self.table.bit_widths(), self.codec.widths):
            # A vocabulary crossed a power-of-two boundary, so every
            # packed key changes layout. The (already extended) metric
            # masks are key-independent and carry over unchanged.
            fresh = TraceClusterIndex.build(self.table)
            self.codec = fresh.codec
            self.leaf_keys = fresh.leaf_keys
            self.row_to_leaf = fresh.row_to_leaf
        else:
            self.codec.note_vocab_growth()
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
    def epoch_view(self, rows: np.ndarray, epoch: int = 0) -> "EpochClusterView":
        """The cluster lattice of the epoch's active leaves, shared by
        every metric analysed over the same ``rows``."""
        return EpochClusterView(self, rows, epoch=epoch)


class EpochClusterView:
    """The cluster lattice of one epoch's active leaves.

    Holds the epoch's :class:`~repro.core.aggregation.EpochLattice`
    (every active cluster of every non-empty mask, flat, with each
    leaf's cluster id per mask) and the fold plan that sums leaf counts
    down it: for every mask but the leaves, the finer mask its counts
    fold from (``fold_source``, in fold order) and that mask's cluster
    -> cluster fold index.

    The view is metric-independent: aggregate each metric over the same
    epoch with :meth:`aggregate`. Every aggregate carries the view's
    lattice, so the problem/critical detectors of every metric and
    config share its ids and memoised keys.
    """

    __slots__ = (
        "index",
        "epoch",
        "rows",
        "row_leaf_local",
        "lattice",
        "fold_source",
        "_fold_plan",
        "_metric_sessions",
    )

    def __init__(
        self, index: TraceClusterIndex, rows: np.ndarray, epoch: int = 0
    ) -> None:
        self.index = index
        self.epoch = epoch
        rows = np.asarray(rows)
        self.rows = rows

        leaf_ids, row_leaf_local = np.unique(
            index.row_to_leaf[rows], return_inverse=True
        )
        self.row_leaf_local = row_leaf_local.astype(np.int32, copy=False)

        codec = index.codec
        full = codec.full_mask
        field_masks = codec.field_masks()
        local = np.arange(leaf_ids.size, dtype=np.int32)
        keys: dict[int, np.ndarray] = {full: index.leaf_keys[leaf_ids]}
        reps: dict[int, np.ndarray] = {full: local}
        # Rows hold mask-local cluster positions until flatten() shifts
        # them to cluster ids.
        leaf_cluster = np.empty((full + 1, leaf_ids.size), dtype=np.int32)
        leaf_cluster[full] = local
        fold_source: dict[int, int] = {}
        fold_index: dict[int, np.ndarray] = {}
        # Each mask projects the finer mask with the fewest active
        # clusters; any finer source gives the same keys and the same
        # int64-exact fold sums.
        for m, finer in _fold_order(codec.n_attrs):
            src = min(finer, key=lambda f: keys[f].size)
            keys[m], inverse = np.unique(
                keys[src] & field_masks[m], return_inverse=True
            )
            # A leaf of any source cluster represents its projection
            # (scattered through the intp inverse: no index conversion).
            reps[m] = np.empty(keys[m].size, dtype=np.int32)
            reps[m][inverse] = reps[src]
            inverse = inverse.astype(np.int32, copy=False)
            np.take(inverse, leaf_cluster[src], out=leaf_cluster[m])
            fold_source[m] = src
            fold_index[m] = inverse
        masks = range(1, full + 1)
        self.lattice = EpochLattice.flatten(
            codec, [keys[m] for m in masks], [reps[m] for m in masks], leaf_cluster
        )
        self.fold_source = fold_source
        bounds = self.lattice.starts.tolist()
        self._fold_plan = [
            (bounds[m], bounds[m + 1], bounds[src], bounds[src + 1], fold_index[m])
            for m, src in fold_source.items()
        ]
        self._metric_sessions: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_leaves(self) -> int:
        return self.lattice.n_leaves

    def keys(self, mask: int) -> np.ndarray:
        """Sorted packed keys of the epoch's active clusters of ``mask``."""
        return self.lattice.keys[self.lattice.span(mask)]

    def _fold(self, leaf_counts: np.ndarray) -> np.ndarray:
        """Per-cluster counts, folded down the lattice from leaves.

        Counts stay int64-exact: bincount's float64 weights are exact
        for values < 2^53.
        """
        counts = np.empty(self.lattice.n_clusters, dtype=np.int64)
        counts[self.lattice.span(self.index.codec.full_mask)] = leaf_counts
        for lo, hi, src_lo, src_hi, fold_index in self._fold_plan:
            counts[lo:hi] = np.bincount(
                fold_index, weights=counts[src_lo:src_hi], minlength=hi - lo
            )
        return counts

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

        Output-equivalent to :func:`repro.core.aggregation.aggregate_epoch`
        over the same rows, except leaf combinations with no *valid*
        session for the metric are retained with zero counts (the
        direct path drops them) — which downstream detection provably
        ignores. Two leaf-level bincounts plus two per mask, folded
        down the lattice; no per-epoch key packing at all. The
        threshold-independent half (validity and session counts) is
        cached per metric, so re-aggregating the same epoch under new
        thresholds pays only the problem-count bincounts.
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
            total_sessions=int(leaf_sessions.sum()),
            total_problems=int(leaf_problems.sum()),
        )
