"""Trace-global cluster index: build the lattice once, reduce epochs to bincounts.

The per-epoch pipeline used to rebuild the same structure for every
(epoch, metric) unit: pack attribute codes into int64 leaf keys, reduce
them with ``np.unique``, project every non-empty attribute mask with
another ``np.unique`` over int64 keys, and ``searchsorted`` leaf keys
into each mask's cluster table. Almost none of that depends on the
metric, and the expensive parts don't depend on the epoch either — they
are properties of the *trace's* leaf universe. The index splits the
work into two amortised levels:

**Trace level** (:class:`TraceClusterIndex`, built once per trace):

* all sessions are packed once and reduced to the trace-global leaf
  universe (``leaf_keys`` + a row -> leaf inverse),
* every non-empty attribute mask gets its projected cluster key array
  and a leaf -> cluster inverse,
* cluster-to-cluster projection indices between lattice levels (the
  ``searchsorted`` folds of aggregation and the critical-cluster DP)
  are computed once and cached across all epochs and metrics,
* per-metric validity/problem masks over the whole table are computed
  once and sliced per epoch.

**Epoch level** (:class:`EpochClusterView`, built once per epoch and
shared by every metric): the epoch's *active* subset of each mask's
global cluster table, found with one ``np.unique`` over small int32
cluster ids (never over int64 keys), plus localized leaf projections
and lattice fold indices obtained by gathers through the global cache.
The compact tables are exactly the clusters a direct per-epoch
:func:`~repro.core.aggregation.aggregate_epoch` would enumerate, so
downstream phases touch the same amount of data — minus every per-unit
``np.unique``/``searchsorted``.

With a view, aggregating one (epoch, metric) unit collapses to two
``np.bincount`` calls at the leaf level plus two per mask, folded down
the lattice from the cheapest finer mask. The resulting aggregates may
retain leaf combinations whose sessions are all invalid for the metric
(the direct path drops them); such zero-count clusters can never be
problem clusters, never disqualify an ancestor, and never receive
attribution, so problem/critical outputs are identical to the direct
per-epoch reference (pinned by
``tests/property/test_parallel_equivalence.py``).

Memory footprint: one int32 per (mask, leaf) pair for the global
inverse tables — ``(2^n - 1) * n_leaves * 4`` bytes dominate (about
20 MB for 40k distinct leaves under the paper's 7 attributes) — plus
the packed key arrays and the cached projection indices.
:meth:`TraceClusterIndex.memory_bytes` reports the exact total.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.aggregation import EpochAggregate, KeyCodec, MaskAggregate
from repro.core.attributes import popcount
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.sessions import Session, SessionTable, grow_append
from repro.obs import current_metrics, current_tracer


def _fold_sources(
    mask_keys: dict[int, np.ndarray], n_attrs: int, full: int
) -> dict[int, int]:
    """Each non-leaf mask folds its counts down from one finer mask
    (one extra attribute); pick the finer mask with the fewest clusters
    so every fold touches as little data as possible."""
    fold_source: dict[int, int] = {}
    for m in range(1, full):
        best = -1
        for i in range(n_attrs):
            finer = m | (1 << i)
            if finer == m:
                continue
            if best < 0 or mask_keys[finer].size < mask_keys[best].size:
                best = finer
        fold_source[m] = best
    return fold_source


def _merge_sorted_unique(
    old: np.ndarray, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge two disjoint sorted unique key arrays.

    Returns ``(merged, old_to_new, fresh_to_new)`` where the position
    maps satisfy ``merged[old_to_new] == old`` and
    ``merged[fresh_to_new] == fresh``. ``merged`` is exactly what
    ``np.unique`` over the concatenation would produce, so incremental
    maintenance stays bit-identical to a from-scratch build.
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
    return merged, old_to_new, fresh_to_new


class TraceClusterIndex:
    """Precomputed cluster lattice for one :class:`SessionTable`.

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
        "mask_keys",
        "leaf_to_cluster",
        "fold_source",
        "fold_order",
        "_project_index",
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
        mask_keys: dict[int, np.ndarray],
        leaf_to_cluster: dict[int, np.ndarray],
        fold_source: dict[int, int],
        fold_order: list[int],
    ) -> None:
        self.table = table
        self.codec = codec
        self.leaf_keys = leaf_keys
        self.row_to_leaf = row_to_leaf
        self.mask_keys = mask_keys
        self.leaf_to_cluster = leaf_to_cluster
        self.fold_source = fold_source
        self.fold_order = fold_order
        self._project_index: dict[tuple[int, int], np.ndarray] = {}
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
        """Pack all sessions, compute the leaf universe and every
        per-mask projection, and prewarm the lattice fold indices."""
        with current_tracer().span("index.build", sessions=len(table)) as span:
            index = cls._build(table, codec)
            span.set(leaves=int(index.leaf_keys.size))
        current_metrics().inc("index.builds")
        return index

    @classmethod
    def _build(
        cls, table: SessionTable, codec: KeyCodec | None = None
    ) -> "TraceClusterIndex":
        codec = codec or KeyCodec.from_table(table)
        field_masks = codec.field_masks()
        full = codec.full_mask

        packed = codec.pack(table.codes)
        leaf_keys, row_to_leaf = np.unique(packed, return_inverse=True)
        row_to_leaf = row_to_leaf.astype(np.int32, copy=False)

        mask_keys: dict[int, np.ndarray] = {full: leaf_keys}
        leaf_to_cluster: dict[int, np.ndarray] = {
            full: np.arange(leaf_keys.size, dtype=np.int32)
        }
        for m in range(1, full):
            keys, inverse = np.unique(
                leaf_keys & field_masks[m], return_inverse=True
            )
            mask_keys[m] = keys
            leaf_to_cluster[m] = inverse.astype(np.int32, copy=False)

        n_attrs = codec.n_attrs
        fold_source = _fold_sources(mask_keys, n_attrs, full)
        fold_order = sorted(range(1, full), key=popcount, reverse=True)

        index = cls(
            table=table,
            codec=codec,
            leaf_keys=leaf_keys,
            row_to_leaf=row_to_leaf,
            mask_keys=mask_keys,
            leaf_to_cluster=leaf_to_cluster,
            fold_source=fold_source,
            fold_order=fold_order,
        )
        # Prewarm every one-attribute-apart projection: these are the
        # aggregation fold indices and the child->parent indices of the
        # critical-cluster descendants DP.
        for m in range(1, full):
            for i in range(n_attrs):
                finer = m | (1 << i)
                if finer != m:
                    index.project_index(finer, m)
        return index

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def append(self, chunk: "SessionTable | Iterable[Session]") -> np.ndarray:
        """Fold a chunk of new sessions into the table and the index.

        Extends the table in place (:meth:`SessionTable.extend`), then
        updates the leaf universe, every per-mask cluster table and
        leaf -> cluster inverse, the cached lattice projection indices,
        the fold sources, and the warmed metric masks — without
        rebuilding from scratch. The result is bit-identical to
        ``TraceClusterIndex.build`` over the concatenated table (pinned
        by ``tests/property/test_streaming_equivalence.py``).

        Cost: O(chunk rows) in the steady state where the chunk
        introduces no unseen attribute combination; O(cluster tables)
        when fresh leaves must be merged in (sorted-merge position
        maps, no re-packing of old rows); and a full key rebuild only
        when a vocabulary crosses a power-of-two size boundary and
        changes the packed-key bit layout — which happens O(log V)
        times over a stream's lifetime. Array storage grows by
        doubling, so repeated epoch-sized appends are amortized O(total
        appended rows).

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
            self._rebuild_keys()
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

    def _rebuild_keys(self) -> None:
        """Rebuild the key-side structure after a bit-width change.

        A vocabulary crossed a power-of-two boundary, so every packed
        key changes layout: leaf keys, cluster tables and projections
        must be recomputed. The (already extended) metric-mask caches
        are key-independent and carry over unchanged.
        """
        fresh = TraceClusterIndex.build(self.table)
        self.codec = fresh.codec
        self.leaf_keys = fresh.leaf_keys
        self.row_to_leaf = fresh.row_to_leaf
        self.mask_keys = fresh.mask_keys
        self.leaf_to_cluster = fresh.leaf_to_cluster
        self.fold_source = fresh.fold_source
        self.fold_order = fresh.fold_order
        self._project_index = fresh._project_index

    def _append_keys(self, rows: np.ndarray) -> None:
        """Merge the appended rows' packed keys into the lattice."""
        codec = self.codec
        field_masks = codec.field_masks()
        full = codec.full_mask
        packed = codec.pack(self.table.codes[rows])
        chunk_keys, chunk_inv = np.unique(packed, return_inverse=True)

        n_old = self.leaf_keys.size
        pos = np.searchsorted(self.leaf_keys, chunk_keys)
        if n_old:
            known = (pos < n_old) & (
                self.leaf_keys[np.minimum(pos, n_old - 1)] == chunk_keys
            )
        else:
            known = np.zeros(chunk_keys.size, dtype=bool)
        fresh = chunk_keys[~known]

        if fresh.size == 0:
            # Steady state: every leaf combination has been seen before.
            # Nothing structural changes — one gather appends the rows.
            self.row_to_leaf = grow_append(
                self._grow, "row_to_leaf", self.row_to_leaf, pos[chunk_inv]
            )
            return

        merged, old_to_new, fresh_to_new = _merge_sorted_unique(
            self.leaf_keys, fresh
        )

        remapped = old_to_new[self.row_to_leaf].astype(np.int32, copy=False)
        chunk_leaf = np.searchsorted(merged, chunk_keys)[chunk_inv]
        self.row_to_leaf = grow_append(
            self._grow, "row_to_leaf", remapped, chunk_leaf
        )

        # Per-mask cluster tables: merge the fresh leaves' projections,
        # remap old cluster ids, and extend the leaf -> cluster inverses
        # over the merged leaf universe.
        cluster_old_to_new: dict[int, np.ndarray | None] = {full: old_to_new}
        cluster_fresh: dict[int, tuple[np.ndarray, np.ndarray]] = {
            full: (fresh, fresh_to_new)
        }
        for m in range(1, full):
            cand = np.unique(fresh & field_masks[m])
            keys_m = self.mask_keys[m]
            pos_m = np.searchsorted(keys_m, cand)
            if keys_m.size:
                known_m = (pos_m < keys_m.size) & (
                    keys_m[np.minimum(pos_m, keys_m.size - 1)] == cand
                )
            else:
                known_m = np.zeros(cand.size, dtype=bool)
            fresh_m = cand[~known_m]
            old_l2c = self.leaf_to_cluster[m]
            if fresh_m.size:
                merged_m, old2new_m, fresh2new_m = _merge_sorted_unique(
                    keys_m, fresh_m
                )
                self.mask_keys[m] = merged_m
                old_l2c = old2new_m[old_l2c]
                cluster_old_to_new[m] = old2new_m
            else:
                merged_m = keys_m
                cluster_old_to_new[m] = None
                fresh2new_m = np.empty(0, dtype=np.int64)
            cluster_fresh[m] = (fresh_m, fresh2new_m)
            l2c = np.empty(merged.size, dtype=np.int32)
            l2c[old_to_new] = old_l2c
            l2c[fresh_to_new] = np.searchsorted(merged_m, fresh & field_masks[m])
            self.leaf_to_cluster[m] = l2c

        # Full mask: every leaf is its own cluster (shared array kept).
        self.leaf_keys = merged
        self.mask_keys[full] = merged
        self.leaf_to_cluster[full] = np.arange(merged.size, dtype=np.int32)

        # Patch the cached projection indices instead of recomputing:
        # old fine clusters keep their (possibly renumbered) targets;
        # only the fresh fine clusters pay a searchsorted.
        for (fine, coarse), idx in self._project_index.items():
            fine_o2n = cluster_old_to_new[fine]
            coarse_o2n = cluster_old_to_new[coarse]
            fresh_f, fresh_f_pos = cluster_fresh[fine]
            if fine_o2n is None and coarse_o2n is None:
                continue
            out = np.empty(self.mask_keys[fine].size, dtype=np.int32)
            old_vals = coarse_o2n[idx] if coarse_o2n is not None else idx
            if fine_o2n is None:
                out[:] = old_vals
            else:
                out[fine_o2n] = old_vals
                out[fresh_f_pos] = np.searchsorted(
                    self.mask_keys[coarse], fresh_f & field_masks[coarse]
                )
            self._project_index[(fine, coarse)] = out

        self.fold_source = _fold_sources(
            self.mask_keys, codec.n_attrs, full
        )

    # ------------------------------------------------------------------
    # Precomputed structure
    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return int(self.leaf_keys.size)

    @property
    def n_clusters_total(self) -> int:
        """Distinct clusters across all non-empty masks."""
        return int(sum(keys.size for keys in self.mask_keys.values()))

    def project_index(self, fine: int, coarse: int) -> np.ndarray:
        """Positions of mask ``fine``'s clusters projected onto mask
        ``coarse`` (a strict submask), within ``coarse``'s key array.

        Computed with one ``searchsorted`` on first use and cached —
        every epoch and metric afterwards reuses the same array (the
        projection depends only on the trace's leaf universe).
        """
        key = (fine, coarse)
        idx = self._project_index.get(key)
        if idx is None:
            if coarse & fine != coarse or coarse == fine:
                raise ValueError(
                    f"mask {coarse:#x} is not a strict submask of {fine:#x}"
                )
            proj = self.mask_keys[fine] & self.codec.field_masks()[coarse]
            idx = np.searchsorted(self.mask_keys[coarse], proj).astype(
                np.int32, copy=False
            )
            self._project_index[key] = idx
        return idx

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
        """Bytes held by the index's numpy arrays (incl. caches)."""
        arrays = [self.leaf_keys, self.row_to_leaf]
        arrays += list(self.mask_keys.values())
        arrays += list(self.leaf_to_cluster.values())
        arrays += list(self._project_index.values())
        arrays += list(self._valid_masks.values())
        arrays += list(self._problem_masks.values())
        return int(sum(a.nbytes for a in arrays))

    # ------------------------------------------------------------------
    # Per-epoch reduction
    # ------------------------------------------------------------------
    def epoch_view(self, rows: np.ndarray, epoch: int = 0) -> "EpochClusterView":
        """Compact view of the epoch's active slice of the lattice,
        shared by every metric analysed over the same ``rows``."""
        return EpochClusterView(self, rows, epoch=epoch)

    def aggregate(
        self,
        rows: np.ndarray,
        metric: QualityMetric,
        epoch: int = 0,
        thresholds: MetricThresholds | None = None,
        problem_flags: np.ndarray | None = None,
    ) -> EpochAggregate:
        """One-shot aggregation of ``rows`` for one metric.

        Convenience for single-metric callers; multi-metric callers
        should build one :meth:`epoch_view` and aggregate each metric
        through it.
        """
        return self.epoch_view(rows, epoch=epoch).aggregate(
            metric, thresholds=thresholds, problem_flags=problem_flags
        )


class EpochClusterView:
    """One epoch's active slice of a :class:`TraceClusterIndex`.

    Holds, for every non-empty attribute mask, the sorted global ids of
    the clusters that actually occur among the epoch's rows, the
    compacted (epoch-local) leaf -> cluster projections, and lazily
    localized cluster -> cluster fold indices. All of it is derived
    from the global index by ``np.unique`` over small int32 id arrays
    and gathers — no int64 key packing, no ``searchsorted`` over keys.

    The view is metric-independent: aggregate each metric over the same
    epoch with :meth:`aggregate`, and the problem/critical detectors
    reuse ``leaf_to_cluster``/:meth:`project_index` via the aggregate's
    ``index`` attribute.
    """

    __slots__ = (
        "index",
        "epoch",
        "rows",
        "row_leaf_local",
        "active_ids",
        "leaf_to_cluster",
        "_keys",
        "_project_local",
        "_metric_sessions",
        "_significant",
    )

    def __init__(
        self, index: TraceClusterIndex, rows: np.ndarray, epoch: int = 0
    ) -> None:
        self.index = index
        self.epoch = epoch
        rows = np.asarray(rows)
        self.rows = rows

        inv = index.row_to_leaf[rows]
        leaf_ids, row_leaf_local = np.unique(inv, return_inverse=True)
        self.row_leaf_local = row_leaf_local.astype(np.int32, copy=False)

        full = index.codec.full_mask
        active_ids: dict[int, np.ndarray] = {full: leaf_ids}
        leaf_to_cluster: dict[int, np.ndarray] = {
            full: np.arange(leaf_ids.size, dtype=np.int32)
        }
        for m in range(1, full):
            ids, local = np.unique(
                index.leaf_to_cluster[m][leaf_ids], return_inverse=True
            )
            active_ids[m] = ids
            leaf_to_cluster[m] = local.astype(np.int32, copy=False)
        self.active_ids = active_ids
        self.leaf_to_cluster = leaf_to_cluster
        self._keys: dict[int, np.ndarray] = {}
        self._project_local: dict[tuple[int, int], np.ndarray] = {}
        self._metric_sessions: dict[
            str, tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]
        ] = {}
        self._significant: dict[tuple[str, int], dict[int, np.ndarray]] = {}

    @property
    def n_leaves(self) -> int:
        return int(self.active_ids[self.index.codec.full_mask].size)

    def keys(self, mask: int) -> np.ndarray:
        """Sorted packed keys of the epoch's active clusters of ``mask``."""
        out = self._keys.get(mask)
        if out is None:
            out = self.index.mask_keys[mask][self.active_ids[mask]]
            self._keys[mask] = out
        return out

    def project_index(self, fine: int, coarse: int) -> np.ndarray:
        """Epoch-local analog of :meth:`TraceClusterIndex.project_index`.

        Localized once per (fine, coarse) pair per epoch — every metric
        of the epoch shares it — by gathering the cached global
        projection at the active fine clusters and re-ranking within
        the active coarse clusters. Every projection of an active fine
        cluster is itself active (it contains the same active leaf), so
        the ``searchsorted`` below always hits exactly.
        """
        key = (fine, coarse)
        idx = self._project_local.get(key)
        if idx is None:
            global_proj = self.index.project_index(fine, coarse)
            idx = np.searchsorted(
                self.active_ids[coarse], global_proj[self.active_ids[fine]]
            ).astype(np.int32, copy=False)
            self._project_local[key] = idx
        return idx

    def _metric_session_folds(
        self, metric: QualityMetric
    ) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
        """``(valid_rows, leaf_sessions, sessions_per_mask)`` for one metric.

        Session counts depend only on the metric's *validity* pattern,
        never on thresholds, so one computation per (epoch, metric) is
        shared by every thresholds variant of a config sweep (and by
        ``problem_flags`` overrides). Cached on the view.
        """
        cached = self._metric_sessions.get(metric.name)
        if cached is None:
            index = self.index
            valid = index.valid_mask(metric)[self.rows]
            leaf_sessions = np.bincount(
                self.row_leaf_local[valid], minlength=self.n_leaves
            ).astype(np.int64, copy=False)
            full = index.codec.full_mask
            sessions: dict[int, np.ndarray] = {full: leaf_sessions}
            for m in index.fold_order:
                src = index.fold_source[m]
                idx = self.project_index(src, m)
                n = int(self.active_ids[m].size)
                # Counts stay int64-exact: bincount's float64 weights
                # are exact for values < 2^53.
                sessions[m] = np.bincount(
                    idx, weights=sessions[src], minlength=n
                ).astype(np.int64)
            cached = (valid, leaf_sessions, sessions)
            self._metric_sessions[metric.name] = cached
        return cached

    def significant_clusters(
        self, metric_name: str, min_sessions: int
    ) -> dict[int, np.ndarray] | None:
        """Per mask: indices of active clusters at or above the session floor.

        Session counts are threshold-independent, so this subset — the
        only clusters the problem predicate can ever flag and the only
        seeds the critical-cluster descendants test needs — is computed
        once per (epoch, metric, floor) and shared by every thresholds
        variant of a config sweep. Returns ``None`` when the metric's
        session folds have not been computed yet (callers then fall
        back to scanning the aggregate's own arrays).
        """
        key = (metric_name, int(min_sessions))
        cached = self._significant.get(key)
        if cached is None:
            folds = self._metric_sessions.get(metric_name)
            if folds is None:
                return None
            _, _, sessions = folds
            cached = {
                m: np.nonzero(counts >= min_sessions)[0]
                for m, counts in sessions.items()
            }
            self._significant[key] = cached
        return cached

    def aggregate(
        self,
        metric: QualityMetric,
        thresholds: MetricThresholds | None = None,
        problem_flags: np.ndarray | None = None,
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
        index = self.index
        valid, leaf_sessions, sessions = self._metric_session_folds(metric)
        if problem_flags is None:
            problem = index.problem_mask(metric, thresholds)[self.rows]
        else:
            problem_flags = np.asarray(problem_flags, dtype=bool)
            if problem_flags.shape != (self.rows.size,):
                raise ValueError(
                    f"problem_flags shape {problem_flags.shape} != rows "
                    f"{(self.rows.size,)}"
                )
            problem = problem_flags & valid

        leaf_problems = np.bincount(
            self.row_leaf_local[problem], minlength=self.n_leaves
        ).astype(np.int64, copy=False)

        full = index.codec.full_mask
        problems: dict[int, np.ndarray] = {full: leaf_problems}
        for m in index.fold_order:
            src = index.fold_source[m]
            idx = self.project_index(src, m)
            n = int(self.active_ids[m].size)
            problems[m] = np.bincount(
                idx, weights=problems[src], minlength=n
            ).astype(np.int64)

        per_mask = {
            m: MaskAggregate(
                mask=m,
                keys=self.keys(m),
                sessions=sessions[m],
                problems=problems[m],
            )
            for m in range(1, full + 1)
        }
        return EpochAggregate(
            epoch=self.epoch,
            metric_name=metric.name,
            codec=index.codec,
            per_mask=per_mask,
            total_sessions=int(leaf_sessions.sum()),
            total_problems=int(leaf_problems.sum()),
            index=self,
        )
