"""Vectorised per-epoch aggregation of session/problem counts.

For one epoch and one quality metric, every cluster (attribute-subset
mask + concrete values) needs a session count and a problem-session
count. Doing this per session in Python would be hopeless at trace
scale; instead:

1. Pack each session's attribute codes into one ``int64``
   (:class:`KeyCodec`).
2. Reduce sessions to distinct *leaf* combinations via ``np.unique``
   (typically thousands of leaves for tens of thousands of sessions).
3. Count every leaf once and sum the leaf counts into clusters.

The clusters of all masks are laid out flat in one
:class:`EpochLattice`, and the result, :class:`EpochAggregate`, holds
one session and one problem count per cluster id plus the per-leaf
counts — the arrays the problem- and critical-cluster detectors consume
whole. A lattice may be an *iceberg*: built for a session floor, it
holds only the clusters with at least that many sessions, and it
refuses questions asked below that floor. Lattices and aggregates are
built by :class:`~repro.core.index.EpochClusterView`, the one
aggregation path, a batch of epochs at a time; floor 1 gives the whole
lattice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.attributes import AttributeSchema, iter_submasks
from repro.core.clusters import ClusterKey
from repro.core.sessions import SessionTable
from repro.obs import current_metrics


@dataclass(frozen=True)
class ClusterStats:
    """Session and problem-session counts for one cluster."""

    sessions: int
    problems: int

    def __post_init__(self) -> None:
        if self.sessions < 0 or self.problems < 0:
            raise ValueError("counts must be non-negative")
        if self.problems > self.sessions:
            raise ValueError(
                f"problems ({self.problems}) exceed sessions ({self.sessions})"
            )

    @property
    def ratio(self) -> float:
        """Problem ratio — # problem sessions / # sessions (0 if empty)."""
        if self.sessions == 0:
            return 0.0
        return self.problems / self.sessions


class KeyCodec:
    """Packs attribute-code rows into int64 keys and decodes them back.

    The one home of the packed-key layout: attribute ``i``'s code sits
    in a field of ``widths[i]`` bits at bit ``offsets[i]``, each field
    just wide enough for its vocabulary, fields in schema order. The
    fields must fit in 62 bits; :meth:`layout` raises ``ValueError``
    otherwise. Masking a subset of attributes is then a bitwise AND
    with a field mask (:meth:`field_masks`), which is what makes
    per-mask aggregation a vectorised operation.

    The codec snapshots a table's vocabularies, so decoded
    :class:`ClusterKey` identities are stable across epochs of the same
    trace (vocabularies are global to the table). It pickles as its
    schema and vocabularies, the label tables packed results travel
    with.
    """

    __slots__ = ("schema", "vocabs", "widths", "offsets", "_field_masks", "_fields")

    def __init__(
        self, schema: AttributeSchema, vocabs: Sequence[Sequence[str]]
    ) -> None:
        self.schema = schema
        self.vocabs = vocabs
        self.widths, self.offsets = self.layout([len(v) for v in vocabs])
        self._field_masks: np.ndarray | None = None
        self._fields = [
            (i, name, int(offset), (1 << int(width)) - 1, vocab)
            for i, (name, offset, width, vocab) in enumerate(
                zip(schema.names, self.offsets, self.widths, vocabs)
            )
        ]

    def __reduce__(self):
        return (KeyCodec, (self.schema, self.vocabs))

    def snapshot(self) -> "KeyCodec":
        """This codec over copies of its vocabularies. A table's
        vocabularies grow in place on append, and results must keep the
        label tables their keys were packed against."""
        return KeyCodec(self.schema, [list(vocab) for vocab in self.vocabs])

    @classmethod
    def from_table(cls, table: SessionTable) -> "KeyCodec":
        return cls(table.schema, table.vocabs)

    @staticmethod
    def layout(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(widths, offsets)`` of the fields for vocabularies of
        ``sizes`` labels; ``ValueError`` past 62 bits."""
        widths = np.array(
            [max(max(size - 1, 0).bit_length(), 1) for size in sizes],
            dtype=np.int64,
        )
        if widths.sum() > 62:
            raise ValueError(
                f"attribute vocabularies need {widths.sum()} bits; packing "
                "supports at most 62"
            )
        offsets = np.zeros_like(widths)
        offsets[1:] = np.cumsum(widths)[:-1]
        return widths, offsets

    @property
    def n_attrs(self) -> int:
        return len(self.schema)

    @property
    def full_mask(self) -> int:
        return self.schema.full_mask

    def pack(self, codes: np.ndarray) -> np.ndarray:
        """Pack an (n, n_attrs) code matrix into (n,) int64 keys."""
        packed = np.zeros(codes.shape[0], dtype=np.int64)
        for i in range(self.n_attrs):
            packed |= codes[:, i].astype(np.int64) << int(self.offsets[i])
        return packed

    def field_masks(self) -> np.ndarray:
        """For every attribute-subset mask, the packed-key AND mask.

        Entry ``m`` zeroes the fields of attributes *not* in subset
        ``m``, so ``packed & field_masks()[m]`` is the packed key of the
        projection onto ``m``.
        """
        if self._field_masks is None:
            per_attr = [
                ((1 << int(self.widths[i])) - 1) << int(self.offsets[i])
                for i in range(self.n_attrs)
            ]
            n_masks = 1 << self.n_attrs
            out = np.zeros(n_masks, dtype=np.int64)
            for m in range(1, n_masks):
                acc = 0
                for i in range(self.n_attrs):
                    if m & (1 << i):
                        acc |= per_attr[i]
                out[m] = acc
            self._field_masks = out
        return self._field_masks

    def decode(self, mask: int, packed: int) -> ClusterKey:
        """Decode a ``(mask, packed)`` pair to a :class:`ClusterKey`."""
        (key,) = self.decode_many([mask], [int(packed)])
        return key

    def decode_many(
        self, masks: Sequence[int], keys: Sequence[int]
    ) -> list[ClusterKey]:
        """Decode ``(mask, packed)`` pairs to :class:`ClusterKey`\\ s.

        The one place packed identities become labels: every decode
        goes through here and is counted as ``results.keys_decoded``.
        """
        current_metrics().inc("results.keys_decoded", len(masks))
        fields = self._fields
        return [
            ClusterKey(
                tuple(
                    (name, vocab[(packed >> offset) & width])
                    for i, name, offset, width, vocab in fields
                    if mask >> i & 1
                )
            )
            for mask, packed in zip(masks, keys)
        ]


class EpochLattice:
    """The clusters of one epoch, flat, in ``(mask, key)`` order.

    ``keys`` holds each cluster's packed key, grouped by mask in
    ascending mask order and sorted within each mask; a cluster's
    position in it is its *cluster id*. Mask ``m`` owns ids
    ``starts[m]:starts[m + 1]``. ``leaf_cluster[m, l]`` is the id of
    leaf ``l``'s cluster on mask ``m``, and ``rep_leaf[c]`` is one leaf
    of cluster ``c``, so the ancestor of ``c`` on a submask ``a`` is
    ``leaf_cluster[a, rep_leaf[c]]``.

    ``floor`` is the session floor the lattice was built for: it holds
    exactly the clusters with at least ``floor`` sessions (all sessions,
    whatever their validity for a metric). Coarsening a cluster only
    adds sessions, so the kept clusters are closed under coarsening and
    every ancestor of a kept cluster is kept. A leaf whose cluster on
    ``m`` was pruned has ``leaf_cluster[m, l] == -1`` (row 0, the root,
    is all -1), so a per-cluster flag array read through
    ``leaf_cluster`` needs one trailing ``False`` slot
    (:meth:`flags`): numpy reads index -1 as the last element.

    Built from the epoch's leaves by
    :class:`~repro.core.index.EpochClusterView` (coarse to fine, shared
    by every metric of the epoch); a lattice built in a batch of epochs
    holds slices of the batch's arrays, ``leaf_cluster`` a column slice
    of its matrix. It also memoises what every metric
    and config of the epoch asks again: decoded keys (:meth:`keys_of`)
    and the table of every (cluster, ancestor) pair (:meth:`pairs`).
    """

    __slots__ = (
        "codec",
        "keys",
        "starts",
        "leaf_cluster",
        "rep_leaf",
        "floor",
        "_decoded",
        "_pairs",
    )

    def __init__(
        self,
        codec: KeyCodec,
        keys: np.ndarray,
        starts: np.ndarray,
        leaf_cluster: np.ndarray,
        rep_leaf: np.ndarray,
        floor: int = 1,
    ) -> None:
        self.codec = codec
        self.keys = keys
        self.starts = starts
        self.leaf_cluster = leaf_cluster
        self.rep_leaf = rep_leaf
        self.floor = floor
        self._decoded: dict[int, ClusterKey] = {}
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_clusters(self) -> int:
        return int(self.keys.size)

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_cluster.shape[1])

    def flags(self, ids: np.ndarray) -> np.ndarray:
        """One flag per cluster id, set on ``ids``, plus the trailing
        ``False`` slot that a pruned (-1) ``leaf_cluster`` entry reads."""
        out = np.zeros(self.n_clusters + 1, dtype=bool)
        out[ids] = True
        return out

    def span(self, mask: int) -> slice:
        """The cluster ids of ``mask``."""
        return slice(int(self.starts[mask]), int(self.starts[mask + 1]))

    def mask_of(self, ids: np.ndarray) -> np.ndarray:
        """The mask of each cluster id."""
        return np.searchsorted(self.starts, ids, side="right") - 1

    def find(self, mask: int, packed: int) -> int:
        """Cluster id of ``(mask, packed)``; -1 when it is not kept."""
        if not 0 < mask <= self.codec.full_mask:
            return -1
        lo, hi = int(self.starts[mask]), int(self.starts[mask + 1])
        pos = lo + int(np.searchsorted(self.keys[lo:hi], packed))
        return pos if pos < hi and self.keys[pos] == packed else -1

    def key_of(self, cluster_id: int) -> ClusterKey:
        """The decoded identity of one cluster, memoised."""
        (key,) = self.keys_of(np.array([cluster_id]))
        return key

    def keys_of(self, ids: np.ndarray) -> list[ClusterKey]:
        """The decoded identities of ``ids``, memoised per cluster id.

        The masks and packed keys of the clusters not decoded yet are
        gathered in one call each.
        """
        decoded = self._decoded
        ids = ids.tolist()
        new = [cid for cid in ids if cid not in decoded]
        if new:
            at = np.array(new)
            decoded.update(
                zip(
                    new,
                    self.codec.decode_many(
                        self.mask_of(at).tolist(), self.keys[at].tolist()
                    ),
                )
            )
        return [decoded[cid] for cid in ids]

    def ancestors(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (cluster, ancestor) pair of ``ids``, flat.

        Returns ``(owner, ancestor)``: cluster ``ids[owner[i]]``
        projected onto one of its strict non-empty submasks is cluster
        ``ancestor[i]``.
        """
        bounds, submasks = _submask_table(self.codec.n_attrs)
        masks = self.mask_of(ids)
        lo = bounds[masks]
        n = bounds[masks + 1] - lo
        owner = np.repeat(np.arange(ids.size), n)
        pos = np.arange(owner.size) + np.repeat(lo - (np.cumsum(n) - n), n)
        return owner, self.leaf_cluster[submasks[pos], self.rep_leaf[ids[owner]]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`ancestors` of every cluster id, built once per lattice.

        The pairs are grouped by owner in ascending id order, so
        ``owner`` is also the owning cluster's id. Every (metric,
        config) unit detected on the lattice reads this one table.
        """
        if self._pairs is None:
            self._pairs = self.ancestors(np.arange(self.n_clusters))
        return self._pairs


@functools.lru_cache(maxsize=None)
def _submask_table(n_attrs: int) -> tuple[np.ndarray, np.ndarray]:
    """Every mask's strict non-empty submasks, flat: mask ``m`` owns
    entries ``bounds[m]:bounds[m + 1]``."""
    full = (1 << n_attrs) - 1
    lists = [list(iter_submasks(m)) for m in range(full + 1)]
    bounds = np.zeros(full + 2, dtype=np.int64)
    np.cumsum([len(subs) for subs in lists], out=bounds[1:])
    submasks = np.fromiter(chain.from_iterable(lists), dtype=np.int64)
    # Shared by every caller of the cache.
    bounds.flags.writeable = submasks.flags.writeable = False
    return bounds, submasks


class EpochAggregate:
    """All cluster counts for one (epoch, metric) pair.

    ``sessions`` and ``problems`` are indexed by the cluster ids of
    ``lattice``; ``leaf_sessions`` and ``leaf_problems`` by its leaves
    (every leaf, kept on the full mask or not), which is what coverage
    and attribution sum.
    """

    __slots__ = (
        "epoch",
        "metric_name",
        "lattice",
        "sessions",
        "problems",
        "leaf_sessions",
        "leaf_problems",
        "total_sessions",
        "total_problems",
    )

    def __init__(
        self,
        epoch: int,
        metric_name: str,
        lattice: EpochLattice,
        sessions: np.ndarray,
        problems: np.ndarray,
        leaf_sessions: np.ndarray,
        leaf_problems: np.ndarray,
    ) -> None:
        self.epoch = epoch
        self.metric_name = metric_name
        self.lattice = lattice
        self.sessions = sessions
        self.problems = problems
        self.leaf_sessions = leaf_sessions
        self.leaf_problems = leaf_problems
        self.total_sessions = int(leaf_sessions.sum())
        self.total_problems = int(leaf_problems.sum())

    @property
    def codec(self) -> KeyCodec:
        return self.lattice.codec

    @property
    def global_stats(self) -> ClusterStats:
        """Root-level counts: every valid session in the epoch."""
        return ClusterStats(self.total_sessions, self.total_problems)

    @property
    def global_ratio(self) -> float:
        return self.global_stats.ratio
