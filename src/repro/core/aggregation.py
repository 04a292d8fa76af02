"""Vectorised per-epoch aggregation of session/problem counts.

For one epoch and one quality metric, every cluster (attribute-subset
mask + concrete values) needs a session count and a problem-session
count. Doing this per session in Python would be hopeless at trace
scale; instead:

1. Pack each session's attribute codes into one ``int64``
   (:class:`KeyCodec`).
2. Reduce sessions to distinct *leaf* combinations via ``np.unique``
   (typically thousands of leaves for tens of thousands of sessions).
3. For each of the ``2^n - 1`` non-empty attribute masks, project leaf
   keys with a bitwise AND and re-aggregate with
   ``np.unique``/``np.bincount``.

The result, :class:`EpochAggregate`, answers ``stats(mask, packed)``
lookups in O(log L) and exposes the per-mask arrays the problem- and
critical-cluster detectors consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.attributes import AttributeSchema
from repro.core.clusters import ClusterKey
from repro.core.metrics import MetricThresholds, QualityMetric
from repro.core.sessions import SessionTable


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

    The codec snapshots a table's vocabularies, so decoded
    :class:`ClusterKey` identities are stable across epochs of the same
    trace (vocabularies are global to the table).
    """

    __slots__ = ("schema", "vocabs", "widths", "offsets", "_field_masks", "_code_maps")

    def __init__(
        self,
        schema: AttributeSchema,
        vocabs: Sequence[Sequence[str]],
        widths: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.schema = schema
        self.vocabs = vocabs
        self.widths = widths
        self.offsets = offsets
        self._field_masks: np.ndarray | None = None
        self._code_maps: list[dict[str, int]] | None = None

    @classmethod
    def from_table(cls, table: SessionTable) -> "KeyCodec":
        return cls(
            schema=table.schema,
            vocabs=table.vocabs,
            widths=table.bit_widths(),
            offsets=table.bit_offsets(),
        )

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
        """AND-masks per attribute-subset mask (see SessionTable)."""
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

    def code_maps(self) -> list[dict[str, int]]:
        """Per-attribute label -> code reverse maps (built once, cached).

        Vocabularies are append-only lists, so looking a label up with
        ``list.index`` costs O(V) per call; lookups on hot paths
        (``stats_of_key`` and the what-if query layers) use these maps
        instead.
        """
        if self._code_maps is None:
            self._code_maps = [
                {label: code for code, label in enumerate(vocab)}
                for vocab in self.vocabs
            ]
        return self._code_maps

    def note_vocab_growth(self) -> None:
        """Invalidate label caches after the shared vocabularies grew.

        ``vocabs`` is shared by reference with the source table, so a
        :meth:`SessionTable.extend` that introduces new labels is
        visible here automatically — but the cached reverse maps must
        be rebuilt. Field masks depend only on bit widths; a width
        change invalidates the codec entirely (the index rebuilds).
        """
        self._code_maps = None

    def encode_key(self, key: ClusterKey) -> tuple[int, int] | None:
        """Encode a :class:`ClusterKey` to its ``(mask, packed)`` pair.

        Returns ``None`` when any label is absent from the codec's
        vocabularies (the cluster cannot exist in this trace).
        """
        maps = self.code_maps()
        mask = 0
        packed = 0
        for name, value in key.pairs:
            i = self.schema.index(name)
            code = maps[i].get(value)
            if code is None:
                return None
            mask |= 1 << i
            packed |= code << int(self.offsets[i])
        return mask, packed

    def decode(self, mask: int, packed: int) -> ClusterKey:
        """Decode a ``(mask, packed)`` pair to a :class:`ClusterKey`."""
        pairs = []
        for i, name in enumerate(self.schema.names):
            if mask & (1 << i):
                code = (int(packed) >> int(self.offsets[i])) & (
                    (1 << int(self.widths[i])) - 1
                )
                pairs.append((name, self.vocabs[i][code]))
        return ClusterKey(tuple(pairs))


@dataclass
class MaskAggregate:
    """Aggregated counts for all clusters of one attribute mask.

    ``keys`` is sorted ascending; ``sessions[i]``/``problems[i]`` belong
    to ``keys[i]``.
    """

    mask: int
    keys: np.ndarray
    sessions: np.ndarray
    problems: np.ndarray

    def __len__(self) -> int:
        return self.keys.size

    def index_of(self, packed: np.ndarray | int) -> np.ndarray | int:
        """Index of packed key(s) in this aggregate; -1 where absent."""
        scalar = np.isscalar(packed) or np.ndim(packed) == 0
        query = np.atleast_1d(np.asarray(packed, dtype=np.int64))
        pos = np.searchsorted(self.keys, query)
        pos_clipped = np.minimum(pos, max(self.keys.size - 1, 0))
        if self.keys.size:
            found = self.keys[pos_clipped] == query
        else:
            found = np.zeros(query.shape, dtype=bool)
        result = np.where(found, pos_clipped, -1)
        return int(result[0]) if scalar else result

    def stats_of(self, packed: int) -> ClusterStats | None:
        idx = self.index_of(packed)
        if idx < 0:
            return None
        return ClusterStats(int(self.sessions[idx]), int(self.problems[idx]))


class EpochAggregate:
    """All cluster counts for one (epoch, metric) pair.

    ``index`` is set when the aggregate was produced through a
    :class:`~repro.core.index.TraceClusterIndex` — it then holds the
    :class:`~repro.core.index.EpochClusterView` the aggregate came
    from, and downstream detectors reuse the view's precomputed
    leaf/cluster projections instead of per-epoch ``searchsorted``.
    """

    __slots__ = (
        "epoch",
        "metric_name",
        "codec",
        "per_mask",
        "total_sessions",
        "total_problems",
        "index",
    )

    def __init__(
        self,
        epoch: int,
        metric_name: str,
        codec: KeyCodec,
        per_mask: dict[int, MaskAggregate],
        total_sessions: int,
        total_problems: int,
        index=None,
    ) -> None:
        self.epoch = epoch
        self.metric_name = metric_name
        self.codec = codec
        self.per_mask = per_mask
        self.total_sessions = total_sessions
        self.total_problems = total_problems
        self.index = index

    @property
    def global_stats(self) -> ClusterStats:
        """Root-level counts: every valid session in the epoch."""
        return ClusterStats(self.total_sessions, self.total_problems)

    @property
    def global_ratio(self) -> float:
        return self.global_stats.ratio

    @property
    def leaf(self) -> MaskAggregate:
        """The full-mask aggregate — one entry per distinct combination."""
        return self.per_mask[self.codec.full_mask]

    def masks(self) -> Iterator[int]:
        return iter(self.per_mask)

    def stats(self, mask: int, packed: int) -> ClusterStats | None:
        agg = self.per_mask.get(mask)
        if agg is None:
            return None
        return agg.stats_of(packed)

    def stats_of_key(self, key: ClusterKey) -> ClusterStats | None:
        """Lookup by human-facing key (encodes labels to packed form)."""
        encoded = self.codec.encode_key(key)
        if encoded is None:
            return None
        mask, packed = encoded
        if mask == 0:
            return self.global_stats
        return self.stats(mask, packed)

    def decode(self, mask: int, packed: int) -> ClusterKey:
        return self.codec.decode(mask, packed)


def aggregate_epoch(
    table: SessionTable,
    rows: np.ndarray,
    metric: QualityMetric,
    epoch: int = 0,
    thresholds: MetricThresholds | None = None,
    codec: KeyCodec | None = None,
    problem_flags: np.ndarray | None = None,
    cluster_index=None,
) -> EpochAggregate:
    """Aggregate one epoch's sessions for one metric.

    ``rows`` indexes the epoch's sessions within ``table``. Sessions
    for which the metric is undefined (e.g. join time of a failed join)
    are excluded — the paper studies each metric over its own valid
    population. ``problem_flags``, when given, overrides the metric's
    problem classification for the selected rows (used by what-if
    simulations); it must align with ``rows``.

    ``cluster_index``, when given, must be a
    :class:`~repro.core.index.TraceClusterIndex` built from the same
    ``table``; aggregation then reduces to bincounts over the index's
    precomputed inverses (see that class for the exact-equivalence
    argument) and ``codec`` is ignored.

    Without an index this is the direct per-metric path: pack the
    valid rows, ``np.unique`` them into leaves and project every mask.
    The online detector's schema-mismatch fallback and the HHH ablation
    use it, and the test suite's reference analysis is built on it.
    """
    if cluster_index is not None:
        return cluster_index.aggregate(
            rows,
            metric,
            epoch=epoch,
            thresholds=thresholds,
            problem_flags=problem_flags,
        )
    codec = codec or KeyCodec.from_table(table)
    valid = metric.valid_mask(table)[rows]
    if problem_flags is None:
        problems_all = metric.problem_mask(table, thresholds)[rows]
    else:
        problem_flags = np.asarray(problem_flags, dtype=bool)
        if problem_flags.shape != (len(rows),):
            raise ValueError(
                f"problem_flags shape {problem_flags.shape} != rows {(len(rows),)}"
            )
        problems_all = problem_flags & valid

    use = np.asarray(rows)[valid]
    problem = problems_all[valid].astype(np.int64)
    packed = codec.pack(table.codes[use])

    leaf_keys, inverse = np.unique(packed, return_inverse=True)
    leaf_sessions = np.bincount(inverse, minlength=leaf_keys.size).astype(
        np.int64
    )
    leaf_problems = np.bincount(
        inverse, weights=problem, minlength=leaf_keys.size
    ).astype(np.int64)

    field_masks = codec.field_masks()
    per_mask: dict[int, MaskAggregate] = {}
    full = codec.full_mask
    for m in range(1, full + 1):
        if m == full:
            keys, sessions, problems = leaf_keys, leaf_sessions, leaf_problems
        else:
            proj = leaf_keys & field_masks[m]
            keys, inv = np.unique(proj, return_inverse=True)
            sessions = np.bincount(
                inv, weights=leaf_sessions, minlength=keys.size
            ).astype(np.int64)
            problems = np.bincount(
                inv, weights=leaf_problems, minlength=keys.size
            ).astype(np.int64)
        per_mask[m] = MaskAggregate(
            mask=m, keys=keys, sessions=sessions, problems=problems
        )

    return EpochAggregate(
        epoch=epoch,
        metric_name=metric.name,
        codec=codec,
        per_mask=per_mask,
        total_sessions=int(leaf_sessions.sum()),
        total_problems=int(leaf_problems.sum()),
    )
