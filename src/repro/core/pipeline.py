"""End-to-end analysis pipeline: trace -> per-epoch, per-metric structure.

``analyze_trace`` runs the paper's full methodology over a
:class:`~repro.core.sessions.SessionTable`:

1. split sessions into one-hour epochs (Section 3.1),
2. build one :class:`~repro.core.index.TraceClusterIndex` for the whole
   trace, then per epoch and metric aggregate cluster counts (a handful
   of ``bincount`` calls over the index), and per epoch flag the
   problem clusters and run the critical-cluster phase-transition
   search for every (metric, config) unit in one pass,
3. keep the results as columns: per metric one :class:`ResultTable`
   of per-epoch scalars and (epoch, cluster) rows whose identities stay
   packed against the analysed table's codec. Counts and coverage read
   the columns; timelines, prevalence, persistence and attribution
   totals are group-bys; a :class:`ClusterKey` is decoded only at the
   edge, once per distinct identity, when something asks for it.

``analyze_trace`` is :func:`~repro.core.substrate.analyze_sweep` over a
single config, so there is one engine and one unit of work
(:func:`~repro.core.substrate._sweep_batch`). The ``workers`` call
argument fans epochs out over a process pool: ``0``/``1`` run serially
in-process, ``"auto"`` uses every CPU, and any worker count produces
results identical to the serial path (same cluster identities, same
stats, same attribution), pinned against a naive per-epoch reference
by ``tests/property/test_parallel_equivalence.py``.

Per-phase wall-time counters (pack/index-build/aggregate/problems/
critical) are accumulated on :class:`PipelineTimings` and surfaced via
``TraceAnalysis.timings``.

The result object exposes the per-metric timelines and series that all
figures and tables of the evaluation are computed from.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.aggregation import ClusterStats, EpochAggregate, KeyCodec
from repro.core.attributes import DEFAULT_SCHEMA, AttributeSchema
from repro.core.clusters import ClusterKey
from repro.core.critical import CriticalAttribution, detect_critical_clusters
from repro.core.epoching import EpochGrid
from repro.core.metrics import (
    ALL_METRICS,
    MetricThresholds,
    QualityMetric,
    metric_by_name,
)
from repro.core.problems import ProblemClusterConfig, detect_problem_clusters
from repro.core.sessions import SessionTable
from repro.core.streaks import ClusterTimeline
from repro.obs import current_metrics, current_tracer


def resolve_worker_count(workers: int | str | None) -> int:
    """Resolve the ``workers`` knob to a concrete process count.

    ``None``/``0``/``1`` mean serial in-process analysis, ``"auto"``
    means one worker per CPU, and any other non-negative int is taken
    literally. Worker count never changes results, only wall time.
    """
    if workers is None:
        return 0
    if workers == "auto":
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a non-negative int or 'auto', got {workers!r}"
        )
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return workers


@dataclass(frozen=True)
class AnalysisConfig:
    """What an analysis computes (paper defaults).

    Every field changes results, and :meth:`config_digest` covers every
    field. How a run executes — the ``workers`` count — is a call
    argument, not config: it never changes results.
    """

    metrics: tuple[QualityMetric, ...] = ALL_METRICS
    thresholds: MetricThresholds = field(default_factory=MetricThresholds)
    problem_config: ProblemClusterConfig = field(default_factory=ProblemClusterConfig)
    epoch_seconds: float = 3600.0

    def config_digest(self) -> str:
        """Canonical SHA-256 of everything that can change results.

        The digest covers every field (:meth:`digest_spec`): the metric
        tuple (by registry name), the thresholds, the problem-cluster
        config and the epoch length. Two configs with equal digests
        therefore produce bit-identical analyses of the same data, at
        any worker count, which is what lets the per-shard result cache
        (:mod:`repro.core.resultcache`) share entries across runs and
        across sweeps whose variants overlap.

        Metrics are identified by registry name (custom metrics must be
        registered via
        :func:`~repro.core.metrics.register_metric` — the name is the
        identity, so re-registering different behavior under an old
        name stales any cache keyed on it). Raises :class:`ValueError`
        for unregistered metrics, which have no stable identity to
        address results by.
        """
        payload = json.dumps(
            self.digest_spec(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def digest_spec(self) -> dict:
        """The canonical, JSON-ready record :meth:`config_digest` hashes."""
        for metric in self.metrics:
            try:
                registered = metric_by_name(metric.name)
            except KeyError:
                registered = None
            if registered is not metric:
                raise ValueError(
                    f"metric {metric.name!r} is not registered and has no "
                    "content-addressable identity; call register_metric() "
                    "on it first"
                )
        return {
            "digest_version": 1,
            "metrics": [m.name for m in self.metrics],
            "thresholds": asdict(self.thresholds),
            "problem_config": asdict(self.problem_config),
            "epoch_seconds": float(self.epoch_seconds),
        }


@dataclass
class PipelineTimings:
    """Per-phase wall-time counters for one ``analyze_trace`` run.

    ``pack_s`` counts epoch-view construction: each view batch's build
    (floors included) is split evenly over its epochs and configs, so
    sums stay true, and ``n_view_batches`` counts the batches (each
    config of a sweep counts every batch of its grid);
    ``index_build_s`` counts trace-global index construction (once per
    run); ``aggregate_s`` accumulates per (epoch, metric) unit, the
    first epoch of a batch paying the batch's folds. ``problems_s``
    and ``critical_s`` time the two stages of each
    epoch's one detection pass over all its units: the problem stage is
    the predicate, the problem-cluster coverage and the problem rows;
    the critical stage is the taint, removal, minimality and
    attribution steps and the critical rows. Neither decodes a cluster
    key: rows hold packed keys, decoded later, at the edge. A sweep splits
    the view and both stages evenly across its configs, so the sums over
    its analyses stay true. Sharded runs additionally count ``load_s``
    (mmap-loading shard snapshots) and ``merge_s`` (folding per-shard
    results into the whole-trace analysis). In parallel runs the phase
    counters sum time spent inside worker processes while ``wall_s``
    is the parent's wall clock, so ``phase_seconds > wall_s``
    indicates real parallel speedup.
    """

    pack_s: float = 0.0
    index_build_s: float = 0.0
    aggregate_s: float = 0.0
    problems_s: float = 0.0
    critical_s: float = 0.0
    load_s: float = 0.0
    merge_s: float = 0.0
    wall_s: float = 0.0
    n_epochs: int = 0
    n_units: int = 0
    n_view_batches: int = 0

    @property
    def phase_seconds(self) -> float:
        """Total time attributed to the instrumented phases."""
        return (
            self.pack_s
            + self.index_build_s
            + self.aggregate_s
            + self.problems_s
            + self.critical_s
            + self.load_s
            + self.merge_s
        )

    def merge(self, other: "PipelineTimings") -> None:
        """Accumulate another run's (or epoch's) counters into this one."""
        self.pack_s += other.pack_s
        self.index_build_s += other.index_build_s
        self.aggregate_s += other.aggregate_s
        self.problems_s += other.problems_s
        self.critical_s += other.critical_s
        self.load_s += other.load_s
        self.merge_s += other.merge_s
        self.n_epochs += other.n_epochs
        self.n_units += other.n_units
        self.n_view_batches += other.n_view_batches

    def as_dict(self) -> dict[str, float]:
        return {
            "pack_s": self.pack_s,
            "index_build_s": self.index_build_s,
            "aggregate_s": self.aggregate_s,
            "problems_s": self.problems_s,
            "critical_s": self.critical_s,
            "load_s": self.load_s,
            "merge_s": self.merge_s,
            "phase_s": self.phase_seconds,
            "wall_s": self.wall_s,
            "n_epochs": float(self.n_epochs),
            "n_units": float(self.n_units),
            "n_view_batches": float(self.n_view_batches),
        }

    def render(self) -> str:
        """Human-readable timing block (printed by ``--timings``)."""
        lines = [
            "Pipeline timings "
            f"({self.n_epochs} epochs, {self.n_units} epoch-metric units):",
            f"  pack (per-epoch shared)  : {self.pack_s:9.4f} s",
        ]
        if self.n_view_batches:
            lines.append(
                f"  view batches             : {self.n_view_batches:9d}"
                f" ({self.n_epochs / self.n_view_batches:.1f} epochs each)"
            )
        lines += [
            f"  index build (trace)      : {self.index_build_s:9.4f} s",
            f"  aggregate (per metric)   : {self.aggregate_s:9.4f} s",
            f"  problem clusters         : {self.problems_s:9.4f} s",
            f"  critical clusters        : {self.critical_s:9.4f} s",
        ]
        if self.load_s > 0:
            lines.append(f"  shard snapshot load      : {self.load_s:9.4f} s")
        if self.merge_s > 0:
            lines.append(f"  shard merge              : {self.merge_s:9.4f} s")
        lines += [
            f"  phase total              : {self.phase_seconds:9.4f} s",
            f"  wall clock               : {self.wall_s:9.4f} s",
        ]
        if self.wall_s > 0:
            lines.append(
                f"  parallel efficiency      : {self.phase_seconds / self.wall_s:9.2f}x"
            )
        return "\n".join(lines)


#: Per-epoch columns of a :class:`ResultTable`: the epoch number, the
#: codec its keys are packed against (an index into ``codecs``), its
#: session and problem-session totals, the resolved session floor, the
#: problem-cluster coverage and its number of problem and critical rows.
EPOCH_COLUMNS = (
    "epoch",
    "block",
    "sessions",
    "problems",
    "floor",
    "coverage",
    "n_problem",
    "n_critical",
)

#: Columns of the problem rows, one row per (epoch, problem cluster).
PROBLEM_COLUMNS = ("mask", "key", "sessions", "problems")

#: Columns of the critical rows, one row per (epoch, critical cluster):
#: its attribution and its own counts.
CRITICAL_COLUMNS = (
    "mask",
    "key",
    "attributed_problems",
    "attributed_sessions",
    "sessions",
    "problems",
)

#: Column dtypes: int32 for counts (as the trace index's row -> leaf
#: map, a table holds fewer than 2**31 rows), uint16 for masks (a
#: schema has at most 16 attributes).
_DTYPES = {
    "epoch": np.int64,
    "key": np.int64,
    "mask": np.uint16,
    "coverage": np.float64,
    "attributed_problems": np.float64,
    "attributed_sessions": np.float64,
}


def _columns(names: Sequence[str], values: Sequence) -> dict[str, np.ndarray]:
    return {
        name: np.asarray(value, dtype=_DTYPES.get(name, np.int32))
        for name, value in zip(names, values)
    }


class ResultTable:
    """The results of one metric over its epochs, as columns.

    ``epochs`` holds one entry per epoch position (:data:`EPOCH_COLUMNS`).
    ``problem`` and ``critical`` hold one row per (epoch, cluster)
    (:data:`PROBLEM_COLUMNS`, :data:`CRITICAL_COLUMNS`), grouped by
    epoch in position order — position ``i`` owns ``n_problem[i]``
    problem rows — and in cluster-id order within an epoch, the order
    detection emits them. A row's cluster is its attribute-subset
    ``mask`` and its ``key`` packed against ``codecs[block[i]]``: one
    codec for an analysed table, one per shard in a merged analysis.

    Identities stay packed until the edge. Counts, coverage and
    attribution sums read the columns. The group-bys — timelines,
    attribution totals — number each row's *label identity* once per
    table (:meth:`_row_ids`), so a cluster is one identity across
    blocks whose codecs code its labels differently, and decode each
    distinct identity once, when something first asks for its
    :class:`ClusterKey`.
    """

    __slots__ = ("codecs", "epochs", "problem", "critical", "_offsets", "_lists", "_ids")

    def __init__(
        self,
        codecs: Sequence[KeyCodec],
        epochs: dict[str, np.ndarray],
        problem: dict[str, np.ndarray],
        critical: dict[str, np.ndarray],
    ) -> None:
        self.codecs = tuple(codecs)
        self.epochs = epochs
        self.problem = problem
        self.critical = critical
        self._offsets: dict[str, np.ndarray] = {}
        self._lists: dict[str, dict[str, list]] = {}
        self._ids: tuple | None = None

    def __reduce__(self):
        return (ResultTable, (self.codecs, self.epochs, self.problem, self.critical))

    def __len__(self) -> int:
        return int(self.epochs["epoch"].size)

    @classmethod
    def from_parts(cls, parts: Sequence[tuple]) -> "ResultTable":
        """A table of one epoch per part, in part order, without codecs.

        A part is ``(scalars, problem_rows, critical_rows)``: the
        epoch's number, sessions, problems, floor and coverage, and its
        rows' columns in :data:`PROBLEM_COLUMNS` and
        :data:`CRITICAL_COLUMNS` order. Every epoch is block 0: its keys
        are packed against the codec :meth:`concat` attaches.
        """
        if not parts:
            return cls.concat([])
        scalars = list(zip(*(part[0] for part in parts)))
        counts = [[part[k][0].size for part in parts] for k in (1, 2)]
        epochs = _columns(
            EPOCH_COLUMNS,
            [scalars[0], np.zeros(len(parts)), *scalars[1:], *counts],
        )
        rows = [
            _columns(names, [np.concatenate(col) for col in zip(*(p[k] for p in parts))])
            for k, names in ((1, PROBLEM_COLUMNS), (2, CRITICAL_COLUMNS))
        ]
        return cls((), epochs, *rows)

    @classmethod
    def from_epochs(cls, epochs: Sequence["EpochAnalysis"]) -> "ResultTable":
        """Encode hand-built epoch summaries.

        One codec covers their keys' labels, each attribute's labels
        coded in order of first appearance, over the default schema
        when it names every attribute (else over the attributes in
        order of first appearance); each epoch's rows keep its
        mappings' order.
        """
        keys = [
            key
            for e in epochs
            for clusters in (e.problem_clusters, e.critical_clusters)
            for key in clusters
        ]
        names = list(dict.fromkeys(n for key in keys for n in key.attributes))
        schema = (
            DEFAULT_SCHEMA
            if set(names) <= set(DEFAULT_SCHEMA.names)
            else AttributeSchema(tuple(names))
        )
        labels: list[dict[str, int]] = [{} for _ in schema.names]
        for key in keys:
            for name, label in key.pairs:
                vocab = labels[schema.index(name)]
                vocab.setdefault(label, len(vocab))
        codec = KeyCodec(schema, [list(vocab) for vocab in labels])
        offsets = codec.offsets.tolist()

        def pack(key: ClusterKey) -> tuple[int, int]:
            mask = packed = 0
            for name, label in key.pairs:
                i = schema.index(name)
                mask |= 1 << i
                packed |= labels[i][label] << offsets[i]
            return mask, packed

        rows: dict[str, list[tuple]] = {"problem": [], "critical": []}
        counts: dict[str, list[int]] = {"problem": [], "critical": []}
        for e in epochs:
            problem = [
                (*pack(key), stats.sessions, stats.problems)
                for key, stats in e.problem_clusters.items()
            ]
            critical = [
                (
                    *pack(key),
                    att.attributed_problems,
                    att.attributed_sessions,
                    att.own_stats.sessions,
                    att.own_stats.problems,
                )
                for key, att in e.critical_clusters.items()
            ]
            for kind, new in (("problem", problem), ("critical", critical)):
                rows[kind] += new
                counts[kind].append(len(new))
        scalars = [
            (e.epoch, 0, e.total_sessions, e.total_problems, e.min_sessions,
             e.problem_cluster_coverage)
            for e in epochs
        ]
        return cls(
            (codec,),
            _columns(
                EPOCH_COLUMNS,
                _transpose(scalars, 6) + [counts["problem"], counts["critical"]],
            ),
            _columns(PROBLEM_COLUMNS, _transpose(rows["problem"], 4)),
            _columns(CRITICAL_COLUMNS, _transpose(rows["critical"], 6)),
        )

    @classmethod
    def concat(
        cls,
        tables: Sequence["ResultTable"],
        codecs: Sequence[KeyCodec] | None = None,
    ) -> "ResultTable":
        """The epochs of ``tables``, one after another.

        With ``codecs`` given, every table's keys are packed against
        those codecs and keep their blocks. Otherwise each table's
        codecs join the result's (one block per distinct codec object),
        so a merge keeps every shard's keys against its own codec.
        """
        tables = list(tables)
        blocks = [t.epochs["block"] for t in tables]
        if codecs is None:
            codecs, at = [], {}
            for k, t in enumerate(tables):
                remap = []
                for codec in t.codecs:
                    if id(codec) not in at:
                        at[id(codec)] = len(codecs)
                        codecs.append(codec)
                    remap.append(at[id(codec)])
                if len(t):
                    blocks[k] = np.array(remap, dtype=np.int64)[blocks[k]]
        if len({codec.schema.names for codec in codecs}) > 1:
            raise ValueError(
                "cannot combine results packed against different schemas"
            )

        def join(group: str, names: Sequence[str]) -> dict[str, np.ndarray]:
            return _columns(
                names,
                [
                    np.concatenate([getattr(t, group)[name] for t in tables])
                    if tables
                    else []
                    for name in names
                ],
            )

        epochs = join("epochs", EPOCH_COLUMNS)
        if tables:
            epochs.update(_columns(["block"], [np.concatenate(blocks)]))
        return cls(
            codecs,
            epochs,
            join("problem", PROBLEM_COLUMNS),
            join("critical", CRITICAL_COLUMNS),
        )

    def take(self, positions: Sequence[int]) -> "ResultTable":
        """The epochs at ``positions``, in that order, with their rows."""
        positions = np.asarray(positions, dtype=np.int64)
        rows = []
        for kind in ("problem", "critical"):
            counts = self.epochs["n_" + kind]
            starts = self.offsets(kind)[:-1][positions]
            n = counts[positions]
            at = np.repeat(starts - (np.cumsum(n) - n), n) + np.arange(n.sum())
            rows.append({name: col[at] for name, col in getattr(self, kind).items()})
        epochs = {name: col[positions] for name, col in self.epochs.items()}
        return ResultTable(self.codecs, epochs, *rows)

    def offsets(self, kind: str) -> np.ndarray:
        """Row offsets of ``kind`` ("problem" or "critical"): epoch
        position ``i`` owns rows ``offsets[i]:offsets[i + 1]``."""
        out = self._offsets.get(kind)
        if out is None:
            out = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(self.epochs["n_" + kind], out=out[1:])
            self._offsets[kind] = out
        return out

    def positions(self, kind: str) -> np.ndarray:
        """The epoch position of every row of ``kind``."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.epochs["n_" + kind])

    def _as_lists(self, kind: str) -> dict[str, list]:
        """The row offsets and value columns of ``kind`` as Python lists,
        built once, so one epoch's mapping is a few list slices."""
        lists = self._lists.get(kind)
        if lists is None:
            lists = {name: col.tolist() for name, col in getattr(self, kind).items()}
            lists["offsets"] = self.offsets(kind).tolist()
            self._lists[kind] = lists
        return lists

    def values(self, kind: str, position: int) -> list:
        """The :class:`ClusterStats` (problem) or
        :class:`CriticalAttribution` (critical) of one epoch's rows."""
        lists = self._as_lists(kind)
        lo, hi = lists["offsets"][position : position + 2]
        stats = map(ClusterStats, lists["sessions"][lo:hi], lists["problems"][lo:hi])
        if kind == "problem":
            return list(stats)
        return list(
            map(
                CriticalAttribution,
                lists["attributed_problems"][lo:hi],
                lists["attributed_sessions"][lo:hi],
                stats,
            )
        )

    def items(self, kind: str, position: int) -> dict:
        """One epoch's rows of ``kind`` as a dict from decoded key to
        value, in row order."""
        lists = self._as_lists(kind)
        if "ids" not in lists:
            lists["ids"] = self._row_ids(kind).tolist()
        lo, hi = lists["offsets"][position : position + 2]
        return dict(zip(self.keys_of(lists["ids"][lo:hi]), self.values(kind, position)))

    def attributed_problem_sessions(self) -> np.ndarray:
        """Per epoch, its critical rows' attributed problem sessions,
        summed in row order (``bincount`` adds in input order)."""
        return np.bincount(
            self.positions("critical"),
            weights=self.critical["attributed_problems"],
            minlength=len(self),
        )

    # -- identities ------------------------------------------------------
    def _row_ids(self, kind: str) -> np.ndarray:
        """The label identity of every row of ``kind``, numbered per table.

        The rows of both kinds are numbered together: each row's labels
        per attribute (-1 where its mask leaves the attribute free) are
        its codes mapped through its block's label table into codes
        over the union of the blocks' labels, and one ``lexsort`` over
        those groups equal rows. Nothing is decoded.
        """
        if self._ids is None:
            mask, key = (
                np.concatenate([self.problem[name], self.critical[name]])
                for name in ("mask", "key")
            )
            block = np.concatenate(
                [
                    np.repeat(self.epochs["block"], self.epochs["n_" + kind])
                    for kind in ("problem", "critical")
                ]
            )
            ids = np.zeros(mask.size, dtype=np.int64)
            first = ids[:0]
            if mask.size:
                codes = self._label_codes(mask, key, block)
                order = np.lexsort(codes)
                ordered = codes[:, order]
                fresh = np.ones(order.size, dtype=bool)
                fresh[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
                ids[order] = np.cumsum(fresh) - 1
                first = order[fresh]  # lexsort is stable: the first row
            n_problem = self.problem["mask"].size
            self._ids = (
                {"problem": ids[:n_problem], "critical": ids[n_problem:]},
                [col[first].tolist() for col in (block, mask, key)],
                [None] * first.size,
            )
        return self._ids[0][kind]

    def _label_codes(
        self, mask: np.ndarray, key: np.ndarray, block: np.ndarray
    ) -> np.ndarray:
        """Each row's label code per attribute over the union of the
        blocks' vocabularies (one block's own codes when it is alone),
        -1 where the row leaves the attribute free."""
        n_attrs = len(self.codecs[0].schema)
        many = len(self.codecs) > 1
        codes = np.full((n_attrs, mask.size), -1, dtype=np.int64)
        for i in range(n_attrs):
            union: dict[str, int] = {}
            has = (mask >> i & 1).astype(bool)
            for b, codec in enumerate(self.codecs):
                rows = has & (block == b) if many else has
                field = key[rows] >> int(codec.offsets[i]) & (
                    (1 << int(codec.widths[i])) - 1
                )
                if many:
                    field = np.array(
                        [union.setdefault(label, len(union)) for label in codec.vocabs[i]],
                        dtype=np.int64,
                    )[field]
                codes[i, rows] = field
        return codes

    def keys_of(self, ids: list[int]) -> list[ClusterKey]:
        """The decoded identities of ``ids`` (from :meth:`_row_ids`),
        each decoded once per table, through its first row's codec."""
        _, (block, mask, key), keys = self._ids
        missing: dict[int, list[int]] = {}
        for i in ids:
            if keys[i] is None:
                missing.setdefault(block[i], []).append(i)
        for b, mine in missing.items():
            mine = list(dict.fromkeys(mine))
            decoded = self.codecs[b].decode_many(
                [mask[i] for i in mine], [key[i] for i in mine]
            )
            for i, k in zip(mine, decoded):
                keys[i] = k
        return [keys[i] for i in ids]

    def identities(self, kind: str) -> tuple[np.ndarray, list[ClusterKey]]:
        """Each row of ``kind``'s identity, numbered in order of first
        appearance (epoch order, then row order), and the decoded
        identities in that order, each decoded once."""
        ids = self._row_ids(kind)
        distinct, first = np.unique(ids, return_index=True)
        distinct = distinct[np.argsort(first)]
        number = np.empty(len(self._ids[2]), dtype=np.int64)
        number[distinct] = np.arange(distinct.size)
        return number[ids], self.keys_of(distinct.tolist())

    def timelines(self, kind: str) -> dict[ClusterKey, ClusterTimeline]:
        """Per identity, the epoch positions whose ``kind`` rows hold it.

        :meth:`identities` orders the keys by first appearance; one
        stable ``argsort`` lays each identity's rows out in epoch
        order, and an identity occurs at most once per epoch, so each
        timeline's epochs are already sorted and unique.
        """
        ids, keys = self.identities(kind)
        epochs = self.positions(kind)[np.argsort(ids, kind="stable")]
        counts = np.bincount(ids, minlength=len(keys))
        ends = np.cumsum(counts)
        starts = ends - counts
        n_epochs = len(self)
        return {
            key: ClusterTimeline.presorted(key, epochs[lo:hi], n_epochs)
            for key, lo, hi in zip(keys, starts.tolist(), ends.tolist())
        }

    def attribution_totals(self) -> dict[ClusterKey, float]:
        """Attributed problem sessions per critical identity, in order
        of first appearance. Each identity's rows are summed in epoch
        order (``bincount`` adds in input order), as a running
        ``totals[key] += attribution`` over the epochs would."""
        ids, keys = self.identities("critical")
        sums = np.bincount(
            ids, weights=self.critical["attributed_problems"], minlength=len(keys)
        )
        return dict(zip(keys, sums.tolist()))

    def epoch_analyses(self) -> list["EpochAnalysis"]:
        """One :class:`EpochAnalysis` per epoch position, its clusters
        :class:`EpochClusters` views over the rows."""
        scalars = zip(
            *(
                self.epochs[name].tolist()
                for name in ("epoch", "sessions", "problems", "floor", "coverage")
            )
        )
        return [
            EpochAnalysis(
                *values,
                problem_clusters=EpochClusters(self, "problem", i),
                critical_clusters=EpochClusters(self, "critical", i),
            )
            for i, values in enumerate(scalars)
        ]


def _transpose(rows: list[tuple], width: int) -> list[list]:
    """Columns of a list of equal-width tuples (``width`` empty ones
    when there are no rows)."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(width)]


class EpochClusters(Mapping):
    """One epoch's problem or critical clusters in a :class:`ResultTable`.

    A read-only mapping from :class:`ClusterKey` to :class:`ClusterStats`
    (problem) or :class:`CriticalAttribution` (critical), in the rows'
    order. Its length and its values read the columns; its keys are
    decoded on first access, each distinct identity once per table.
    """

    __slots__ = ("table", "kind", "position", "_items")

    def __init__(self, table: ResultTable, kind: str, position: int) -> None:
        self.table = table
        self.kind = kind
        self.position = position
        self._items: dict | None = None

    def _dict(self) -> dict:
        if self._items is None:
            self._items = self.table.items(self.kind, self.position)
        return self._items

    def __len__(self) -> int:
        return int(self.table.epochs["n_" + self.kind][self.position])

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __contains__(self, key) -> bool:
        return key in self._dict()

    def values(self):
        """The values in row order, built without decoding a key."""
        if self._items is not None:
            return self._items.values()
        return self.table.values(self.kind, self.position)

    def __repr__(self) -> str:
        return f"EpochClusters({self._dict()!r})"


@dataclass
class EpochAnalysis:
    """Compact summary of one (epoch, metric) analysis.

    An analysis's epochs hold :class:`EpochClusters` views over its
    :class:`ResultTable`; a hand-built summary may hold plain dicts.
    """

    epoch: int
    total_sessions: int
    total_problems: int
    min_sessions: int
    problem_cluster_coverage: float
    problem_clusters: Mapping[ClusterKey, ClusterStats]
    critical_clusters: Mapping[ClusterKey, CriticalAttribution]

    @property
    def global_ratio(self) -> float:
        if self.total_sessions == 0:
            return 0.0
        return self.total_problems / self.total_sessions

    @property
    def n_problem_clusters(self) -> int:
        return len(self.problem_clusters)

    @property
    def n_critical_clusters(self) -> int:
        return len(self.critical_clusters)

    @property
    def attributed_problem_sessions(self) -> float:
        return float(
            sum(c.attributed_problems for c in self.critical_clusters.values())
        )

    @property
    def critical_cluster_coverage(self) -> float:
        """Fraction of problem sessions attributed to critical clusters."""
        if self.total_problems == 0:
            return 0.0
        return self.attributed_problem_sessions / self.total_problems


class MetricAnalysis:
    """All epochs of one metric, plus derived temporal structure.

    Holds one :class:`ResultTable`: the pipeline builds it from
    ``table``; given hand-built ``epochs`` instead, it encodes them
    (:meth:`ResultTable.from_epochs`) and keeps them as its epochs.
    Otherwise :attr:`epochs` are views over the table, built on first
    access. Series read the table's columns; timelines and attribution
    totals are its group-bys, memoised (callers must not mutate them).
    """

    def __init__(
        self,
        metric: QualityMetric,
        grid: EpochGrid,
        epochs: Sequence[EpochAnalysis] | None = None,
        *,
        table: ResultTable | None = None,
    ) -> None:
        if table is None:
            epochs = list(epochs or ())
            table = ResultTable.from_epochs(epochs)
        self.metric = metric
        self.grid = grid
        self.table = table
        self._epochs = epochs
        self._problem_timelines: dict[ClusterKey, ClusterTimeline] | None = None
        self._critical_timelines: dict[ClusterKey, ClusterTimeline] | None = None
        self._critical_totals: dict[ClusterKey, float] | None = None

    def __getstate__(self) -> dict:
        return {"metric": self.metric, "grid": self.grid, "table": self.table}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["metric"], state["grid"], table=state["table"])

    def __repr__(self) -> str:
        return (
            f"MetricAnalysis(metric={self.metric.name!r}, "
            f"epochs={len(self.table)})"
        )

    @property
    def epochs(self) -> list[EpochAnalysis]:
        if self._epochs is None:
            self._epochs = self.table.epoch_analyses()
        return self._epochs

    # -- per-epoch series ------------------------------------------------
    def series(self, accessor: Callable[[EpochAnalysis], float]) -> np.ndarray:
        return np.array([accessor(e) for e in self.epochs], dtype=np.float64)

    def _ratio(self, numerator: np.ndarray, column: str) -> np.ndarray:
        """``numerator / epochs[column]`` per epoch, 0 where it is 0."""
        denominator = self.table.epochs[column]
        return np.divide(
            numerator,
            denominator,
            out=np.zeros(denominator.size),
            where=denominator != 0,
        )

    @property
    def problem_ratio_series(self) -> np.ndarray:
        """Fraction of problem sessions per epoch (paper Figure 2)."""
        return self._ratio(self.table.epochs["problems"], "sessions")

    @property
    def problem_cluster_counts(self) -> np.ndarray:
        return self.table.epochs["n_problem"].astype(np.float64)

    @property
    def critical_cluster_counts(self) -> np.ndarray:
        return self.table.epochs["n_critical"].astype(np.float64)

    @property
    def total_problem_sessions(self) -> int:
        return int(self.table.epochs["problems"].sum())

    @property
    def mean_problem_clusters(self) -> float:
        counts = self.problem_cluster_counts
        return float(counts.mean()) if counts.size else 0.0

    @property
    def mean_critical_clusters(self) -> float:
        counts = self.critical_cluster_counts
        return float(counts.mean()) if counts.size else 0.0

    @property
    def mean_problem_cluster_coverage(self) -> float:
        vals = self.table.epochs["coverage"]
        return float(vals.mean()) if vals.size else 0.0

    @property
    def mean_critical_cluster_coverage(self) -> float:
        vals = self._ratio(self.table.attributed_problem_sessions(), "problems")
        return float(vals.mean()) if vals.size else 0.0

    # -- temporal structure ----------------------------------------------
    def problem_timelines(self) -> dict[ClusterKey, ClusterTimeline]:
        if self._problem_timelines is None:
            self._problem_timelines = self.table.timelines("problem")
        return self._problem_timelines

    def critical_timelines(self) -> dict[ClusterKey, ClusterTimeline]:
        if self._critical_timelines is None:
            self._critical_timelines = self.table.timelines("critical")
        return self._critical_timelines

    def critical_attribution_totals(self) -> dict[ClusterKey, float]:
        """Total attributed problem sessions per critical identity.

        This is the "coverage" ranking used by the what-if analyses
        (Section 5.1): clusters that account for the most problem
        sessions over the whole trace come first. Memoised like the
        timelines; callers must not mutate the returned dict.
        """
        if self._critical_totals is None:
            self._critical_totals = self.table.attribution_totals()
        return self._critical_totals


@dataclass
class TraceAnalysis:
    """Full analysis of one trace across all configured metrics."""

    grid: EpochGrid
    config: AnalysisConfig
    metrics: dict[str, MetricAnalysis]
    timings: PipelineTimings = field(default_factory=PipelineTimings)

    def __getitem__(self, metric_name: str) -> MetricAnalysis:
        return self.metrics[metric_name]

    @property
    def metric_names(self) -> list[str]:
        return list(self.metrics)


def assemble_trace_analysis(
    grid: EpochGrid,
    config: AnalysisConfig,
    per_epoch: Sequence[Sequence[EpochAnalysis]],
    timings: PipelineTimings,
) -> TraceAnalysis:
    """Fold hand-built per-epoch summaries into a :class:`TraceAnalysis`.

    ``per_epoch[e][j]`` is the summary of epoch ``e`` for the ``j``-th
    metric of ``config.metrics``.
    """
    return TraceAnalysis(
        grid=grid,
        config=config,
        metrics={
            metric.name: MetricAnalysis(
                metric, grid, [per_epoch[e][j] for e in range(grid.n_epochs)]
            )
            for j, metric in enumerate(config.metrics)
        },
        timings=timings,
    )


def _epoch_summaries(
    units: Sequence[tuple[EpochAggregate, ProblemClusterConfig]], epoch: int
) -> tuple[list[tuple], float, float]:
    """Detect every (aggregate, problem config) unit of one epoch in one
    pass and summarise each as the columns of one epoch of a
    :class:`ResultTable` (a part of :meth:`ResultTable.from_parts`, in
    unit order), packed against the lattice's codec.

    Also returns the seconds of the problem stage (predicate, coverage
    and the problem rows) and of the critical stage (taint, removal,
    minimality, attribution and the critical rows).
    """
    t0 = time.perf_counter()
    problems = detect_problem_clusters(units)
    found = [(p.coverage, p.columns()) for p in problems]
    t1 = time.perf_counter()
    critical = [c.columns() for c in detect_critical_clusters(problems)]
    t2 = time.perf_counter()
    parts = [
        (
            (epoch, p.agg.total_sessions, p.agg.total_problems, p.min_sessions, coverage),
            rows,
            critical_rows,
        )
        for p, (coverage, rows), critical_rows in zip(problems, found, critical)
    ]
    return parts, t1 - t0, t2 - t1


def analyze_trace(
    table: SessionTable,
    config: AnalysisConfig | None = None,
    grid: EpochGrid | None = None,
    progress: Callable[[int, int], None] | None = None,
    workers: int | str | None = None,
    substrate=None,
) -> TraceAnalysis:
    """Analyse a whole trace for every configured metric.

    Exactly ``analyze_sweep(table, [config], ...)[0]``, run under its
    own ``analyze_trace`` span. ``workers``: ``None``/``0``/``1`` run
    serially in-process, ``"auto"`` uses every CPU, ``n`` uses ``n``
    worker processes; results are identical at any count.
    ``substrate`` (optional) is a prebuilt
    :class:`~repro.core.substrate.AnalysisSubstrate` over the same
    table whose trace index is reused instead of rebuilt. ``progress``
    (optional) is called with ``(done_units, total_units)`` — units are
    (epoch, metric) pairs — once per epoch as each batch of epochs
    completes across all its metrics.
    """
    from repro.core.substrate import _run_sweep  # substrate imports us

    config = config or AnalysisConfig()
    tracer = current_tracer()
    with tracer.span(
        "analyze_trace", sessions=len(table), workers=resolve_worker_count(workers)
    ) as span:
        (analysis,) = _run_sweep(
            table, [config], grid, substrate, workers, progress
        )
        timings = analysis.timings
        span.set(epochs=analysis.grid.n_epochs)
        tracer.record(
            "aggregate", duration_s=timings.aggregate_s, units=timings.n_units
        )
        tracer.record("problems", duration_s=timings.problems_s)
        tracer.record("critical", duration_s=timings.critical_s)
        current_metrics().inc("pipeline.runs")
        current_metrics().inc("pipeline.epochs", analysis.grid.n_epochs)
    return analysis


def restrict_epochs(analysis: MetricAnalysis, epochs: Sequence[int]) -> MetricAnalysis:
    """A view of a metric analysis over a subset of epoch indices.

    Used by the proactive what-if simulation to form train/test splits
    (paper Section 5.2). The chosen epochs' rows are sliced out of the
    analysis's table. Epoch indices are renumbered 0..len-1 so
    streak semantics remain contiguous within the subset; the view's
    grid is re-anchored at the first chosen epoch's true start time so
    ``epoch_start()`` keeps reporting trace timestamps (for
    non-contiguous subsets only the first epoch's timestamp is exact —
    a uniform grid cannot represent gaps).
    """
    epochs = list(epochs)
    table = analysis.table.take(epochs)
    table.epochs["epoch"] = np.arange(len(epochs), dtype=np.int64)
    origin = (
        analysis.grid.epoch_start(epochs[0]) if epochs else analysis.grid.origin
    )
    grid = EpochGrid(
        origin=origin,
        epoch_seconds=analysis.grid.epoch_seconds,
        n_epochs=len(epochs),
    )
    return MetricAnalysis(analysis.metric, grid, table=table)
