"""Session records and the columnar session store.

The unit of the paper's dataset is a *video session*: one user viewing
one video, annotated with seven attributes and four quality
measurements (Section 2). Two representations are provided:

* :class:`Session` — a plain record, convenient for construction and
  row-oriented IO.
* :class:`SessionTable` — a columnar store (numpy arrays + per-attribute
  vocabularies) that the analysis pipeline operates on. Attribute
  values are integer-coded; the codes of one session pack into a single
  ``int64`` so per-epoch aggregation can run as vectorised passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.attributes import DEFAULT_SCHEMA, AttributeSchema


@dataclass(frozen=True, slots=True)
class Session:
    """One video viewing session.

    ``attrs`` maps attribute name to value label, e.g.
    ``{"asn": "AS7922", "cdn": "cdn_akamai", ...}``. Every attribute of
    the schema must be present.

    Quality fields follow the paper's Section 2 definitions:

    * ``start_time`` — session start, seconds since trace origin.
    * ``duration_s`` — total session duration ``T``.
    * ``buffering_s`` — seconds spent rebuffering midstream (``B``);
      buffering ratio is ``B/T``.
    * ``join_time_s`` — play-button-to-first-frame delay; ``nan`` for
      sessions that failed to join.
    * ``bitrate_kbps`` — time-weighted average playback bitrate; ``nan``
      for sessions that failed to join.
    * ``join_failed`` — True if no content was ever played.
    """

    attrs: Mapping[str, str]
    start_time: float
    duration_s: float
    buffering_s: float
    join_time_s: float
    bitrate_kbps: float
    join_failed: bool

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError(f"negative duration {self.duration_s}")
        if self.buffering_s < 0:
            raise ValueError(f"negative buffering time {self.buffering_s}")
        if self.duration_s > 0 and self.buffering_s > self.duration_s:
            raise ValueError(
                f"buffering {self.buffering_s}s exceeds duration {self.duration_s}s"
            )

    @property
    def buffering_ratio(self) -> float:
        """Fraction of the session spent rebuffering (0 if zero-length)."""
        if self.duration_s <= 0:
            return 0.0
        return self.buffering_s / self.duration_s


#: Quality-measurement columns, in storage order (codes is separate
#: because it is two-dimensional).
METRIC_COLUMNS = (
    "start_time",
    "duration_s",
    "buffering_s",
    "join_time_s",
    "bitrate_kbps",
    "join_failed",
)


def _grow_capacity(needed: int) -> int:
    """Next power-of-two capacity covering ``needed`` rows."""
    cap = 8
    while cap < needed:
        cap <<= 1
    return cap


def grow_append(
    buffers: dict, key: "Hashable", current: np.ndarray, part: np.ndarray
) -> np.ndarray:
    """Append ``part`` behind ``current`` with an amortized doubling buffer.

    ``buffers[key]`` holds the over-allocated backing array; the return
    value is the exact-length view to publish. When ``current`` already
    fronts the buffer (the steady-state append pattern) only ``part``
    is copied; when it does not — first append, dtype change, or the
    caller rewrote the prefix (e.g. a leaf-id remap) — the prefix is
    (re)copied into the buffer. Works for read-only inputs (e.g.
    mmap-backed views): the buffer is always freshly owned storage.
    """
    n, m = current.shape[0], part.shape[0]
    buf = buffers.get(key)
    if (
        buf is None
        or buf.shape[0] < n + m
        or buf.dtype != current.dtype
        or buf.shape[1:] != current.shape[1:]
    ):
        buf = np.empty(
            (_grow_capacity(n + m),) + current.shape[1:], dtype=current.dtype
        )
        buffers[key] = buf
        buf[:n] = current
    elif current.base is not buf:
        buf[:n] = current
    buf[n : n + m] = part
    return buf[: n + m]


class SessionTable:
    """Columnar store of sessions.

    Attributes are stored as ``int32`` codes into per-attribute
    vocabularies (code -> label). Quality measurements are stored as
    flat numpy columns. The table is append-only: rows arrive through
    the constructors or :meth:`extend`; existing rows and codes never
    change, so analysis code may treat any prefix it has seen as
    immutable.

    :meth:`extend` appends rows in place with grow-by-doubling backing
    buffers: the public column attributes are exact-length views of
    over-allocated arrays, so N single-chunk appends cost O(total
    rows) copying overall, not O(N * total rows).
    """

    __slots__ = (
        "schema",
        "vocabs",
        "codes",
        "start_time",
        "duration_s",
        "buffering_s",
        "join_time_s",
        "bitrate_kbps",
        "join_failed",
        "_decoders",
        "_encoders",
        "_buffers",
    )

    def __init__(
        self,
        schema: AttributeSchema,
        vocabs: Sequence[Sequence[str]],
        codes: np.ndarray,
        start_time: np.ndarray,
        duration_s: np.ndarray,
        buffering_s: np.ndarray,
        join_time_s: np.ndarray,
        bitrate_kbps: np.ndarray,
        join_failed: np.ndarray,
    ) -> None:
        n_attrs = len(schema)
        if len(vocabs) != n_attrs:
            raise ValueError(f"need {n_attrs} vocabularies, got {len(vocabs)}")
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 2 or codes.shape[1] != n_attrs:
            raise ValueError(f"codes must be (n, {n_attrs}), got {codes.shape}")
        n = codes.shape[0]
        columns = {
            "start_time": np.asarray(start_time, dtype=np.float64),
            "duration_s": np.asarray(duration_s, dtype=np.float64),
            "buffering_s": np.asarray(buffering_s, dtype=np.float64),
            "join_time_s": np.asarray(join_time_s, dtype=np.float64),
            "bitrate_kbps": np.asarray(bitrate_kbps, dtype=np.float64),
            "join_failed": np.asarray(join_failed, dtype=bool),
        }
        for name, col in columns.items():
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
        for i, vocab in enumerate(vocabs):
            if n and codes[:, i].size and codes[:, i].max(initial=-1) >= len(vocab):
                raise ValueError(
                    f"attribute {schema.names[i]!r} has codes beyond vocab size {len(vocab)}"
                )
        self.schema = schema
        self.vocabs = [list(v) for v in vocabs]
        self.codes = codes
        self.start_time = columns["start_time"]
        self.duration_s = columns["duration_s"]
        self.buffering_s = columns["buffering_s"]
        self.join_time_s = columns["join_time_s"]
        self.bitrate_kbps = columns["bitrate_kbps"]
        self.join_failed = columns["join_failed"]
        self._decoders = None
        self._encoders: list[dict[str, int]] | None = None
        self._buffers: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sessions(
        cls,
        sessions: Iterable[Session],
        schema: AttributeSchema = DEFAULT_SCHEMA,
    ) -> "SessionTable":
        """Build a table from row records, deriving vocabularies."""
        sessions = list(sessions)
        n = len(sessions)
        n_attrs = len(schema)
        vocabs: list[list[str]] = [[] for _ in range(n_attrs)]
        encoders: list[dict[str, int]] = [{} for _ in range(n_attrs)]
        codes = np.empty((n, n_attrs), dtype=np.int32)
        for row, s in enumerate(sessions):
            for i, name in enumerate(schema.names):
                try:
                    label = s.attrs[name]
                except KeyError:
                    raise ValueError(
                        f"session {row} missing attribute {name!r}"
                    ) from None
                code = encoders[i].get(label)
                if code is None:
                    code = len(vocabs[i])
                    encoders[i][label] = code
                    vocabs[i].append(label)
                codes[row, i] = code
        return cls(
            schema=schema,
            vocabs=vocabs,
            codes=codes,
            start_time=np.array([s.start_time for s in sessions]),
            duration_s=np.array([s.duration_s for s in sessions]),
            buffering_s=np.array([s.buffering_s for s in sessions]),
            join_time_s=np.array([s.join_time_s for s in sessions]),
            bitrate_kbps=np.array([s.bitrate_kbps for s in sessions]),
            join_failed=np.array([s.join_failed for s in sessions], dtype=bool),
        )

    @classmethod
    def empty(cls, schema: AttributeSchema = DEFAULT_SCHEMA) -> "SessionTable":
        """An empty table with empty vocabularies."""
        n_attrs = len(schema)
        zero = np.zeros(0)
        return cls(
            schema=schema,
            vocabs=[[] for _ in range(n_attrs)],
            codes=np.zeros((0, n_attrs), dtype=np.int32),
            start_time=zero,
            duration_s=zero,
            buffering_s=zero,
            join_time_s=zero,
            bitrate_kbps=zero,
            join_failed=np.zeros(0, dtype=bool),
        )

    @classmethod
    def concat(cls, tables: Sequence["SessionTable"]) -> "SessionTable":
        """Concatenate tables sharing a schema, merging vocabularies."""
        if not tables:
            raise ValueError("need at least one table")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema.names != schema.names:
                raise ValueError("cannot concat tables with different schemas")
        n_attrs = len(schema)
        vocabs: list[list[str]] = [[] for _ in range(n_attrs)]
        encoders: list[dict[str, int]] = [{} for _ in range(n_attrs)]
        recoded = []
        for t in tables:
            remap = np.empty((n_attrs,), dtype=object)
            new_codes = t.codes.copy()
            for i in range(n_attrs):
                mapping = np.empty(max(len(t.vocabs[i]), 1), dtype=np.int32)
                for old_code, label in enumerate(t.vocabs[i]):
                    code = encoders[i].get(label)
                    if code is None:
                        code = len(vocabs[i])
                        encoders[i][label] = code
                        vocabs[i].append(label)
                    mapping[old_code] = code
                if len(t.vocabs[i]):
                    new_codes[:, i] = mapping[t.codes[:, i]]
                remap[i] = mapping
            recoded.append(new_codes)
        return cls(
            schema=schema,
            vocabs=vocabs,
            codes=np.concatenate(recoded, axis=0) if recoded else tables[0].codes,
            start_time=np.concatenate([t.start_time for t in tables]),
            duration_s=np.concatenate([t.duration_s for t in tables]),
            buffering_s=np.concatenate([t.buffering_s for t in tables]),
            join_time_s=np.concatenate([t.join_time_s for t in tables]),
            bitrate_kbps=np.concatenate([t.bitrate_kbps for t in tables]),
            join_failed=np.concatenate([t.join_failed for t in tables]),
        )

    # ------------------------------------------------------------------
    # In-place append
    # ------------------------------------------------------------------
    def merge_codes(self, chunk: "SessionTable") -> np.ndarray:
        """Recode a chunk's attribute codes into this table's vocabularies.

        New labels are appended to this table's vocabularies in the
        chunk's code order (first appearance), exactly as
        :meth:`concat` would assign them — so ``extend`` stays
        bit-identical to building the concatenated table from scratch.
        Returns the chunk's ``(n, n_attrs)`` code matrix in this
        table's code space.
        """
        if chunk.schema.names != self.schema.names:
            raise ValueError(
                f"cannot merge schema {chunk.schema.names} into "
                f"{self.schema.names}"
            )
        if self._encoders is None:
            self._encoders = [
                {lab: code for code, lab in enumerate(vocab)}
                for vocab in self.vocabs
            ]
        new_codes = chunk.codes.copy()
        for i in range(self.n_attrs):
            vocab, encoder = self.vocabs[i], self._encoders[i]
            mapping = np.empty(max(len(chunk.vocabs[i]), 1), dtype=np.int32)
            for old_code, label in enumerate(chunk.vocabs[i]):
                code = encoder.get(label)
                if code is None:
                    code = len(vocab)
                    encoder[label] = code
                    vocab.append(label)
                mapping[old_code] = code
            if len(chunk.vocabs[i]):
                new_codes[:, i] = mapping[chunk.codes[:, i]]
        return new_codes

    def _append_column(self, name: str, current: np.ndarray, part: np.ndarray) -> np.ndarray:
        """Append ``part`` behind ``current`` using a doubling buffer."""
        if self._buffers is None:
            self._buffers = {}
        return grow_append(self._buffers, name, current, part)

    def extend(self, chunk: "SessionTable | Iterable[Session]") -> np.ndarray:
        """Append a chunk of sessions in place; returns the new row indices.

        Vocabularies are merged exactly as :meth:`concat` merges them,
        so after ``t.extend(chunk)`` the table equals
        ``SessionTable.concat([t_before, chunk])`` bit for bit (codes,
        vocabularies and columns). Column storage grows by doubling, so
        repeated epoch-sized appends are amortized O(appended rows).

        Existing rows never move and codes never change — readers
        holding row indices (epoch splits, a
        :class:`~repro.core.index.TraceClusterIndex`) stay valid, but
        column *array objects* are replaced; always re-read columns
        through the table attribute after an extend.
        """
        if not isinstance(chunk, SessionTable):
            chunk = SessionTable.from_sessions(chunk, schema=self.schema)
        old_n = len(self)
        new_codes = self.merge_codes(chunk)
        self.codes = self._append_column("codes", self.codes, new_codes)
        for name in METRIC_COLUMNS:
            setattr(
                self,
                name,
                self._append_column(name, getattr(self, name), getattr(chunk, name)),
            )
        return np.arange(old_n, old_n + len(chunk))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def n_attrs(self) -> int:
        return len(self.schema)

    @property
    def buffering_ratio(self) -> np.ndarray:
        """Per-session buffering ratio ``B/T`` (0 where duration is 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                self.duration_s > 0, self.buffering_s / self.duration_s, 0.0
            )
        return ratio

    def select(self, mask: np.ndarray) -> "SessionTable":
        """Row subset by boolean mask or index array (vocabs shared)."""
        return SessionTable(
            schema=self.schema,
            vocabs=self.vocabs,
            codes=self.codes[mask],
            start_time=self.start_time[mask],
            duration_s=self.duration_s[mask],
            buffering_s=self.buffering_s[mask],
            join_time_s=self.join_time_s[mask],
            bitrate_kbps=self.bitrate_kbps[mask],
            join_failed=self.join_failed[mask],
        )

    def decode(self, attr_index: int, code: int) -> str:
        """Label for ``code`` of the attribute at ``attr_index``."""
        return self.vocabs[attr_index][code]

    def code_of(self, name: str, label: str) -> int | None:
        """Integer code of ``label`` for attribute ``name``.

        Returns ``None`` when the label is absent from the vocabulary.
        Reverse maps are built lazily and cached (vocabularies are
        immutable once analysis starts), replacing the O(V)
        ``list.index`` scans query layers used to pay per lookup.
        """
        if self._encoders is None:
            self._encoders = [
                {lab: code for code, lab in enumerate(vocab)}
                for vocab in self.vocabs
            ]
        return self._encoders[self.schema.index(name)].get(label)

    def attr_labels(self, name: str) -> list[str]:
        """Vocabulary (code-ordered labels) of attribute ``name``."""
        return list(self.vocabs[self.schema.index(name)])

    def rows(self) -> Iterator[Session]:
        """Iterate row records (slow; intended for IO and tests)."""
        for i in range(len(self)):
            attrs = {
                name: self.vocabs[j][self.codes[i, j]]
                for j, name in enumerate(self.schema.names)
            }
            yield Session(
                attrs=attrs,
                start_time=float(self.start_time[i]),
                duration_s=float(self.duration_s[i]),
                buffering_s=float(self.buffering_s[i]),
                join_time_s=float(self.join_time_s[i]),
                bitrate_kbps=float(self.bitrate_kbps[i]),
                join_failed=bool(self.join_failed[i]),
            )

    # ------------------------------------------------------------------
    # Key packing — the representation aggregation operates on
    # ------------------------------------------------------------------
    def bit_widths(self) -> np.ndarray:
        """Bits needed per attribute to encode its vocabulary."""
        widths = np.empty(self.n_attrs, dtype=np.int64)
        for i, vocab in enumerate(self.vocabs):
            size = max(len(vocab), 1)
            widths[i] = max(int(size - 1).bit_length(), 1)
        if widths.sum() > 62:
            raise ValueError(
                f"attribute vocabularies need {widths.sum()} bits; packing "
                "supports at most 62"
            )
        return widths

    def bit_offsets(self) -> np.ndarray:
        """Bit offset of each attribute field within a packed key."""
        widths = self.bit_widths()
        offsets = np.zeros_like(widths)
        offsets[1:] = np.cumsum(widths)[:-1]
        return offsets

    def packed_keys(self, rows: np.ndarray | slice | None = None) -> np.ndarray:
        """Pack each session's attribute codes into one ``int64``.

        The packed key concatenates per-attribute code fields; masking a
        subset of attributes is a bitwise AND with a field mask, which is
        what makes per-mask aggregation a vectorised operation.
        """
        offsets = self.bit_offsets()
        codes = self.codes if rows is None else self.codes[rows]
        packed = np.zeros(codes.shape[0], dtype=np.int64)
        for i in range(self.n_attrs):
            packed |= codes[:, i].astype(np.int64) << int(offsets[i])
        return packed

    def field_masks(self) -> np.ndarray:
        """For every attribute-subset mask, the packed-key AND mask.

        Entry ``m`` zeroes the fields of attributes *not* in subset
        ``m``, so ``packed & field_masks[m]`` is the packed key of the
        session's projection onto ``m``.
        """
        widths = self.bit_widths()
        offsets = self.bit_offsets()
        per_attr = np.array(
            [((1 << int(widths[i])) - 1) << int(offsets[i]) for i in range(self.n_attrs)],
            dtype=np.int64,
        )
        n_masks = 1 << self.n_attrs
        out = np.zeros(n_masks, dtype=np.int64)
        for m in range(1, n_masks):
            acc = np.int64(0)
            for i in range(self.n_attrs):
                if m & (1 << i):
                    acc |= per_attr[i]
            out[m] = acc
        return out

    def unpack_key(self, mask: int, packed: int) -> tuple[tuple[str, str], ...]:
        """Decode a ``(mask, packed)`` cluster id to (attr, label) pairs."""
        widths = self.bit_widths()
        offsets = self.bit_offsets()
        pairs = []
        for i, name in enumerate(self.schema.names):
            if mask & (1 << i):
                code = (packed >> int(offsets[i])) & ((1 << int(widths[i])) - 1)
                pairs.append((name, self.vocabs[i][int(code)]))
        return tuple(pairs)
