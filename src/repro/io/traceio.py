"""Session-trace persistence.

Two row-oriented formats:

* CSV — one header row, one session per line; interoperable with
  spreadsheet/pandas workflows.
* JSONL — one JSON object per line; self-describing and append-safe.

Both round-trip exactly through :class:`SessionTable` (attribute
labels, metric values including NaN for failed joins, and timestamps).

Both readers decode column-wise: ``_CHUNK_ROWS`` records at a time are
transposed into columns, each attribute column is encoded in one
first-appearance pass, and the chunks stream into one table via
:meth:`SessionTable.extend` — no per-row :class:`Session` objects, no
per-row encoder lookups. Every chunk is held to the ``Session``
invariants (:func:`~repro.core.sessions.check_sessions`), so a
malformed row fails the read with a ``ValueError`` naming the file,
column and row. Vocabularies grow in first-appearance order, so the
result equals building the table from ``Session`` records row by row;
the test suite keeps that row-wise reader as the reference.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.core.sessions import (
    METRIC_COLUMNS,
    Session,
    SessionTable,
    check_sessions,
)
from repro.obs import current_metrics, current_tracer


def _ingest_span(path, fmt: str):
    """An ``ingest`` span for one trace read (bytes from the file size)."""
    try:
        nbytes = Path(path).stat().st_size
    except OSError:
        nbytes = 0
    return current_tracer().span(
        "ingest", path=str(path), format=fmt, bytes=int(nbytes)
    )


def _note_ingest(rows: int) -> None:
    current_metrics().inc("ingest.reads")
    current_metrics().inc("ingest.rows", rows)


def _session_record(session: Session, schema: AttributeSchema) -> dict:
    record = {name: session.attrs[name] for name in schema.names}
    record.update(
        start_time=session.start_time,
        duration_s=session.duration_s,
        buffering_s=session.buffering_s,
        join_time_s=session.join_time_s,
        bitrate_kbps=session.bitrate_kbps,
        join_failed=session.join_failed,
    )
    return record


#: Rows decoded per chunk, read at call time so tests can shrink it.
#: Small enough that a chunk's row buffers stay cache-resident (larger
#: chunks measure slower, not faster); appends amortize via ``extend``.
_CHUNK_ROWS = 4096


def _encode_labels(labels) -> tuple[list[str], np.ndarray]:
    """Vectorized first-appearance encoding of one attribute column.

    Returns ``(vocab, codes)`` with the vocabulary ordered by first
    appearance — exactly what the per-row encoder in
    :meth:`SessionTable.from_sessions` produces — in one pass over the
    column instead of a dict probe per attribute per row.
    """
    encoder: dict[str, int] = {}
    setdefault = encoder.setdefault
    codes = np.fromiter(
        (setdefault(str(label), len(encoder)) for label in labels),
        dtype=np.int32,
        count=len(labels),
    )
    return list(encoder), codes


def _bool_column(values: list) -> np.ndarray:
    """One ``join_failed`` column: JSON booleans, or ``true/1/yes`` and
    ``false/0/no`` in any case."""
    if all(isinstance(v, bool) for v in values):
        return np.array(values, dtype=bool)
    text = np.char.strip(
        np.char.lower(np.asarray([str(v) for v in values], dtype="U"))
    )
    out = np.isin(text, ("true", "1", "yes"))
    bad = ~(out | np.isin(text, ("false", "0", "no")))
    if bad.any():
        raise ValueError(
            f"cannot parse boolean from {values[int(np.argmax(bad))]!r}"
        )
    return out


def _float_column(values) -> np.ndarray:
    """One metric column to float64 (strings parsed, ``None`` -> NaN)."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return np.asarray(
            [float("nan") if v is None else float(v) for v in values],
            dtype=np.float64,
        )


def _chunk_table(columns: dict, schema: AttributeSchema, path) -> SessionTable:
    """Decode one chunk of raw columns into a table."""
    n = len(next(iter(columns.values()))) if columns else 0
    vocabs: list[list[str]] = []
    codes = np.empty((n, len(schema)), dtype=np.int32)
    metrics = {}
    try:
        for i, name in enumerate(schema.names):
            vocab, chunk_codes = _encode_labels(columns[name])
            vocabs.append(vocab)
            codes[:, i] = chunk_codes
        for name in METRIC_COLUMNS:
            if name == "join_failed":
                metrics[name] = _bool_column(columns[name])
            else:
                metrics[name] = _float_column(columns[name])
    except KeyError as exc:
        raise ValueError(f"{path}: records missing column {exc}") from None
    return SessionTable(schema=schema, vocabs=vocabs, codes=codes, **metrics)


def _read_chunked(
    column_chunks: Iterator[dict], schema: AttributeSchema, path
) -> SessionTable:
    """Check and stream decoded column chunks into one table."""
    table = SessionTable.empty(schema)
    for columns in column_chunks:
        chunk = _chunk_table(columns, schema, path)
        check_sessions(chunk, str(path), first_row=len(table))
        table.extend(chunk)
    return table


def write_sessions_jsonl(table: SessionTable, path: str | Path) -> int:
    """Write a table as JSONL; returns the number of rows written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for session in table.rows():
            record = _session_record(session, table.schema)
            # JSON has no NaN; encode as null and restore on read.
            for key in ("join_time_s", "bitrate_kbps"):
                if isinstance(record[key], float) and math.isnan(record[key]):
                    record[key] = None
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def read_sessions_jsonl(
    path: str | Path, schema: AttributeSchema = DEFAULT_SCHEMA
) -> SessionTable:
    """Read a JSONL trace back into a table (``null`` metrics -> NaN)."""
    with _ingest_span(path, "jsonl") as span:
        table = _read_chunked(_jsonl_record_chunks(Path(path)), schema, path)
        span.set(rows=len(table))
    _note_ingest(len(table))
    return table


def _jsonl_record_chunks(path: Path) -> Iterator[dict]:
    loads, chunk_rows = json.loads, _CHUNK_ROWS
    with path.open("r", encoding="utf-8") as handle:
        chunk: list[dict] = []
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                chunk.append(loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON") from exc
            if len(chunk) >= chunk_rows:
                yield _records_to_columns(chunk, path)
                chunk = []
        if chunk:
            yield _records_to_columns(chunk, path)


def _records_to_columns(records: list[dict], path) -> dict:
    try:
        return {
            name: [record[name] for record in records]
            for name in records[0]
        }
    except KeyError as exc:
        raise ValueError(f"{path}: record missing field {exc}") from None


def write_sessions_csv(table: SessionTable, path: str | Path) -> int:
    """Write a table as CSV; returns the number of rows written."""
    path = Path(path)
    fieldnames = list(table.schema.names) + list(METRIC_COLUMNS)
    count = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for session in table.rows():
            writer.writerow(_session_record(session, table.schema))
            count += 1
    return count


def read_sessions_csv(
    path: str | Path, schema: AttributeSchema = DEFAULT_SCHEMA
) -> SessionTable:
    """Read a CSV trace back into a table."""
    with _ingest_span(path, "csv") as span:
        table = _read_chunked(_csv_record_chunks(Path(path)), schema, path)
        span.set(rows=len(table))
    _note_ingest(len(table))
    return table


def _csv_record_chunks(path: Path) -> Iterator[dict]:
    chunk_rows = _CHUNK_ROWS
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            fields = next(reader)
        except StopIteration:
            return
        n_fields = len(fields)
        chunk: list[list[str]] = []
        for row in reader:
            if len(row) != n_fields:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {n_fields} fields, "
                    f"got {len(row)}"
                )
            chunk.append(row)
            if len(chunk) >= chunk_rows:
                yield dict(zip(fields, zip(*chunk)))
                chunk = []
        if chunk:
            yield dict(zip(fields, zip(*chunk)))
