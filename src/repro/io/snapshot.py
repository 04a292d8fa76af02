"""Persistent substrate snapshots: a trace's session table, mapped back in
milliseconds.

Parsing a trace file is config-independent work that every CLI
invocation over the same trace would otherwise re-pay. A snapshot
persists the packed :class:`~repro.core.sessions.SessionTable` (the
code matrix and the metric columns) in an mmap-friendly single file, so
repeated ``analyze``/``sweep``/``report`` runs read a few hundred bytes
of JSON and map the columns zero-copy. Nothing derived from the table
is stored: a loaded substrate builds its
:class:`~repro.core.index.TraceClusterIndex` on the first read of
``substrate.index``, through ``TraceClusterIndex.build`` like every
other substrate (one pack and one ``np.unique``, 33-40 ms on the week
workload). What a snapshot saves is the parse, so it pays most on text
traces: on the week workload (438k sessions, 2 vCPUs, medians of 3
alternating runs), ``analyze week.npz`` takes 1.82 s cold and 1.74 s
with a warm ``--substrate-cache``, and ``analyze week.csv`` 4.46 s
cold and 1.66 s warm (-63%).

File layout (all integers little-endian)::

    offset 0   MAGIC = b"RPROSUB2"         (8 bytes; the format version)
    offset 8   uint64 manifest byte length
    offset 16  JSON manifest (utf-8)
    ...        zero padding to a 64-byte boundary
    data       raw array bytes, each array at a 64-byte-aligned offset

The arrays are the table's ``codes`` and :data:`METRIC_COLUMNS`, one
``(key, dtype, shape, offset)`` record each, keyed by column name, with
offsets relative to the data section (the first 64-byte boundary after
the manifest). The manifest also holds the schema, its digest, the
vocabularies, the row count and, optionally, the ``source`` trace's
identity. A manifest that lacks a field, or holds one of the wrong type,
is refused with :class:`ValueError` naming the file.

Every manifest is stamped with ``content_sha256``, the SHA-256 of the
raw data section (array bytes plus alignment padding) exactly as
written. :func:`load_substrate` re-hashes it on every load, so silent
bit-rot is a :class:`ValueError`, not a wrong analysis; the stamp is
also the content address the per-shard result cache
(:mod:`repro.core.resultcache`) keys on, read without touching the
arrays (:func:`snapshot_content_sha256`). Files of another format
(another magic) are refused, never migrated: rebuild them.

:func:`save_substrate` writes a temporary file in the target's
directory and renames it over the target, so a process that still maps
the old file keeps reading the old bytes. :func:`load_substrate` maps
the file read-only, and the table's columns are views into the mapping.
A loaded substrate stays appendable:
:meth:`~repro.core.substrate.AnalysisSubstrate.append` copies the
mapped columns into fresh buffers on first growth.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from repro.core.aggregation import KeyCodec
from repro.core.attributes import AttributeSchema
from repro.core.sessions import METRIC_COLUMNS, SessionTable
from repro.core.substrate import AnalysisSubstrate
from repro.obs import current_metrics, current_tracer

#: Snapshot file magic; bump the trailing digit on format changes.
MAGIC = b"RPROSUB2"

_HEADER = struct.Struct("<8sQ")  # magic + manifest length

#: Byte alignment of the data section and of every array in it.
_ALIGN = 64

_COLUMNS = ("codes",) + METRIC_COLUMNS

#: The manifest fields the loader reads, with their JSON types.
_FIELDS = (
    ("schema", list),
    ("schema_sha256", str),
    ("vocabs", list),
    ("n_rows", int),
    ("content_sha256", str),
    ("content_bytes", int),
    ("arrays", list),
)
_ARRAY_FIELDS = (("key", str), ("dtype", str), ("shape", list), ("offset", int))
_SOURCE_FIELDS = (("path", str), ("size", int), ("mtime_ns", int))


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _raw_bytes(arr: np.ndarray) -> np.ndarray:
    """A little-endian, contiguous ``uint8`` view (or copy) of ``arr``."""
    if arr.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


def schema_sha256(schema: AttributeSchema) -> str:
    """Stable digest of the attribute schema a snapshot was built under.

    Shared by substrate snapshots and shard-store manifests
    (:mod:`repro.core.shards`) so both layers agree on schema identity.
    """
    return hashlib.sha256("\x00".join(schema.names).encode("utf-8")).hexdigest()


def source_record(source_path: str | Path) -> dict:
    """The identity of a source trace file as recorded in snapshots.

    ``path`` (resolved), ``size`` and ``mtime_ns`` together decide
    staleness: any drift means the snapshot was built from different
    bytes (or a different file) than the trace now on disk.
    """
    p = Path(source_path)
    st = p.stat()
    return {
        "path": str(p.resolve()),
        "size": int(st.st_size),
        "mtime_ns": int(st.st_mtime_ns),
    }


def save_substrate(
    substrate, path: str | Path, source: str | Path | None = None
) -> Path:
    """Write a substrate's session table (anything with ``.table``) to
    ``path``. Returns the path.

    A table whose vocabularies need more than the packed key's 62 bits
    raises :class:`ValueError` before anything is written. ``source``
    (optional) is the trace file the table was read from; its identity
    (path, size, mtime) is recorded so :func:`snapshot_staleness` can
    tell when the snapshot no longer matches the trace on disk. The
    file is written beside ``path`` and renamed over it, so a reader
    that maps the old file is never shown a partial or a new one.
    """
    path = Path(path)
    table = substrate.table
    KeyCodec.from_table(table)  # the 62-bit check
    columns = {col: getattr(table, col) for col in _COLUMNS}
    raws = [_raw_bytes(arr) for arr in columns.values()]

    entries = []
    offset = 0
    content_hash = hashlib.sha256()
    for (col, arr), raw in zip(columns.items(), raws):
        aligned = _align(offset)
        content_hash.update(bytes(aligned - offset))
        content_hash.update(raw)
        entries.append(
            {
                "key": col,
                "dtype": arr.dtype.newbyteorder("<").str,
                "shape": list(arr.shape),
                "offset": aligned,
            }
        )
        offset = aligned + raw.size

    manifest = {
        "schema": list(table.schema.names),
        "schema_sha256": schema_sha256(table.schema),
        "vocabs": [list(v) for v in table.vocabs],
        "n_rows": len(table),
        "content_sha256": content_hash.hexdigest(),
        "content_bytes": offset,
        "arrays": entries,
    }
    if source is not None:
        manifest["source"] = source_record(source)
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")

    data_start = _align(_HEADER.size + len(payload))
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with current_tracer().span(
        "snapshot.save", path=str(path), arrays=len(entries)
    ) as span:
        try:
            with open(tmp, "wb") as f:
                f.write(_HEADER.pack(MAGIC, len(payload)))
                f.write(payload)
                f.write(bytes(data_start - _HEADER.size - len(payload)))
                pos = 0
                for entry, raw in zip(entries, raws):
                    f.write(bytes(entry["offset"] - pos))
                    f.write(raw)
                    pos = entry["offset"] + raw.size
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        span.set(bytes=data_start + offset)
    current_metrics().inc("snapshot.saves")
    current_metrics().inc("snapshot.saved_bytes", data_start + offset)
    return path


def _has_fields(record, fields) -> bool:
    return type(record) is dict and all(
        type(record.get(name)) is kind for name, kind in fields
    )


def _check_manifest(path: Path, manifest) -> dict:
    """``manifest`` when every field the loader reads is present and of
    its type; otherwise :class:`ValueError` naming the file and field."""
    if type(manifest) is not dict:
        raise ValueError(f"{path}: corrupted snapshot manifest (not an object)")
    for name, kind in _FIELDS:
        if type(manifest.get(name)) is not kind:
            raise ValueError(
                f"{path}: corrupted snapshot manifest ({name!r} is missing "
                f"or not a {kind.__name__}); rebuild it"
            )
    problems = []
    if not all(type(name) is str for name in manifest["schema"]):
        problems.append("schema")
    if not all(type(vocab) is list for vocab in manifest["vocabs"]):
        problems.append("vocabs")
    entries = manifest["arrays"]
    if not all(
        _has_fields(entry, _ARRAY_FIELDS)
        and entry["offset"] >= 0
        and all(type(n) is int and n >= 0 for n in entry["shape"])
        for entry in entries
    ) or sorted(entry["key"] for entry in entries) != sorted(_COLUMNS):
        problems.append("arrays")
    if "source" in manifest and not _has_fields(manifest["source"], _SOURCE_FIELDS):
        problems.append("source")
    if problems:
        raise ValueError(
            f"{path}: corrupted snapshot manifest (malformed "
            f"{', '.join(map(repr, problems))}); rebuild it"
        )
    return manifest


def _read_manifest(path: Path, buf) -> tuple[dict, int]:
    """Parse and check the header and manifest; returns
    ``(manifest, data_start)``."""
    if len(buf) < _HEADER.size:
        raise ValueError(f"{path}: not a substrate snapshot (file too short)")
    magic, length = _HEADER.unpack(buf[: _HEADER.size])
    if magic != MAGIC:
        raise ValueError(
            f"{path}: not a substrate snapshot (bad magic {magic!r}; "
            f"expected {MAGIC!r} — version-mismatched snapshots must be "
            "rebuilt, not migrated)"
        )
    if _HEADER.size + length > len(buf):
        raise ValueError(f"{path}: truncated snapshot manifest")
    try:
        manifest = json.loads(bytes(buf[_HEADER.size : _HEADER.size + length]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupted snapshot manifest: {exc}") from exc
    return _check_manifest(path, manifest), _align(_HEADER.size + length)


def read_snapshot_manifest(path: str | Path) -> dict:
    """Read and check only the header + JSON manifest of a snapshot.

    Never touches the array data, so it stays cheap on week-scale
    snapshots. Raises :class:`ValueError` on anything that is not a
    well-formed snapshot of this format and :class:`OSError` when the
    file cannot be read.
    """
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) == _HEADER.size:
            _, length = _HEADER.unpack(head)
            # Cap the read: a corrupted length field must not balloon
            # into an attempted multi-GB allocation.
            head += f.read(min(int(length), 1 << 30))
    manifest, _ = _read_manifest(path, head)
    return manifest


def snapshot_staleness(
    path: str | Path, source_path: str | Path | None = None
) -> str | None:
    """Why ``path`` cannot be trusted for ``source_path``, or ``None``.

    Returns a human-readable reason when the snapshot is unreadable or
    corrupt, records no source provenance, or records a source whose
    resolved path, size, or mtime does not match the trace now on disk.
    Returns ``None`` when the snapshot is safe to load (staleness
    vs. ``source_path`` is only checked when one is given).
    """
    try:
        manifest = read_snapshot_manifest(path)
    except (ValueError, OSError) as exc:
        return f"snapshot is unreadable: {exc}"
    if source_path is None:
        return None
    recorded = manifest.get("source")
    if recorded is None:
        return (
            "snapshot records no source trace, so it does not match "
            "any provenance check; rebuild to adopt source tracking"
        )
    try:
        current = source_record(source_path)
    except OSError as exc:
        return f"source trace is unreadable: {exc}"
    for field, label in (
        ("path", "path"),
        ("size", "size"),
        ("mtime_ns", "mtime"),
    ):
        if recorded[field] != current[field]:
            return (
                f"source trace {label} does not match the snapshot's "
                f"recorded source ({current[field]!r} != "
                f"{recorded[field]!r})"
            )
    return None


def snapshot_content_sha256(path: str | Path) -> str:
    """The content address of a snapshot's array payload: the
    ``content_sha256`` stamped into the manifest at save time, read
    without touching the array bytes. Raises
    :class:`ValueError`/:class:`OSError` on unreadable or malformed
    snapshots."""
    return read_snapshot_manifest(path)["content_sha256"]


def load_substrate(path: str | Path) -> AnalysisSubstrate:
    """Load a substrate saved by :func:`save_substrate`.

    Maps the file read-only, re-hashes the data section against the
    manifest's ``content_sha256`` stamp and returns a substrate over a
    table whose columns are views into the mapping; its index is built
    on the first read of ``substrate.index``. Raises :class:`ValueError`
    on corrupted, truncated, or version-mismatched snapshots; on any
    failure the mapping is closed before the error propagates.
    """
    path = Path(path)
    with open(path, "rb") as f:
        try:
            buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # an empty file
            raise ValueError(f"{path}: not a substrate snapshot ({exc})") from None
    try:
        with current_tracer().span(
            "snapshot.load", path=str(path), bytes=len(buf)
        ):
            table = _table_from_buffer(path, buf)
    except Exception:
        try:
            buf.close()
        except BufferError:  # pragma: no cover - traceback-held views
            pass
        raise
    current_metrics().inc("snapshot.loads")
    current_metrics().inc("snapshot.loaded_bytes", len(buf))
    return AnalysisSubstrate(table)


def _table_from_buffer(path: Path, buf) -> SessionTable:
    """The verified session table of a snapshot's mapping."""
    manifest, data_start = _read_manifest(path, buf)
    length = manifest["content_bytes"]
    if data_start + length > len(buf):
        raise ValueError(f"{path}: truncated snapshot (data section ends past EOF)")
    digest = hashlib.sha256(
        memoryview(buf)[data_start : data_start + length]
    ).hexdigest()
    if digest != manifest["content_sha256"]:
        raise ValueError(
            f"{path}: corrupted snapshot (content sha256 mismatch: "
            f"{digest[:12]} != recorded {manifest['content_sha256'][:12]}); "
            "rebuild it"
        )
    try:
        columns = {}
        for entry in manifest["arrays"]:
            dtype = np.dtype(entry["dtype"])
            count = int(np.prod(entry["shape"], dtype=np.int64))
            if entry["offset"] + count * dtype.itemsize > length:
                raise ValueError(f"array {entry['key']!r} ends past the data section")
            columns[entry["key"]] = np.frombuffer(
                buf, dtype=dtype, count=count, offset=data_start + entry["offset"]
            ).reshape(entry["shape"])
        table = SessionTable(
            AttributeSchema(names=tuple(manifest["schema"])),
            manifest["vocabs"],
            **columns,
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: corrupted snapshot ({exc}); rebuild it") from exc
    if len(table) != manifest["n_rows"]:
        raise ValueError(
            f"{path}: corrupted snapshot (row count mismatch: "
            f"{len(table)} != {manifest['n_rows']})"
        )
    return table
