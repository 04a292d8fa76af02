"""Persistent substrate snapshots: load a trace's index in milliseconds.

Packing a :class:`~repro.core.sessions.SessionTable` and building its
:class:`~repro.core.index.TraceClusterIndex` is config-independent work
that every CLI invocation over the same trace would otherwise re-pay,
together with parsing the trace file. A snapshot persists the whole
substrate (packed columns, leaf universe, row -> leaf inverse, validity
masks) in an mmap-friendly single file so repeated
``analyze``/``sweep``/``report`` runs deserialize a few hundred bytes of
JSON and map the arrays zero-copy. What it saves is the parse plus the
build, so it pays most on text traces. On the week workload (438k
sessions, 2 vCPUs, medians of 3 alternating runs), ``analyze
week.npz`` takes 3.53 s cold and 3.13 s with a warm
``--substrate-cache`` (-11%); ``analyze week.csv`` takes 8.82 s cold
and 3.20 s warm (-64%). For comparison, ``--shard-dir`` takes 3.44 s,
and 0.76 s with a warm ``--result-cache``.

File layout (all integers little-endian)::

    offset 0   MAGIC = b"RPROSUB1"         (8 bytes; version in magic)
    offset 8   uint64 manifest byte length
    offset 16  JSON manifest (utf-8)
    ...        zero padding to a 64-byte boundary
    data       raw array bytes, each array at a 64-byte-aligned offset

The manifest holds one ``(key, dtype, shape, offset)`` record per
array, under structured keys ``("table", column)`` /
``("index", kind, *detail)`` (:func:`export_arrays`), plus the small
non-array state (schema, vocabularies, codec widths/offsets). Array
offsets are relative to the data section, which starts at the first
64-byte boundary after the manifest.

Cached problem masks are *not* persisted: their cache keys embed
:class:`~repro.core.metrics.MetricThresholds` instances (config state),
and they are cheap to recompute per run. Cached validity masks (keyed
by metric name only) are persisted and restored.

Every manifest is stamped with ``content_sha256`` — the SHA-256 of the
raw data section (array bytes plus alignment padding) exactly as
written. ``load_substrate`` re-hashes and compares by default, turning
silent snapshot bit-rot into a :class:`ValueError` (pass
``verify=False`` to skip the pass over the bytes, e.g. on trusted local
re-loads); the stamp is also the content-address the per-shard result
cache (:mod:`repro.core.resultcache`) keys on, so cache keys never
re-hash payloads at lookup time.

Snapshots written before the index became leaf-only also carry per-mask
cluster tables, lattice projections and manifest fold tables. Loading
ignores those entries (the content stamp still covers their bytes), so
such files keep loading and analyze to the same results.

``load_substrate`` maps the file read-only; restored arrays are views
into the mapping. A loaded snapshot stays appendable:
:meth:`~repro.core.substrate.AnalysisSubstrate.append` copies the
mapped columns into fresh buffers on first growth and drops the
restored index, and the next read of ``substrate.index`` builds one
over the grown table.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap
import struct
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from repro.core.aggregation import KeyCodec
from repro.core.attributes import AttributeSchema
from repro.core.index import TraceClusterIndex
from repro.core.sessions import METRIC_COLUMNS, SessionTable
from repro.core.substrate import AnalysisSubstrate
from repro.obs import current_metrics, current_tracer

#: Snapshot file magic; bump the trailing digit on format changes.
MAGIC = b"RPROSUB1"

_HEADER = struct.Struct("<8sQ")  # magic + manifest length

#: Byte alignment of the data section and of every array in it.
_ALIGN = 64

_TABLE_COLUMNS = ("codes",) + METRIC_COLUMNS


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def export_arrays(
    table: SessionTable, index: TraceClusterIndex
) -> dict[Hashable, np.ndarray]:
    """Every numpy array of a table and its index, under stable keys.

    Cached problem masks are left out: their cache keys embed
    ``MetricThresholds`` objects — config state that neither serializes
    to JSON nor belongs in a config-independent snapshot.
    """
    arrays: dict[Hashable, np.ndarray] = {
        ("table", col): getattr(table, col) for col in _TABLE_COLUMNS
    }
    arrays[("index", "leaf_keys")] = index.leaf_keys
    arrays[("index", "row_to_leaf")] = index.row_to_leaf
    for name, valid in index._valid_masks.items():
        arrays[("index", "valid", name)] = valid
    return arrays


def table_from_arrays(
    schema: AttributeSchema, vocabs, arrays: Mapping[Hashable, np.ndarray]
) -> SessionTable:
    """Rebuild a :class:`SessionTable` around mapped arrays.

    Bypasses ``__init__`` deliberately: the arrays were validated when
    the original table was built, and re-running the O(n·attrs)
    code-range scans would defeat the zero-copy load.
    """
    table = SessionTable.__new__(SessionTable)
    table.schema = schema
    table.vocabs = [list(v) for v in vocabs]
    for col in _TABLE_COLUMNS:
        setattr(table, col, arrays[("table", col)])
    table._decoders = None
    table._encoders = None
    table._buffers = None
    return table


def index_from_arrays(
    table: SessionTable,
    codec: KeyCodec,
    arrays: Mapping[Hashable, np.ndarray],
) -> TraceClusterIndex:
    """Rebuild a :class:`TraceClusterIndex` around mapped arrays,
    including the validity-mask cache. Any other ``("index", ...)``
    entry (the per-mask tables of older snapshots) is ignored."""
    index = TraceClusterIndex(
        table=table,
        codec=codec,
        leaf_keys=arrays[("index", "leaf_keys")],
        row_to_leaf=arrays[("index", "row_to_leaf")],
    )
    index._valid_masks.update(
        (key[2], arr)
        for key, arr in arrays.items()
        if key[:2] == ("index", "valid")
    )
    return index


def _little_endian(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        return arr.astype(arr.dtype.newbyteorder("<"))
    return np.ascontiguousarray(arr)


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
    substrate,
    path: str | Path,
    source: str | Path | None = None,
    extra: dict | None = None,
) -> Path:
    """Write a substrate (or anything with ``.table`` and ``.index``)
    to ``path``. Returns the path.

    ``source`` (optional) is the trace file the substrate was built
    from; its identity (path, size, mtime) is recorded in the manifest
    so :func:`snapshot_staleness` can detect a snapshot that no longer
    matches the trace on disk. ``extra`` (optional) is a JSON-encodable
    dict stored verbatim under the manifest's ``"extra"`` key — callers
    like the shard store use it to stamp shard boundaries onto each
    snapshot; the load path ignores it.
    """
    path = Path(path)
    table, index = substrate.table, substrate.index
    arrays = {
        key: _little_endian(arr)
        for key, arr in export_arrays(table, index).items()
    }

    entries = []
    offset = 0
    content_hash = hashlib.sha256()
    for key, arr in arrays.items():
        aligned = _align(offset)
        content_hash.update(b"\0" * (aligned - offset))
        content_hash.update(arr.tobytes())
        entries.append(
            {
                "key": list(key),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": aligned,
            }
        )
        offset = aligned + arr.nbytes

    codec = index.codec
    manifest = {
        "version": 1,
        "schema": list(table.schema.names),
        "schema_sha256": schema_sha256(table.schema),
        "vocabs": [list(v) for v in table.vocabs],
        "n_rows": len(table),
        "widths": [int(w) for w in codec.widths],
        "codec_offsets": [int(o) for o in codec.offsets],
        "content_sha256": content_hash.hexdigest(),
        "content_bytes": offset,
        "arrays": entries,
    }
    if source is not None:
        manifest["source"] = source_record(source)
    if extra is not None:
        manifest["extra"] = extra
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")

    data_start = _align(_HEADER.size + len(payload))
    total = data_start + (offset if entries else 0)
    with current_tracer().span(
        "snapshot.save", path=str(path), arrays=len(entries)
    ) as span:
        with open(path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, len(payload)))
            f.write(payload)
            f.write(b"\0" * (data_start - _HEADER.size - len(payload)))
            pos = 0
            for entry, arr in zip(entries, arrays.values()):
                f.write(b"\0" * (entry["offset"] - pos))
                f.write(arr.tobytes())
                pos = entry["offset"] + arr.nbytes
        span.set(bytes=total)
    current_metrics().inc("snapshot.saves")
    current_metrics().inc("snapshot.saved_bytes", total)
    return path


def _read_manifest(path: Path, buf) -> tuple[dict, int]:
    """Parse and validate the header; returns (manifest, data_start)."""
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
    if manifest.get("version") != 1:
        raise ValueError(
            f"{path}: unsupported snapshot version {manifest.get('version')!r}"
        )
    return manifest, _align(_HEADER.size + length)


def read_snapshot_manifest(path: str | Path) -> dict:
    """Read and validate only the header + JSON manifest of a snapshot.

    Never touches the array data, so it stays cheap on week-scale
    snapshots. Raises :class:`ValueError` on anything that is not a
    well-formed version-1 snapshot and :class:`OSError` when the file
    cannot be read.
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
        if recorded.get(field) != current[field]:
            return (
                f"source trace {label} does not match the snapshot's "
                f"recorded source ({current[field]!r} != "
                f"{recorded.get(field)!r})"
            )
    return None


def _verify_content(path: Path, buf, manifest: dict, data_start: int) -> None:
    """Re-hash the data section against the manifest's content stamp.

    Snapshots written before the stamp existed carry no
    ``content_sha256`` and are accepted unverified (there is nothing to
    verify against). A mismatch means the array bytes on disk are not
    the bytes that were saved — bit-rot, truncation past the manifest,
    or a partial overwrite — and raises :class:`ValueError` like every
    other corruption.
    """
    recorded = manifest.get("content_sha256")
    if recorded is None:
        return
    length = int(manifest.get("content_bytes", len(buf) - data_start))
    if data_start + length > len(buf):
        raise ValueError(
            f"{path}: truncated snapshot (data section ends past EOF)"
        )
    digest = hashlib.sha256(
        memoryview(buf)[data_start : data_start + length]
    ).hexdigest()
    if digest != recorded:
        raise ValueError(
            f"{path}: corrupted snapshot (content sha256 mismatch: "
            f"{digest[:12]} != recorded {recorded[:12]}); rebuild it"
        )


def snapshot_content_sha256(path: str | Path) -> str:
    """The content-address of a snapshot's array payload.

    Returns the ``content_sha256`` stamped into the manifest at save
    time — a manifest-only read, never touching the array bytes. For
    pre-stamp snapshots the data section is hashed on the fly (one
    sequential pass), so every readable snapshot has a content address.
    Raises :class:`ValueError`/:class:`OSError` on unreadable or
    malformed snapshots.
    """
    path = Path(path)
    manifest = read_snapshot_manifest(path)
    stamped = manifest.get("content_sha256")
    if stamped is not None:
        return str(stamped)
    with open(path, "rb") as f:
        buf = f.read()
    _, data_start = _read_manifest(path, buf)
    return hashlib.sha256(memoryview(buf)[data_start:]).hexdigest()


def load_substrate(
    path: str | Path, mmap: bool = True, verify: bool = True
) -> AnalysisSubstrate:
    """Load a substrate saved by :func:`save_substrate`.

    ``mmap=True`` (default) maps the file read-only and restores every
    array as a zero-copy view — milliseconds regardless of trace size,
    with pages faulted in on first touch. ``mmap=False`` reads the file
    into memory instead (use when the file may be replaced while the
    substrate is alive). ``verify=True`` (default) re-hashes the data
    section against the manifest's ``content_sha256`` stamp, so silent
    bit-rot surfaces as an error instead of corrupt analysis results;
    pass ``verify=False`` to keep the load lazy (one manifest read, no
    page faults) when the bytes are trusted. Raises
    :class:`ValueError` on corrupted, truncated, or version-mismatched
    snapshots; on any failure the mapping (and file handle) is closed
    before the error propagates.
    """
    path = Path(path)
    tracer = current_tracer()
    with open(path, "rb") as f:
        if mmap:
            buf = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
        else:
            buf = f.read()
    try:
        with tracer.span(
            "snapshot.load", path=str(path), bytes=len(buf), mmap=mmap,
            verify=verify,
        ):
            if verify:
                manifest, data_start = _read_manifest(path, buf)
                _verify_content(path, buf, manifest, data_start)
            substrate = _restore_from_buffer(path, buf)
    except Exception:
        if isinstance(buf, _mmap.mmap):
            try:
                buf.close()
            except BufferError:  # pragma: no cover - traceback-held views
                pass
        raise
    current_metrics().inc("snapshot.loads")
    current_metrics().inc("snapshot.loaded_bytes", len(buf))
    return substrate


def _restore_from_buffer(path: Path, buf) -> AnalysisSubstrate:
    """Rebuild the substrate from a snapshot's raw bytes/mapping."""
    manifest, data_start = _read_manifest(path, buf)

    arrays = {}
    for entry in manifest["arrays"]:
        key = tuple(entry["key"])
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        offset = data_start + entry["offset"]
        if offset + count * dtype.itemsize > len(buf):
            raise ValueError(
                f"{path}: truncated snapshot (array {key} extends past EOF)"
            )
        arrays[key] = np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    schema = AttributeSchema(names=tuple(manifest["schema"]))
    table = table_from_arrays(schema, manifest["vocabs"], arrays)
    if len(table) != manifest["n_rows"]:
        raise ValueError(
            f"{path}: corrupted snapshot (row count mismatch: "
            f"{len(table)} != {manifest['n_rows']})"
        )
    codec = KeyCodec.from_table(table)
    if (
        codec.widths.tolist() != manifest["widths"]
        or codec.offsets.tolist() != manifest["codec_offsets"]
    ):
        raise ValueError(
            f"{path}: corrupted snapshot (key layout does not match the "
            "vocabularies)"
        )
    index = index_from_arrays(table, codec, arrays)
    return AnalysisSubstrate(index=index, build_seconds=0.0)
