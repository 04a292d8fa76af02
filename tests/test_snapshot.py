"""Snapshot provenance, staleness detection, load-failure hygiene,
manifest checking and atomic replacement."""

import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core.substrate import AnalysisSubstrate
from repro.io.binary import write_sessions_npz
from repro.io.snapshot import (
    MAGIC,
    load_substrate,
    read_snapshot_manifest,
    save_substrate,
    snapshot_staleness,
    source_record,
)
from repro.trace.generator import generate_trace
from repro.trace.workloads import StandardWorkloads


@pytest.fixture(scope="module")
def trace_table():
    return generate_trace(StandardWorkloads.by_name("tiny", seed=5)).table


@pytest.fixture(scope="module")
def substrate(trace_table):
    return AnalysisSubstrate.build(trace_table)


@pytest.fixture
def source_path(tmp_path, trace_table):
    path = tmp_path / "trace.npz"
    write_sessions_npz(trace_table, path)
    return path


class TestProvenance:
    def test_manifest_records_source_and_schema(
        self, tmp_path, substrate, source_path
    ):
        path = save_substrate(substrate, tmp_path / "s.sub", source=source_path)
        manifest = read_snapshot_manifest(path)
        assert manifest["source"] == source_record(source_path)
        assert len(manifest["schema_sha256"]) == 64

    def test_fresh_snapshot_is_not_stale(self, tmp_path, substrate, source_path):
        path = save_substrate(substrate, tmp_path / "s.sub", source=source_path)
        assert snapshot_staleness(path, source_path) is None
        # Without a source to compare against, readability is the only check.
        assert snapshot_staleness(path) is None

    def test_source_mtime_drift_is_stale(self, tmp_path, substrate, source_path):
        path = save_substrate(substrate, tmp_path / "s.sub", source=source_path)
        os.utime(source_path, ns=(1, 1))
        reason = snapshot_staleness(path, source_path)
        assert reason is not None and "does not match" in reason

    def test_source_size_drift_is_stale(self, tmp_path, substrate, source_path):
        path = save_substrate(substrate, tmp_path / "s.sub", source=source_path)
        st = source_path.stat()
        with open(source_path, "ab") as f:
            f.write(b"x")
        os.utime(source_path, ns=(st.st_mtime_ns, st.st_mtime_ns))
        reason = snapshot_staleness(path, source_path)
        assert reason is not None and "does not match" in reason

    def test_snapshot_without_source_is_stale_vs_source(
        self, tmp_path, substrate, source_path
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        reason = snapshot_staleness(path, source_path)
        assert reason is not None and "does not match" in reason

    def test_corrupt_snapshot_reports_unreadable(self, tmp_path, source_path):
        path = tmp_path / "s.sub"
        path.write_bytes(b"not a snapshot at all")
        reason = snapshot_staleness(path, source_path)
        assert reason is not None and "unreadable" in reason

    def test_truncated_manifest_reports_unreadable(
        self, tmp_path, substrate, source_path
    ):
        path = save_substrate(substrate, tmp_path / "s.sub", source=source_path)
        path.write_bytes(path.read_bytes()[:12])
        assert snapshot_staleness(path, source_path) is not None


class TestLoadHygiene:
    def test_load_without_source_still_round_trips(self, tmp_path, substrate):
        path = save_substrate(substrate, tmp_path / "s.sub")
        loaded = load_substrate(path)
        assert len(loaded.table) == len(substrate.table)
        np.testing.assert_array_equal(
            loaded.index.leaf_keys, substrate.index.leaf_keys
        )

    def test_corrupt_load_raises_without_resource_warning(
        self, tmp_path, substrate
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        raw = bytearray(path.read_bytes())
        # Truncate the data section: manifest parses, arrays run past EOF.
        path.write_bytes(bytes(raw[: len(raw) // 2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ValueError):
                load_substrate(path)
            import gc

            gc.collect()

    def test_bad_magic_raises_value_error(self, tmp_path, substrate):
        path = save_substrate(substrate, tmp_path / "s.sub")
        raw = bytearray(path.read_bytes())
        raw[:8] = b"BADMAGIC"
        path.write_bytes(bytes(raw))
        assert MAGIC not in raw[:8]
        with pytest.raises(ValueError):
            load_substrate(path)
        with pytest.raises(ValueError):
            read_snapshot_manifest(path)


class TestContentAddress:
    """The payload content stamp: written at save time, verified at
    load time, and the key component of the result cache."""

    def test_manifest_carries_content_stamp(self, tmp_path, substrate):
        from repro.io.snapshot import snapshot_content_sha256

        path = save_substrate(substrate, tmp_path / "s.sub")
        manifest = read_snapshot_manifest(path)
        stamp = manifest["content_sha256"]
        assert len(stamp) == 64
        assert manifest["content_bytes"] > 0
        assert snapshot_content_sha256(path) == stamp

    def test_stamp_is_deterministic_across_saves(self, tmp_path, substrate):
        from repro.io.snapshot import snapshot_content_sha256

        a = save_substrate(substrate, tmp_path / "a.sub")
        b = save_substrate(substrate, tmp_path / "b.sub")
        assert snapshot_content_sha256(a) == snapshot_content_sha256(b)

    def test_flipped_payload_byte_fails_verification(
        self, tmp_path, substrate
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # last array byte, far past the manifest
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="content"):
            load_substrate(path)

    def test_intact_snapshot_loads_with_verification(
        self, tmp_path, substrate
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        loaded = load_substrate(path)
        assert len(loaded.table) == len(substrate.table)


def rewrite_manifest(path, edit) -> None:
    """Re-encode a snapshot's manifest after ``edit(manifest)``, moving
    the data section to the first aligned offset after it."""
    raw = path.read_bytes()
    _, length = struct.unpack_from("<8sQ", raw)
    manifest = json.loads(raw[16 : 16 + length])
    data = raw[-(-(16 + length) // 64) * 64 :]
    edit(manifest)
    payload = json.dumps(manifest).encode("utf-8")
    start = -(-(16 + len(payload)) // 64) * 64
    path.write_bytes(
        struct.pack("<8sQ", MAGIC, len(payload)) + payload
        + bytes(start - 16 - len(payload)) + data
    )


def _drop(field):
    return lambda manifest: manifest.pop(field)


def _set(field, value):
    return lambda manifest: manifest.__setitem__(field, value)


def _drop_array_field(manifest):
    del manifest["arrays"][0]["dtype"]


class TestManifestFields:
    """A manifest that parses but lacks a field, or holds one of the
    wrong type, is a ``ValueError`` naming the file, never a
    ``KeyError`` or ``TypeError`` from deep in the loader."""

    @pytest.mark.parametrize("edit", [
        _drop("n_rows"),
        _drop("schema"),
        _drop("vocabs"),
        _drop("content_sha256"),
        _drop("content_bytes"),
        _drop("arrays"),
        _set("n_rows", "12"),
        _set("n_rows", True),
        _set("vocabs", "asn"),
        _set("source", "trace.npz"),
        _drop_array_field,
    ], ids=[
        "no-n_rows", "no-schema", "no-vocabs", "no-content_sha256",
        "no-content_bytes", "no-arrays", "n_rows-string", "n_rows-bool",
        "vocabs-string", "source-string", "array-without-dtype",
    ])
    def test_malformed_manifest_raises_value_error_naming_the_file(
        self, tmp_path, substrate, edit
    ):
        from repro.io.snapshot import snapshot_content_sha256

        path = save_substrate(substrate, tmp_path / "s.sub")
        rewrite_manifest(path, edit)
        for read in (load_substrate, read_snapshot_manifest,
                     snapshot_content_sha256):
            with pytest.raises(ValueError, match=str(path)):
                read(path)
        assert "unreadable" in snapshot_staleness(path)

    def test_rewritten_manifest_still_loads(self, tmp_path, substrate):
        """The helper itself moves the data section correctly."""
        path = save_substrate(substrate, tmp_path / "s.sub")
        rewrite_manifest(path, _set("schema_sha256", "0" * 64))
        assert len(load_substrate(path).table) == len(substrate.table)

    def test_arrays_are_the_table_columns(self, tmp_path, substrate):
        from repro.core.sessions import METRIC_COLUMNS

        path = save_substrate(substrate, tmp_path / "s.sub")
        manifest = read_snapshot_manifest(path)
        assert [e["key"] for e in manifest["arrays"]] == ["codes", *METRIC_COLUMNS]
        assert not {"version", "widths", "codec_offsets", "extra"} & set(manifest)


class TestAtomicReplace:
    def test_save_over_a_mapped_snapshot_keeps_the_mapping(
        self, tmp_path, trace_table
    ):
        """Saving over a path that a live substrate maps replaces the
        file, so the mapping keeps reading the bytes it was loaded from
        (a rewrite in place would cut the file under it: SIGBUS)."""
        path = save_substrate(
            AnalysisSubstrate(trace_table), tmp_path / "s.sub"
        )
        child = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.sessions import METRIC_COLUMNS\n"
            "from repro.core.substrate import AnalysisSubstrate\n"
            "from repro.io.snapshot import load_substrate, save_substrate\n"
            "path = sys.argv[1]\n"
            "live = load_substrate(path).table\n"
            "cols = ('codes',) + METRIC_COLUMNS\n"
            "before = [getattr(live, c).copy() for c in cols]\n"
            "save_substrate(AnalysisSubstrate(live.select(np.arange(3))), path)\n"
            "for col, old in zip(cols, before):\n"
            "    assert np.array_equal(getattr(live, col), old, equal_nan=True), col\n"
            "assert len(load_substrate(path).table) == 3\n"
        )
        from tests.test_cli import _cli_env

        done = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            env=_cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.sub"]
