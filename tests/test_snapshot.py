"""Snapshot provenance, staleness detection, load-failure hygiene, and
compatibility with the older per-mask snapshot layout."""

import hashlib
import json
import os
import struct
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

    @pytest.mark.parametrize("mmap", [True, False])
    def test_corrupt_load_raises_without_resource_warning(
        self, tmp_path, substrate, mmap
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        raw = bytearray(path.read_bytes())
        # Truncate the data section: manifest parses, arrays run past EOF.
        path.write_bytes(bytes(raw[: len(raw) // 2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ValueError):
                load_substrate(path, mmap=mmap)
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

    def test_verify_opt_out_skips_the_check(self, tmp_path, substrate):
        path = save_substrate(substrate, tmp_path / "s.sub")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        loaded = load_substrate(path, verify=False)
        assert len(loaded.table) == len(substrate.table)

    def test_intact_snapshot_loads_with_verification(
        self, tmp_path, substrate
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        loaded = load_substrate(path, verify=True)
        assert len(loaded.table) == len(substrate.table)

    def test_pre_stamp_manifest_is_accepted_unverified(self):
        from repro.io.snapshot import _verify_content

        # Snapshots written before the stamp existed carry no
        # content_sha256 — nothing to verify against, never an error.
        _verify_content(
            __import__("pathlib").Path("old.sub"), b"anything", {}, 0
        )


def legacy_lattice(index) -> tuple[dict, dict[int, int], list[int]]:
    """The per-mask state older snapshots persisted beside the leaves:
    cluster tables, leaf -> cluster inverses, one-attribute lattice
    projections and the fold tables."""
    codec = index.codec
    field_masks, full = codec.field_masks(), codec.full_mask
    arrays, mask_keys = {}, {full: index.leaf_keys}
    arrays[("index", "mask_keys", full)] = index.leaf_keys
    arrays[("index", "leaf_to_cluster", full)] = np.arange(
        index.leaf_keys.size, dtype=np.int32
    )
    for m in range(1, full):
        keys, inverse = np.unique(index.leaf_keys & field_masks[m], return_inverse=True)
        mask_keys[m] = keys
        arrays[("index", "mask_keys", m)] = keys
        arrays[("index", "leaf_to_cluster", m)] = inverse.astype(np.int32)
    fold_source = {}
    for m in range(1, full):
        finer = [m | 1 << i for i in range(codec.n_attrs) if not m >> i & 1]
        fold_source[m] = min(finer, key=lambda f: mask_keys[f].size)
        for f in finer:
            arrays[("index", "project", f, m)] = np.searchsorted(
                mask_keys[m], mask_keys[f] & field_masks[m]
            ).astype(np.int32)
    fold_order = sorted(range(1, full), key=lambda m: -bin(m).count("1"))
    return arrays, fold_source, fold_order


def to_legacy_layout(path) -> None:
    """Rewrite a snapshot in place in the older layout: the per-mask
    arrays appended to the data section, fold tables in the manifest,
    and a content stamp over the grown data section."""
    raw = path.read_bytes()
    _, length = struct.unpack_from("<8sQ", raw)
    manifest = json.loads(raw[16 : 16 + length])
    start = -(-(16 + length) // 64) * 64
    data = bytearray(raw[start : start + manifest["content_bytes"]])
    arrays, fold_source, fold_order = legacy_lattice(load_substrate(path).index)
    for key, arr in arrays.items():
        offset = -(-len(data) // 64) * 64
        data += bytes(offset - len(data)) + arr.tobytes()
        manifest["arrays"].append({
            "key": list(key), "dtype": arr.dtype.str,
            "shape": list(arr.shape), "offset": offset,
        })
    manifest["fold_source"] = [[m, s] for m, s in fold_source.items()]
    manifest["fold_order"] = fold_order
    manifest["content_sha256"] = hashlib.sha256(data).hexdigest()
    manifest["content_bytes"] = len(data)
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    start = -(-(16 + len(payload)) // 64) * 64
    path.write_bytes(
        struct.pack("<8sQ", MAGIC, len(payload)) + payload
        + bytes(start - 16 - len(payload)) + bytes(data)
    )


class TestLegacyLayout:
    """Snapshots and shard stores written before the index became
    leaf-only still load, verify and analyze to the same results."""

    def test_snapshot_loads_verifies_and_analyzes_identically(
        self, tmp_path, substrate
    ):
        from repro.core.pipeline import AnalysisConfig
        from tests.property.test_parallel_equivalence import assert_equal_analyses

        path = save_substrate(substrate, tmp_path / "s.sub")
        to_legacy_layout(path)
        manifest = read_snapshot_manifest(path)
        assert "fold_source" in manifest
        assert any(e["key"][1] == "project" for e in manifest["arrays"])

        loaded = load_substrate(path, verify=True)
        np.testing.assert_array_equal(
            loaded.index.row_to_leaf, substrate.index.row_to_leaf
        )
        config = AnalysisConfig()
        assert_equal_analyses(substrate.analyze(config), loaded.analyze(config))

    def test_corrupted_legacy_snapshot_still_fails_verification(
        self, tmp_path, substrate
    ):
        path = save_substrate(substrate, tmp_path / "s.sub")
        to_legacy_layout(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # inside the last legacy projection array
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="content"):
            load_substrate(path)

    def test_shard_store_analyzes_identically(self, tmp_path):
        from repro.core.pipeline import analyze_trace
        from repro.core.resultcache import ResultCache
        from repro.core.shards import ShardStore, analyze_shards, build_shard_store
        from tests.property.test_parallel_equivalence import (
            ALL_METRICS_CONFIG,
            assert_equal_analyses,
            build_table,
        )

        table = build_table(
            [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3) for a in range(30)]
        )
        store = build_shard_store(table, tmp_path / "store", n_shards=3)
        for i in range(len(store.shards)):
            to_legacy_layout(store.shard_path(i))
        store = ShardStore.open(store.path)
        expected = analyze_trace(table, config=ALL_METRICS_CONFIG, grid=store.grid)
        cache = ResultCache(tmp_path / "rc")
        for _ in range(2):  # cold, then warm from the cache
            assert_equal_analyses(
                expected,
                analyze_shards(store, config=ALL_METRICS_CONFIG, result_cache=cache),
            )
