"""Unit tests for the content-addressed result cache.

Cached-vs-uncached analysis equivalence lives in
``tests/property/test_cache_equivalence.py``; this file covers the
cache's own durability contract: the entry file format round-trips,
every flavor of corruption degrades to a logged miss (never an
exception, never a wrong value), and LRU eviction respects the byte
cap deterministically.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.resultcache import (
    ENTRY_MAGIC,
    ENTRY_SUFFIX,
    RESULT_FORMAT_VERSION,
    CacheStats,
    ResultCache,
    shard_result_key,
)
from repro.core.shards import split_sha256
from repro.obs import MetricsRegistry, use_metrics


def key_n(i: int) -> str:
    return shard_result_key(
        payload_sha256=f"{i:064x}",
        schema_sha256="b" * 64,
        config_digest="c" * 64,
        split_sha256="d" * 64,
        n_epochs=24,
    )


class TestKey:
    def test_key_is_hex_sha256(self):
        key = key_n(0)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_key_is_deterministic(self):
        assert key_n(1) == key_n(1)

    @pytest.mark.parametrize(
        "override",
        [
            {"payload_sha256": "f" * 64},
            {"schema_sha256": "f" * 64},
            {"config_digest": "f" * 64},
            {"split_sha256": "f" * 64},
            {"n_epochs": 25},
            # an empty (gap) shard's split
            {"split_sha256": split_sha256(np.empty(0, dtype=np.int64))},
        ],
    )
    def test_every_component_changes_the_key(self, override):
        base = dict(
            payload_sha256="a" * 64,
            schema_sha256="b" * 64,
            config_digest="c" * 64,
            split_sha256="d" * 64,
            n_epochs=24,
        )
        assert shard_result_key(**base) != shard_result_key(
            **{**base, **override}
        )


class TestRoundTrip:
    def test_put_get_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        value = {"epochs": [1, 2, 3], "label": "x"}
        key = key_n(0)
        assert cache.get(key) is None
        assert cache.put(key, value) is True
        assert cache.get(key) == value

    def test_entry_file_format(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        key = key_n(0)
        cache.put(key, [1, 2, 3])
        blob = cache.entry_path(key).read_bytes()
        assert blob.startswith(ENTRY_MAGIC)
        assert cache.entry_path(key).suffix == ENTRY_SUFFIX
        # header carries the format version right after the magic
        version = int.from_bytes(blob[8:12], "little")
        assert version == RESULT_FORMAT_VERSION

    def test_put_overwrites_atomically(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        key = key_n(0)
        cache.put(key, "first")
        cache.put(key, "second")
        assert cache.get(key) == "second"
        leftovers = [
            p for p in (tmp_path / "rc").iterdir() if p.suffix != ENTRY_SUFFIX
        ]
        assert leftovers == []

    def test_unpicklable_value_degrades_not_raises(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            assert cache.put(key_n(0), lambda: None) is False
        assert metrics.get("degraded.cache_store_failed") == 1
        assert cache.get(key_n(0)) is None  # nothing half-written


def _corrupt_flip_last(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def _corrupt_truncate_header(path):
    path.write_bytes(path.read_bytes()[:10])


def _corrupt_truncate_payload(path):
    path.write_bytes(path.read_bytes()[:-5])


def _corrupt_magic(path):
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTCACHE"
    path.write_bytes(bytes(blob))


def _corrupt_version(path):
    blob = bytearray(path.read_bytes())
    blob[8:12] = (RESULT_FORMAT_VERSION + 1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))


class TestCorruptTolerance:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _corrupt_flip_last,
            _corrupt_truncate_header,
            _corrupt_truncate_payload,
            _corrupt_magic,
            _corrupt_version,
        ],
    )
    def test_corruption_is_a_degraded_miss(self, tmp_path, corrupt):
        cache = ResultCache(tmp_path / "rc")
        key = key_n(0)
        cache.put(key, {"x": 1})
        corrupt(cache.entry_path(key))
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            assert cache.get(key) is None
        assert metrics.get("cache.miss") == 1
        assert metrics.get("cache.hit") == 0
        assert metrics.get("degraded.cache_corrupt") == 1
        # the unusable entry is removed so it cannot degrade again
        assert not cache.entry_path(key).exists()

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            assert cache.get(key_n(9)) is None
        assert metrics.get("cache.miss") == 1
        assert metrics.get("degraded.cache_corrupt") == 0


class TestEviction:
    def fill(self, cache, n, payload_bytes=100):
        keys = [key_n(i) for i in range(n)]
        for i, key in enumerate(keys):
            cache.put(key, b"x" * payload_bytes)
            # deterministic, strictly increasing recency: key 0 oldest
            os.utime(cache.entry_path(key), (1_000 + i, 1_000 + i))
        return keys

    def entry_size(self, cache, key):
        return cache.entry_path(key).stat().st_size

    def test_evicts_lru_first_until_under_cap(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        keys = self.fill(cache, 5)
        size = self.entry_size(cache, keys[0])
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            evicted = cache.evict_to(3 * size)
        assert evicted == keys[:2]  # the two oldest
        assert cache.stats().total_bytes <= 3 * size
        assert metrics.get("cache.evict") == 2
        for key in keys[2:]:
            assert cache.get(key) is not None

    def test_hit_bumps_recency(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        keys = self.fill(cache, 3)
        assert cache.get(keys[0]) is not None  # utime bump: now newest
        os.utime(cache.entry_path(keys[0]), (2_000, 2_000))
        size = self.entry_size(cache, keys[0])
        evicted = cache.evict_to(2 * size)
        assert keys[0] not in evicted
        assert keys[1] in evicted

    def test_put_enforces_max_bytes(self, tmp_path):
        size = None
        cache = ResultCache(tmp_path / "rc")
        cache.put(key_n(0), b"x" * 100)
        size = self.entry_size(cache, key_n(0))
        capped = ResultCache(tmp_path / "rc2", max_bytes=2 * size)
        for i in range(4):
            capped.put(key_n(i), b"x" * 100)
        stats = capped.stats()
        assert stats.total_bytes <= 2 * size
        assert stats.entries <= 2

    def test_evict_to_zero_empties_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        keys = self.fill(cache, 3)
        assert sorted(cache.evict_to(0)) == sorted(keys)
        assert cache.stats() == CacheStats(
            entries=0, total_bytes=0, max_bytes=None
        )

    def test_negative_caps_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        with pytest.raises(ValueError, match="max_bytes"):
            cache.evict_to(-1)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path / "rc", max_bytes=-1)

    def test_stats_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never_created")
        assert cache.stats() == CacheStats(
            entries=0, total_bytes=0, max_bytes=None
        )
        assert cache.evict_to(0) == []
