"""Cached-vs-uncached equivalence of the sharded analysis pipeline.

The result cache must be invisible in the output: for any trace, shard
count and config, ``analyze_shards``/``sweep_shards`` with a
``ResultCache`` — cold, warm, partially evicted, serial or parallel —
return results structurally identical to the uncached run. These tests
pin that invariant, plus the incremental-invalidation contract: after
appending a day of sessions via :class:`ShardStoreBuilder`, a warm run
misses only on the genuinely new shards.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.metrics import MetricThresholds
from repro.core.resultcache import ENTRY_SUFFIX, ResultCache
from repro.core.sessions import SessionTable
from repro.core.shards import (
    ShardStoreBuilder,
    analyze_shards,
    build_shard_store,
    sweep_shards,
)
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import make_session
from tests.property.test_parallel_equivalence import (
    ALL_METRICS_CONFIG,
    SMALL_CONFIG,
    assert_equal_analyses,
    build_table,
    session_rows,
)
from tests.property.test_shard_equivalence import assert_equal_timelines

#: A second sweep variant that changes results (and hence cache keys).
SCALED_CONFIG = dataclasses.replace(
    SMALL_CONFIG, thresholds=MetricThresholds().scaled(2.0)
)


def cached_run(store, configs, cache, workers=None):
    """Sweep under ``cache``, returning (analyses, cache counters)."""
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        analyses = sweep_shards(
            store, configs, workers=workers, result_cache=cache
        )
    return analyses, metrics


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, st.integers(1, 3))
def test_cold_and_warm_cached_equal_uncached(rows, n_shards):
    table = build_table(rows)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_shard_store(table, Path(tmp) / "s", n_shards=n_shards)
        cache = ResultCache(Path(tmp) / "rc")
        uncached = sweep_shards(store, [SMALL_CONFIG])

        (cold,), m_cold = cached_run(store, [SMALL_CONFIG], cache)
        (warm,), m_warm = cached_run(store, [SMALL_CONFIG], cache)

        assert_equal_analyses(cold, uncached[0])
        assert_equal_analyses(warm, uncached[0])
        assert m_cold.get("cache.miss") == len(store.shards)
        assert m_cold.get("cache.hit") == 0
        assert m_warm.get("cache.hit") == len(store.shards)
        assert m_warm.get("cache.miss") == 0


def test_all_metrics_cached_equals_uncached(tiny_trace, tmp_path):
    """Four-metric equality on a generated trace with planted events."""
    store = build_shard_store(
        tiny_trace.table, tmp_path / "s", epochs_per_shard=7,
        grid=tiny_trace.grid,
    )
    cache = ResultCache(tmp_path / "rc")
    uncached = analyze_shards(store, ALL_METRICS_CONFIG)
    cold = analyze_shards(store, ALL_METRICS_CONFIG, result_cache=cache)
    warm = analyze_shards(store, ALL_METRICS_CONFIG, result_cache=cache)
    assert_equal_analyses(cold, uncached)
    assert_equal_analyses(warm, uncached)
    # equality is not vacuous: the planted structure exists
    assert any(
        e.n_critical_clusters
        for ma in warm.metrics.values()
        for e in ma.epochs
    )


def test_entries_hold_only_epochs(tiny_trace, tiny_analysis, tmp_path):
    """Entries store each shard's epoch summaries and no timelines; cold
    and warm merges derive timelines equal to the monolithic run's, keys
    in the same order."""
    store = build_shard_store(
        tiny_trace.table, tmp_path / "s", epochs_per_shard=7,
        grid=tiny_trace.grid,
    )
    cache = ResultCache(tmp_path / "rc")
    cold = analyze_shards(store, result_cache=cache)
    entries = list((tmp_path / "rc").glob(f"*{ENTRY_SUFFIX}"))
    assert len(entries) == len(store.shards)
    for entry in entries:
        assert b"ClusterTimeline" not in entry.read_bytes()
    warm = analyze_shards(store, result_cache=cache)
    for merged in (cold, warm):
        assert_equal_analyses(merged, tiny_analysis)
        assert_equal_timelines(merged, tiny_analysis)


def test_sweep_shares_entries_across_overlapping_configs(tmp_path):
    table = build_table(
        [(e, a % 3, a % 2, (a + e) % 4 == 0) for e in range(3) for a in range(40)]
    )
    store = build_shard_store(table, tmp_path / "s", n_shards=3)
    cache = ResultCache(tmp_path / "rc")
    ref = sweep_shards(store, [SMALL_CONFIG, SCALED_CONFIG])

    # Cold sweep populates one entry per (shard, config).
    _, m_cold = cached_run(store, [SMALL_CONFIG, SCALED_CONFIG], cache)
    assert m_cold.get("cache.miss") == 2 * len(store.shards)

    # A different sweep overlapping on SMALL_CONFIG hits its entries.
    third = dataclasses.replace(
        SMALL_CONFIG, thresholds=MetricThresholds().scaled(0.5)
    )
    analyses, m_overlap = cached_run(store, [SMALL_CONFIG, third], cache)
    assert m_overlap.get("cache.hit") == len(store.shards)
    assert m_overlap.get("cache.miss") == len(store.shards)
    assert_equal_analyses(analyses[0], ref[0])
    assert_equal_analyses(analyses[1], sweep_shards(store, [third])[0])


@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(session_rows, st.integers(0, 5))
def test_eviction_induced_partial_hits(rows, n_evict):
    table = build_table(rows)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_shard_store(table, Path(tmp) / "s", n_shards=3)
        cache = ResultCache(Path(tmp) / "rc")
        uncached = analyze_shards(store, SMALL_CONFIG)
        analyze_shards(store, SMALL_CONFIG, result_cache=cache)

        entries = sorted((Path(tmp) / "rc").glob(f"*{ENTRY_SUFFIX}"))
        evicted = entries[: min(n_evict, len(entries))]
        for path in evicted:
            path.unlink()

        metrics = MetricsRegistry()
        with use_metrics(metrics):
            partial = analyze_shards(store, SMALL_CONFIG, result_cache=cache)
        assert_equal_analyses(partial, uncached)
        assert metrics.get("cache.miss") == len(evicted)
        assert metrics.get("cache.hit") == len(store.shards) - len(evicted)


def test_parallel_workers_with_partial_hits(tmp_path):
    table = build_table(
        [(e, a % 4, a % 2, (a + e) % 3 == 0) for e in range(3) for a in range(50)]
    )
    store = build_shard_store(table, tmp_path / "s", n_shards=3)
    cache = ResultCache(tmp_path / "rc")
    ref = sweep_shards(store, [SMALL_CONFIG, SCALED_CONFIG])
    cached_run(store, [SMALL_CONFIG], cache)  # prime one config only

    analyses, metrics = cached_run(
        store, [SMALL_CONFIG, SCALED_CONFIG], cache, workers=2
    )
    assert metrics.get("cache.hit") == len(store.shards)
    assert metrics.get("cache.miss") == len(store.shards)
    assert_equal_analyses(analyses[0], ref[0])
    assert_equal_analyses(analyses[1], ref[1])


# ---------------------------------------------------------------------------
# Incremental invalidation: append a day, recompute only the new shards
# ---------------------------------------------------------------------------
def day_chunk(day: int) -> SessionTable:
    """One deterministic day of sessions spanning all 24 hours."""
    return SessionTable.from_sessions(
        make_session(
            start_time=day * 86_400.0 + hour * 3_600.0 + 90.0 * (i % 3),
            asn=f"AS{(hour + i) % 4}",
            cdn=f"c{i % 2}",
            join_failed=(hour + i + day) % 5 == 0,
        )
        for hour in range(24)
        for i in range(6)
    )


def build_days(path, n_days: int):
    builder = ShardStoreBuilder(path, epochs_per_shard=24)
    for day in range(n_days):
        builder.append(day_chunk(day))
    return builder.finalize()


def test_append_day_recomputes_only_new_shards(tmp_path):
    cache = ResultCache(tmp_path / "rc")

    store_a = build_days(tmp_path / "a", 2)
    assert len(store_a.shards) == 2
    _, m_a = cached_run(store_a, [SMALL_CONFIG], cache)
    assert m_a.get("cache.miss") == 2

    # Same two days plus a fresh one, built into a new store: the
    # day-0/day-1 shard bytes are identical (same chunks, same order),
    # so only the day-2 shard misses.
    store_b = build_days(tmp_path / "b", 3)
    assert len(store_b.shards) == 3
    (analysis,), m_b = cached_run(store_b, [SMALL_CONFIG], cache)
    assert m_b.get("cache.hit") == 2
    assert m_b.get("cache.miss") == 1

    assert_equal_analyses(analysis, analyze_shards(store_b, SMALL_CONFIG))


def test_stores_sharing_a_shard_under_different_origins(tmp_path):
    """Two streaming-built stores at s = 0.1: store B holds store A's
    sessions, then a later chunk of earlier sessions, so B's origin is
    two epochs before A's. Their last shard has the same payload and the same
    shard-grid origin, but splits its rows differently: the session at
    t = 1268063.3 lies in the shard's local epoch 2 under A's origin
    and in epoch 1 under B's. Keys bind the split's digest, so B misses
    on that shard's entry; A's first shard, which B holds with the same
    split, hits. B's warm run equals its cold one."""
    config = dataclasses.replace(SMALL_CONFIG, epoch_seconds=0.1)

    def sessions(epochs):
        return [
            make_session(
                start_time=(e + 0.5) * 0.1, asn=f"AS{(e + i) % 3}",
                cdn=f"c{i % 2}", join_failed=(e + i) % 4 == 0,
            )
            for e in epochs
            for i in range(12)
        ]

    shared = sessions(range(12680628, 12680634)) + [
        make_session(start_time=1268063.3, asn="AS1", join_failed=True)
    ]
    stores = []
    for name, chunks in (("a", [shared]), ("b", [shared, sessions([12680626])])):
        builder = ShardStoreBuilder(
            tmp_path / name, epoch_seconds=0.1, epochs_per_shard=3
        )
        for chunk in chunks:
            builder.append(SessionTable.from_sessions(chunk))
        stores.append(builder.finalize())
    store_a, store_b = stores
    assert store_a.grid.origin != store_b.grid.origin
    assert store_a.shard_content_sha256(len(store_a.shards) - 1) == (
        store_b.shard_content_sha256(len(store_b.shards) - 1)
    )
    assert store_a.shard_grid(len(store_a.shards) - 1) == (
        store_b.shard_grid(len(store_b.shards) - 1)
    )

    assert store_a.shards[-1].split_sha256 != store_b.shards[-1].split_sha256
    assert store_a.shards[0].split_sha256 == store_b.shards[1].split_sha256

    cache = ResultCache(tmp_path / "rc")
    cached_run(store_a, [config], cache)
    (warm,), metrics = cached_run(store_b, [config], cache)
    assert metrics.get("cache.hit") == 1
    assert metrics.get("cache.miss") == 2
    assert_equal_analyses(warm, analyze_shards(store_b, config))


def test_store_rebuilt_with_an_earlier_day_keeps_its_shards(tmp_path):
    """A store of days 1-2 rebuilt as days 0-2 moves the store origin and
    every shard's ``epoch_lo``, but days 1 and 2 keep their payloads and
    their splits into local epochs, so both hit; the new day 0 misses,
    and the warm merge equals the cold one."""
    cache = ResultCache(tmp_path / "rc")
    builder = ShardStoreBuilder(tmp_path / "a", epochs_per_shard=24)
    for day in (1, 2):
        builder.append(day_chunk(day))
    store_a = builder.finalize()
    cached_run(store_a, [SMALL_CONFIG], cache)

    builder = ShardStoreBuilder(tmp_path / "b", epochs_per_shard=24)
    for day in (0, 1, 2):
        builder.append(day_chunk(day))
    store_b = builder.finalize()
    assert store_a.grid.origin != store_b.grid.origin
    assert [s.epoch_lo for s in store_b.shards[1:]] != [
        s.epoch_lo for s in store_a.shards
    ]
    assert [s.split_sha256 for s in store_b.shards[1:]] == [
        s.split_sha256 for s in store_a.shards
    ]

    (warm,), metrics = cached_run(store_b, [SMALL_CONFIG], cache)
    assert metrics.get("cache.hit") == 2
    assert metrics.get("cache.miss") == 1
    assert_equal_analyses(warm, analyze_shards(store_b, SMALL_CONFIG))


def test_changed_day_invalidates_its_shard(tmp_path):
    cache = ResultCache(tmp_path / "rc")
    store_a = build_days(tmp_path / "a", 2)
    cached_run(store_a, [SMALL_CONFIG], cache)

    # Rebuild with day 1's sessions altered: day 0 hits, day 1 misses.
    builder = ShardStoreBuilder(tmp_path / "b", epochs_per_shard=24)
    builder.append(day_chunk(0))
    altered = SessionTable.from_sessions(
        make_session(
            start_time=86_400.0 + hour * 3_600.0,
            asn="AS9",
            join_failed=True,
        )
        for hour in range(24)
    )
    builder.append(altered)
    store_b = builder.finalize()

    (analysis,), metrics = cached_run(store_b, [SMALL_CONFIG], cache)
    assert metrics.get("cache.hit") == 1
    assert metrics.get("cache.miss") == 1
    assert_equal_analyses(analysis, analyze_shards(store_b, SMALL_CONFIG))
