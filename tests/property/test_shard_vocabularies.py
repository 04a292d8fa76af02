"""Shards whose vocabularies differ, merged by label identity.

A streamed store (:class:`ShardStoreBuilder`) codes each shard's labels
in its own arrival order, so the same cluster has different packed keys
in different shards, and the field widths differ where a vocabulary
crosses a power of two. The merge keeps every shard's keys against its
own codec; identity across shards is label identity. These tests build
such stores and pin the merged analysis, cold and warm through the
result cache, to the monolithic one: epochs, ordered timelines,
attribution totals and the report text. Labels arrive in one global
order here (each shard's codes keep their relative order), because
within an epoch clusters are listed in cluster-id order, which follows
the codes.

A store whose shards each fit the 62-bit packing but whose union does
not has no monolithic analysis; its merge must equal the shards' own
analyses, concatenated.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.report import build_report
from repro.core.attributes import DEFAULT_ATTRIBUTES
from repro.core.aggregation import KeyCodec
from repro.core.pipeline import analyze_trace
from repro.core.resultcache import ResultCache
from repro.core.sessions import SessionTable
from repro.core.shards import ShardStoreBuilder, _analyze_shard_configs, analyze_shards
from tests.conftest import make_session
from tests.core.dict_results import assert_epochs_match, assert_matches_dicts
from tests.property.test_parallel_equivalence import SMALL_CONFIG
from tests.property.test_shard_equivalence import assert_equal_timelines

EPOCHS_PER_SHARD = 2


def epoch_labels(epoch: int) -> dict[str, list[str]]:
    """Each attribute's labels in ``epoch``, in the one global order."""
    shard = epoch // EPOCHS_PER_SHARD
    return {
        # AS_late first appears in the last shard.
        "asn": ["AS0", "AS1"] + (["AS_late"] if shard == 2 else []),
        # c_mid appears in the middle shard only.
        "cdn": ["c0", "c1"] + (["c_mid"] if shard == 1 else []),
        # 2, 3 and 5 sites: 1-, 2- and 3-bit fields.
        "site": [f"s{i}" for i in range((2, 3, 5)[shard])],
    }


#: Join-failure probability by label; every other session fails at 5%.
BAD = {"AS_late": 0.7, "c_mid": 0.7, "s4": 0.6}


def epoch_sessions(epoch: int, rng, n: int = 240) -> list:
    labels = epoch_labels(epoch)
    out = []
    for i in range(n):
        attrs = {
            "asn": labels["asn"][i % len(labels["asn"])],
            "cdn": labels["cdn"][(i // 2) % len(labels["cdn"])],
            "site": labels["site"][(i // 3) % len(labels["site"])],
        }
        fail_p = max([0.05] + [BAD.get(v, 0.0) for v in attrs.values()])
        out.append(
            make_session(
                start_time=epoch * 3600.0 + i * 3600.0 / n,
                join_failed=bool(rng.random() < fail_p),
                **attrs,
            )
        )
    return out


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """The monolithic table and a store streamed one epoch per chunk."""
    rng = np.random.default_rng(5)
    chunks = [epoch_sessions(e, rng) for e in range(6)]
    path = tmp_path_factory.mktemp("vocab") / "store"
    builder = ShardStoreBuilder(path, epochs_per_shard=EPOCHS_PER_SHARD)
    for chunk in chunks:
        builder.append(SessionTable.from_sessions(chunk))
    store = builder.finalize()
    table = SessionTable.from_sessions([s for chunk in chunks for s in chunk])
    return table, store


def test_shards_really_differ(streamed):
    _, store = streamed
    vocabs = [store.load_shard(i).table.vocabs for i in range(len(store.shards))]
    asn, cdn, site = (DEFAULT_ATTRIBUTES.index(a) for a in ("asn", "cdn", "site"))
    assert ["AS_late" in v[asn] for v in vocabs] == [False, False, True]
    assert ["c_mid" in v[cdn] for v in vocabs] == [False, True, False]
    widths = [KeyCodec(store.schema, v).widths[site] for v in vocabs]
    assert widths == [1, 2, 3]


def test_merged_equals_monolithic(streamed, tmp_path):
    table, store = streamed
    monolithic = analyze_trace(table, config=SMALL_CONFIG)
    ma = monolithic["join_failure"]
    flagged = {v for key in ma.problem_timelines() for _, v in key.pairs}
    assert {"AS_late", "c_mid", "s4"} <= flagged
    cache = ResultCache(tmp_path / "rc")
    for run in ("cold", "warm"):
        merged = analyze_shards(store, config=SMALL_CONFIG, result_cache=cache)
        assert cache.stats().entries == len(store.shards), run
        for name in monolithic.metric_names:
            assert_epochs_match(merged[name].epochs, monolithic[name].epochs)
            assert list(merged[name].critical_attribution_totals().items()) == list(
                monolithic[name].critical_attribution_totals().items()
            )
        assert_equal_timelines(monolithic, merged)
        assert build_report(table, merged) == build_report(table, monolithic)


def wide_sessions(epoch: int, first: int, rng) -> list:
    """256 sessions with labels ``first``..``first + 255`` on every
    attribute (an 8-bit field each), then 120 on label ``first`` that
    fail half the time."""
    def attrs(i):
        return {name: f"{name}{first + i}" for name in DEFAULT_ATTRIBUTES}

    out = [
        make_session(start_time=epoch * 3600.0 + i, **attrs(i)) for i in range(256)
    ]
    out += [
        make_session(
            start_time=epoch * 3600.0 + 300 + i,
            join_failed=bool(rng.random() < 0.5),
            **attrs(0),
        )
        for i in range(120)
    ]
    return out


def test_merge_past_the_packing_limit_of_the_union(tmp_path):
    rng = np.random.default_rng(9)
    builder = ShardStoreBuilder(tmp_path / "store", epochs_per_shard=1)
    chunks = [wide_sessions(0, 0, rng), wide_sessions(1, 256, rng)]
    for chunk in chunks:
        builder.append(SessionTable.from_sessions(chunk))
    store = builder.finalize()
    assert len(store.shards) == 2
    # Each shard packs in 7 x 8 = 56 bits; the union would need 7 x 9.
    with pytest.raises(ValueError, match="62"):
        KeyCodec.layout([512] * len(DEFAULT_ATTRIBUTES))

    parts = [_analyze_shard_configs(store, i, [SMALL_CONFIG])[0] for i in range(2)]
    expected = [
        dataclasses.replace(e, epoch=info.epoch_lo + e.epoch)
        for info, part in zip(store.shards, parts)
        for e in part["join_failure"].epochs
    ]
    assert sum(e.n_critical_clusters for e in expected) >= 2
    cache = ResultCache(tmp_path / "rc")
    for _ in ("cold", "warm"):
        merged = analyze_shards(store, config=SMALL_CONFIG, result_cache=cache)
        assert_matches_dicts(merged["join_failure"], expected)
