"""Property-based tests of the attribute/cluster lattice and epoch views."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import (
    DEFAULT_SCHEMA,
    AttributeSchema,
    iter_submasks,
    popcount,
)
from repro.core.clusters import ClusterKey
from repro.core.index import TraceClusterIndex
from repro.core.metrics import JOIN_FAILURE
from repro.core.sessions import SessionTable
from tests.core.direct_aggregate import aggregate_epoch

FULL = DEFAULT_SCHEMA.full_mask

masks = st.integers(min_value=0, max_value=FULL)
nonempty_masks = st.integers(min_value=1, max_value=FULL)


@given(nonempty_masks)
def test_submasks_are_strict_subsets(mask):
    for sub in iter_submasks(mask):
        assert sub & mask == sub
        assert sub not in (0, mask)


@given(nonempty_masks)
def test_submask_count(mask):
    assert len(list(iter_submasks(mask))) == 2 ** popcount(mask) - 2


@given(masks)
def test_names_of_round_trip(mask):
    names = DEFAULT_SCHEMA.names_of(mask)
    assert DEFAULT_SCHEMA.mask_of(names) == mask


# -- ClusterKey properties ---------------------------------------------------
values = st.sampled_from(["v1", "v2", "v3"])
attr_maps = st.dictionaries(
    st.sampled_from(DEFAULT_SCHEMA.names), values, min_size=0, max_size=7
)


@given(attr_maps)
def test_key_round_trips_mapping(mapping):
    key = ClusterKey.from_mapping(mapping)
    assert key.as_dict() == mapping
    assert key.depth == len(mapping)


@given(attr_maps)
def test_ancestors_are_ancestors(mapping):
    key = ClusterKey.from_mapping(mapping)
    for ancestor in key.ancestors():
        assert ancestor.is_ancestor_of(key)
        assert not key.is_ancestor_of(ancestor)


@given(attr_maps)
def test_ancestor_count(mapping):
    key = ClusterKey.from_mapping(mapping)
    n = len(mapping)
    expected = max(2**n - 2, 0)
    assert len(list(key.ancestors())) == expected


@given(attr_maps, attr_maps)
def test_ancestor_relation_antisymmetric(m1, m2):
    k1 = ClusterKey.from_mapping(m1)
    k2 = ClusterKey.from_mapping(m2)
    assert not (k1.is_ancestor_of(k2) and k2.is_ancestor_of(k1))


@given(attr_maps)
def test_parents_have_depth_minus_one(mapping):
    key = ClusterKey.from_mapping(mapping)
    for parent in key.parents():
        assert parent.depth == key.depth - 1
        if parent.depth > 0:
            assert parent.is_ancestor_of(key)


@given(attr_maps)
def test_mask_matches_depth(mapping):
    key = ClusterKey.from_mapping(mapping)
    assert popcount(key.mask()) == key.depth


# -- Epoch views: the lattice of a row subset's active leaves ----------------
REGION_SCHEMA = AttributeSchema(names=DEFAULT_SCHEMA.names + ("region",))


def coded_table(schema: AttributeSchema, codes: np.ndarray) -> SessionTable:
    """A table over ``codes`` with placeholder labels and metrics."""
    n = codes.shape[0]
    vocabs = [
        [f"{name}{v}" for v in range(int(codes[:, i].max(initial=0)) + 1)]
        for i, name in enumerate(schema.names)
    ]
    zeros = np.zeros(n)
    return SessionTable(
        schema=schema, vocabs=vocabs, codes=codes, start_time=zeros,
        duration_s=zeros + 600.0, buffering_s=zeros, join_time_s=zeros + 2.0,
        bitrate_kbps=zeros + 2000.0, join_failed=np.zeros(n, dtype=bool),
    )


@st.composite
def tables_with_rows(draw):
    schema = draw(st.sampled_from([DEFAULT_SCHEMA, REGION_SCHEMA]))
    n = draw(st.integers(0, 40))
    flat = draw(st.lists(st.integers(0, 3), min_size=n * len(schema),
                         max_size=n * len(schema)))
    codes = np.asarray(flat, dtype=np.int32).reshape(n, len(schema))
    picked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return coded_table(schema, codes), np.flatnonzero(picked)


def assert_view_is_row_lattice(table: SessionTable, rows: np.ndarray) -> None:
    """The view over ``rows`` holds exactly the clusters of those rows,
    laid out flat in (mask, key) order, and ``aggregate_epoch`` lays
    the same rows out identically."""
    index = TraceClusterIndex.build(table)
    view = index.epoch_view(rows)
    lattice = view.lattice
    codec = index.codec
    packed = codec.pack(table.codes)[rows]
    field_masks = codec.field_masks()
    full = codec.full_mask
    for m in range(1, full + 1):
        np.testing.assert_array_equal(
            view.keys(m), np.unique(packed & field_masks[m])
        )
        np.testing.assert_array_equal(
            lattice.keys[lattice.leaf_cluster[m]], view.keys(full) & field_masks[m]
        )
    ids = np.arange(lattice.n_clusters)
    masks = lattice.mask_of(ids)
    # Each representative leaf lies in its cluster, and every cluster's
    # projection onto every strict submask is the ancestor its leaf names.
    np.testing.assert_array_equal(lattice.leaf_cluster[masks, lattice.rep_leaf], ids)
    owner, ancestor = lattice.ancestors(ids)
    np.testing.assert_array_equal(
        lattice.keys[ancestor],
        lattice.keys[owner] & field_masks[lattice.mask_of(ancestor)],
    )
    # Every rows subset here is valid for join failure (no failed joins),
    # so the direct path enumerates the same lattice.
    direct = aggregate_epoch(table, rows, JOIN_FAILURE).lattice
    np.testing.assert_array_equal(direct.keys, lattice.keys)
    np.testing.assert_array_equal(direct.starts, lattice.starts)
    np.testing.assert_array_equal(direct.leaf_cluster, lattice.leaf_cluster)


@settings(max_examples=30, deadline=None)
@given(tables_with_rows())
def test_view_keys_are_row_projections(case):
    table, rows = case
    assert_view_is_row_lattice(table, rows)


@pytest.mark.parametrize("schema", [DEFAULT_SCHEMA, REGION_SCHEMA],
                         ids=["7attrs", "8attrs"])
@pytest.mark.parametrize("rows", [[], [5], [0, 5, 9]], ids=["empty", "one", "three"])
def test_view_edge_row_sets(schema, rows):
    rng = np.random.default_rng(len(schema))
    codes = rng.integers(0, 4, size=(12, len(schema))).astype(np.int32)
    assert_view_is_row_lattice(coded_table(schema, codes), np.asarray(rows, dtype=np.int64))


def test_view_on_generated_region_trace():
    """The paper's §6 eighth attribute on a generated trace."""
    from repro.trace import StandardWorkloads, generate_trace

    table = generate_trace(StandardWorkloads.tiny_with_region(seed=3)).table
    assert len(table.schema) == 8
    epoch_of = np.floor(table.start_time / 3600.0).astype(np.int64)
    assert_view_is_row_lattice(table, np.flatnonzero(epoch_of == epoch_of[0]))


# -- The lattice's (cluster, ancestor) table against the mask relation -------
@functools.lru_cache(maxsize=None)
def one_session_lattice():
    """One session's lattice over the default schema: a single cluster
    on every non-empty mask ``m``, with id ``lattice.span(m).start``."""
    codes = np.zeros((1, len(DEFAULT_SCHEMA)), dtype=np.int32)
    table = coded_table(DEFAULT_SCHEMA, codes)
    return TraceClusterIndex.build(table).epoch_view(np.arange(1)).lattice


@given(masks)
def test_supermasks_are_strict_supersets(mask):
    """The clusters below ``mask``'s cluster sit on exactly its strict
    supermasks (below the root: every cluster, one per non-empty mask)."""
    lattice = one_session_lattice()
    owner, ancestor = lattice.pairs()
    if mask:
        below = owner[ancestor == lattice.span(mask).start]
    else:
        below = np.arange(lattice.n_clusters)
    sups = sorted(lattice.mask_of(below).tolist())
    assert sups == [s for s in range(FULL + 1) if s & mask == mask and s != mask]


@given(nonempty_masks, nonempty_masks)
def test_submask_supermask_duality(a, b):
    """a is a strict submask of b iff b's cluster lists a's among its
    ancestors in the lattice's table."""
    lattice = one_session_lattice()
    owner, ancestor = lattice.pairs()
    a_sub_b = a in set(iter_submasks(b))
    b_sup_a = bool(np.any(
        (owner == lattice.span(b).start) & (ancestor == lattice.span(a).start)
    ))
    assert a_sub_b == b_sup_a == (a & b == a and a != b)
