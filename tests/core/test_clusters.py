"""Tests for ClusterKey, the cluster lattice and Figure 4's DAG."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.core.clusters import ClusterKey, attribute_signature
from repro.core.index import TraceClusterIndex
from repro.core.sessions import SessionTable
from tests.conftest import make_session


def key(**pairs: str) -> ClusterKey:
    return ClusterKey.from_mapping(pairs)


class TestClusterKey:
    def test_pairs_canonical_schema_order(self):
        k = key(cdn="c1", asn="a1")
        assert k.pairs == (("asn", "a1"), ("cdn", "c1"))

    def test_equality_ignores_construction_order(self):
        assert key(cdn="c1", asn="a1") == key(asn="a1", cdn="c1")
        assert hash(key(cdn="c1", asn="a1")) == hash(key(asn="a1", cdn="c1"))

    def test_unknown_attribute_rejected(self):
        with pytest.raises(KeyError, match="not in schema"):
            key(geography="us")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterKey((("asn", "a1"), ("asn", "a2")))

    def test_root(self):
        root = ClusterKey.root()
        assert root.depth == 0
        assert root.label() == "[root]"

    def test_depth_and_attributes(self):
        k = key(site="s1", cdn="c1", asn="a1")
        assert k.depth == 3
        assert k.attributes == ("asn", "cdn", "site")

    def test_value_of(self):
        k = key(cdn="c1")
        assert k.value_of("cdn") == "c1"
        with pytest.raises(KeyError):
            k.value_of("asn")

    def test_mask(self):
        k = key(asn="a1", site="s1")
        expected = DEFAULT_SCHEMA.mask_of(["asn", "site"])
        assert k.mask() == expected

    def test_ancestor_relation(self):
        parent = key(asn="a1")
        child = key(asn="a1", cdn="c1")
        assert parent.is_ancestor_of(child)
        assert child.is_descendant_of(parent)
        assert not child.is_ancestor_of(parent)

    def test_ancestor_requires_agreeing_values(self):
        assert not key(asn="a2").is_ancestor_of(key(asn="a1", cdn="c1"))

    def test_ancestor_is_strict(self):
        k = key(asn="a1")
        assert not k.is_ancestor_of(k)

    def test_parents_drop_one_attribute(self):
        k = key(asn="a1", cdn="c1", site="s1")
        parents = set(k.parents())
        assert parents == {
            key(cdn="c1", site="s1"),
            key(asn="a1", site="s1"),
            key(asn="a1", cdn="c1"),
        }

    def test_ancestors_excludes_root_and_self(self):
        k = key(asn="a1", cdn="c1")
        ancestors = set(k.ancestors())
        assert ancestors == {key(asn="a1"), key(cdn="c1")}

    def test_project(self):
        k = key(asn="a1", cdn="c1", site="s1")
        assert k.project(["cdn"]) == key(cdn="c1")
        assert k.project([]) == ClusterKey.root()

    def test_label(self):
        assert key(cdn="c1").label() == "[cdn=c1]"

    def test_paper_signature(self):
        k = key(site="s1", asn="a1")
        assert k.paper_signature() == "[asn, *, site, *, *, *, *]"

    def test_attribute_signature(self):
        assert attribute_signature(key(cdn="c1", asn="a1")) == ("asn", "cdn")


WALKTHROUGH = (
    Path(__file__).resolve().parents[2] / "examples" / "paper_figures_walkthrough.py"
)


def walkthrough_dag_edges(keys):
    """Figure 4's edge list as the walkthrough example builds it."""
    spec = importlib.util.spec_from_file_location(WALKTHROUGH.stem, WALKTHROUGH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.dag_edges(keys))


class TestClusterLattice:
    """The cluster lattice of one epoch, as :class:`EpochLattice` lays
    it out, and Figure 4's DAG over a set of keys."""

    SCHEMA = AttributeSchema(names=("a", "b", "c"))

    @pytest.fixture()
    def lattice(self):
        # Three sessions spelling their (a, b, c) values.
        sessions = [
            make_session(**dict(zip(self.SCHEMA.names, values)))
            for values in ("xxx", "yxz", "yyz")
        ]
        table = SessionTable.from_sessions(sessions, schema=self.SCHEMA)
        return TraceClusterIndex.build(table).epoch_view(np.arange(3)).lattice

    def test_masks_enumeration(self, lattice):
        masks = lattice.mask_of(np.arange(lattice.n_clusters)).tolist()
        assert sorted(set(masks)) == list(range(1, 8))
        assert masks == sorted(masks)  # grouped in ascending mask order

    def test_masks_by_depth(self, lattice):
        levels = [set() for _ in range(len(self.SCHEMA) + 1)]
        keys = lattice.keys_of(np.arange(lattice.n_clusters))
        masks = lattice.mask_of(np.arange(lattice.n_clusters)).tolist()
        for key, mask in zip(keys, masks):
            levels[key.depth].add(mask)
        assert lattice.span(0) == slice(0, 0)  # the root is not a cluster
        assert levels[0] == set()
        assert sorted(levels[1]) == [1, 2, 4]
        assert levels[3] == {7}

    def test_parents_children_inverse(self, lattice):
        keys = lattice.keys_of(np.arange(lattice.n_clusters))
        ids = {key: cid for cid, key in enumerate(keys)}
        owner, ancestor = lattice.pairs()
        listed = set(zip(owner.tolist(), ancestor.tolist()))
        for cid, child in enumerate(keys):
            for parent in child.parents():
                if parent.depth:
                    assert (cid, ids[parent]) in listed
        for child, parent in listed:
            assert keys[parent].is_ancestor_of(keys[child])

    def test_build_dag_edges(self):
        keys = [
            key(asn="a1"),
            key(cdn="c1"),
            key(asn="a1", cdn="c1"),
            key(asn="a2", cdn="c2"),  # no present parent
        ]
        edges = walkthrough_dag_edges(keys)
        assert (key(asn="a1"), key(asn="a1", cdn="c1")) in edges
        assert (key(cdn="c1"), key(asn="a1", cdn="c1")) in edges
        root = ClusterKey.root()
        assert (root, key(asn="a2", cdn="c2")) in edges
        # Every edge runs to a strictly deeper key, so the graph is acyclic.
        assert all(child.depth > parent.depth for parent, child in edges)

    def test_build_dag_multi_parent(self):
        # A node with several parents — the DAG structure from Fig. 4.
        keys = [key(asn="a1"), key(cdn="c1"), key(asn="a1", cdn="c1")]
        edges = walkthrough_dag_edges(keys)
        preds = {p for p, c in edges if c == key(asn="a1", cdn="c1")}
        assert preds == {key(asn="a1"), key(cdn="c1")}
