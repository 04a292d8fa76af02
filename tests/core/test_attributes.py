"""Tests for the attribute schema and mask utilities."""

import pytest

from repro.core.attributes import (
    AttributeSchema,
    DEFAULT_ATTRIBUTES,
    DEFAULT_SCHEMA,
    iter_submasks,
    popcount,
)


class TestAttributeSchema:
    def test_default_has_papers_seven_attributes(self):
        assert len(DEFAULT_SCHEMA) == 7
        assert DEFAULT_SCHEMA.names == DEFAULT_ATTRIBUTES
        assert "asn" in DEFAULT_SCHEMA
        assert "cdn" in DEFAULT_SCHEMA
        assert "connection_type" in DEFAULT_SCHEMA

    def test_index_positions(self):
        for i, name in enumerate(DEFAULT_SCHEMA.names):
            assert DEFAULT_SCHEMA.index(name) == i

    def test_index_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown attribute"):
            DEFAULT_SCHEMA.index("geography")

    def test_contains(self):
        assert "site" in DEFAULT_SCHEMA
        assert "nope" not in DEFAULT_SCHEMA

    def test_iteration_order(self):
        assert tuple(DEFAULT_SCHEMA) == DEFAULT_ATTRIBUTES

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            AttributeSchema(names=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AttributeSchema(names=("a", "b", "a"))

    def test_too_many_attributes_rejected(self):
        names = tuple(f"attr{i}" for i in range(17))
        with pytest.raises(ValueError, match="at most 16"):
            AttributeSchema(names=names)

    def test_custom_schema(self):
        schema = AttributeSchema(names=("x", "y", "z"))
        assert len(schema) == 3
        assert schema.full_mask == 0b111

    def test_mask_of_round_trips_names_of(self):
        mask = DEFAULT_SCHEMA.mask_of(["cdn", "asn"])
        assert DEFAULT_SCHEMA.names_of(mask) == ("asn", "cdn")

    def test_mask_of_empty(self):
        assert DEFAULT_SCHEMA.mask_of([]) == 0

    def test_full_mask(self):
        assert DEFAULT_SCHEMA.full_mask == (1 << 7) - 1
        assert DEFAULT_SCHEMA.names_of(DEFAULT_SCHEMA.full_mask) == DEFAULT_ATTRIBUTES

    def test_validate_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DEFAULT_SCHEMA.validate_mask(1 << 7)
        with pytest.raises(ValueError, match="out of range"):
            DEFAULT_SCHEMA.validate_mask(-1)


class TestMaskIteration:
    def test_submasks_of_simple_mask(self):
        assert set(iter_submasks(0b101)) == {0b100, 0b001}

    def test_submasks_exclude_self_and_empty(self):
        subs = set(iter_submasks(0b111))
        assert 0b111 not in subs
        assert 0 not in subs
        assert len(subs) == 6

    def test_submasks_of_singleton_is_empty(self):
        assert list(iter_submasks(0b010)) == []

    def test_submask_count_matches_formula(self):
        mask = 0b11011
        assert len(list(iter_submasks(mask))) == 2 ** popcount(mask) - 2

    @staticmethod
    def supermasks(mask: int, full: int) -> set[int]:
        """The masks within ``full`` that list ``mask`` among their
        submasks: the descendant side of the epoch lattice's
        (cluster, ancestor) table, which ``iter_submasks`` builds."""
        return {m for m in range(full + 1) if mask in set(iter_submasks(m))}

    def test_supermasks_within_full(self):
        sups = self.supermasks(0b001, 0b111)
        assert sups == {0b011, 0b101, 0b111}

    def test_supermasks_of_full_is_empty(self):
        assert self.supermasks(0b111, 0b111) == set()

    def test_supermasks_are_strict_supersets(self):
        sups = self.supermasks(0b0101, 0b1111)
        assert len(sups) == 2 ** 2 - 1
        for sup in sups:
            assert sup & 0b0101 == 0b0101
            assert sup != 0b0101

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 7) - 1) == 7
