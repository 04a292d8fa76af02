"""Cluster keys: the human-facing identity of a cluster.

A *cluster* (paper Section 3.1) is the set of sessions sharing specific
values on a subset of attributes, e.g. ``ASN=ASN1, CDN=CDN1``. The set
of all clusters for a fixed leaf combination forms a subset lattice;
across combinations the clusters form a DAG with natural parent/child
relationships (paper Figure 4): ``C1`` is a parent of ``C2`` when its
attribute set is a strict subset of ``C2``'s and they agree on shared
values (:meth:`ClusterKey.parents`, :meth:`ClusterKey.is_ancestor_of`).

:class:`ClusterKey` is a mapping of attribute names to value labels,
stable across epochs and traces. The lattice itself lives in packed
integer form, one epoch at a time
(:class:`~repro.core.aggregation.EpochLattice`); its keys decode to
``ClusterKey`` for reporting and cross-epoch identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.attributes import AttributeSchema, DEFAULT_SCHEMA, iter_submasks


@dataclass(frozen=True)
class ClusterKey:
    """Identity of a cluster: sorted (attribute, value) pairs.

    Pairs are stored in schema order so equality and hashing are
    canonical. The empty key is the DAG root (all sessions).
    """

    pairs: tuple[tuple[str, str], ...]

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, str], schema: AttributeSchema = DEFAULT_SCHEMA
    ) -> "ClusterKey":
        ordered = tuple(
            (name, mapping[name]) for name in schema.names if name in mapping
        )
        if len(ordered) != len(mapping):
            unknown = set(mapping) - set(schema.names)
            raise KeyError(f"attributes not in schema: {sorted(unknown)}")
        return cls(ordered)

    @classmethod
    def root(cls) -> "ClusterKey":
        return cls(())

    def __post_init__(self) -> None:
        names = [name for name, _ in self.pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attributes in key: {names}")

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names this key constrains."""
        return tuple(name for name, _ in self.pairs)

    @property
    def depth(self) -> int:
        """Number of constrained attributes (0 for the root)."""
        return len(self.pairs)

    def mask(self, schema: AttributeSchema = DEFAULT_SCHEMA) -> int:
        """Bitmask of constrained attribute positions under ``schema``."""
        return schema.mask_of(self.attributes)

    def value_of(self, attribute: str) -> str:
        for name, value in self.pairs:
            if name == attribute:
                return value
        raise KeyError(f"key does not constrain {attribute!r}")

    def is_ancestor_of(self, other: "ClusterKey") -> bool:
        """True if ``self`` is a strict ancestor (subset, agreeing values)."""
        if len(self.pairs) >= len(other.pairs):
            return False
        other_map = other.as_dict()
        return all(other_map.get(n) == v for n, v in self.pairs)

    def is_descendant_of(self, other: "ClusterKey") -> bool:
        return other.is_ancestor_of(self)

    def project(self, attributes: Iterable[str]) -> "ClusterKey":
        """Sub-key keeping only the given attributes."""
        keep = set(attributes)
        return ClusterKey(tuple(p for p in self.pairs if p[0] in keep))

    def parents(self) -> Iterator["ClusterKey"]:
        """Immediate parents: drop one constrained attribute."""
        for i in range(len(self.pairs)):
            yield ClusterKey(self.pairs[:i] + self.pairs[i + 1 :])

    def ancestors(self) -> Iterator["ClusterKey"]:
        """All strict ancestors (excluding the root)."""
        n = len(self.pairs)
        for sub in iter_submasks((1 << n) - 1):
            yield ClusterKey(
                tuple(self.pairs[i] for i in range(n) if sub & (1 << i))
            )

    def label(self) -> str:
        """Compact human-readable form, e.g. ``[cdn=cdn_a, asn=AS1]``."""
        if not self.pairs:
            return "[root]"
        return "[" + ", ".join(f"{n}={v}" for n, v in self.pairs) + "]"

    def paper_signature(self, schema: AttributeSchema = DEFAULT_SCHEMA) -> str:
        """The paper's Figure 10 style signature with ``*`` wildcards.

        Example: ``[Site, *, ASN, *, *, *, *]`` — names the constrained
        attribute *types*, not the values.
        """
        constrained = set(self.attributes)
        parts = [
            name if name in constrained else "*" for name in schema.names
        ]
        return "[" + ", ".join(parts) + "]"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label()


def attribute_signature(key: ClusterKey) -> tuple[str, ...]:
    """The attribute *types* a key constrains — Figure 10's grouping."""
    return key.attributes
