"""Attribute schema for video sessions.

The paper (Section 2) annotates every session with seven attributes:
ASN, CDN, content provider ("Site"), VoD-or-Live, player type, browser,
and connection type. The clustering machinery is generic over the
schema: clusters are combinations of attribute values, so the schema
only needs to know attribute *names* and their position order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

#: The paper's seven session attributes, in canonical order.
DEFAULT_ATTRIBUTES: tuple[str, ...] = (
    "asn",
    "cdn",
    "site",
    "content_type",  # VoD or Live
    "player",
    "browser",
    "connection_type",
)


@dataclass(frozen=True)
class AttributeSchema:
    """An ordered set of session attribute names.

    The schema fixes the order in which attribute values appear in
    session records and cluster keys. All core algorithms are generic
    over the number of attributes (the paper uses seven).
    """

    names: tuple[str, ...] = DEFAULT_ATTRIBUTES
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("schema must have at least one attribute")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate attribute names: {self.names}")
        if len(self.names) > 16:
            # Masks are packed into small ints; 16 is far beyond the
            # paper's seven and keeps 2**n lattices tractable.
            raise ValueError("schema supports at most 16 attributes")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        """Position of attribute ``name`` in the canonical order."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"unknown attribute {name!r}; schema has {self.names}"
            ) from None

    def mask_of(self, names: Iterable[str]) -> int:
        """Bitmask with a bit set for each attribute in ``names``."""
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        """Attribute names selected by bitmask ``mask`` in schema order."""
        self.validate_mask(mask)
        return tuple(n for i, n in enumerate(self.names) if mask & (1 << i))

    def validate_mask(self, mask: int) -> None:
        """Raise ``ValueError`` if ``mask`` selects unknown positions."""
        if mask < 0 or mask >= (1 << len(self.names)):
            raise ValueError(
                f"mask {mask:#x} out of range for {len(self.names)} attributes"
            )

    @property
    def full_mask(self) -> int:
        """Mask selecting every attribute (the leaf level of the lattice)."""
        return (1 << len(self.names)) - 1


#: Schema instance used throughout the library unless overridden.
DEFAULT_SCHEMA = AttributeSchema()


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every non-empty proper submask of ``mask``.

    Uses the standard ``(s - 1) & mask`` enumeration, descending. The
    full ``mask`` itself and the empty mask are excluded: callers deal
    with cluster *ancestors*, which are strict subsets, and the root is
    never a problem cluster (its ratio is the global ratio).
    """
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def popcount(mask: int) -> int:
    """Number of set bits (attributes) in ``mask``."""
    return bin(mask).count("1")
