"""Finite ground sets and the neighborhood-based approximation operators.

Everything in this package is built over a small, ordered, labelled universe.
Subsets are stored as bit masks over the universe's label positions, which
keeps the exhaustive scans elsewhere in the package cheap and makes equality
extensional for free.  All values are immutable; every operator is a pure
function, so structures can be shared freely across workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator

# Hard bound for full powerset scans.  Larger universes are accepted by the
# non-exhaustive operations only.
SCAN_LIMIT = 20


class UniverseMismatchError(ValueError):
    """Raised when values over different universes are combined."""


class InvalidCoveringError(ValueError):
    """Raised when a block family violates the covering invariants."""


class SizeBoundError(ValueError):
    """Raised when an exhaustive operation exceeds its size bound."""


class LawViolationError(RuntimeError):
    """A proved equivalence failed on concrete input (indicates a bug)."""


def require_same_universe(a, b) -> None:
    """Raise UniverseMismatchError unless a and b share one universe."""
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"values live on different universes: "
            f"{a.universe.labels} vs {b.universe.labels}"
        )


@dataclass(frozen=True)
class Universe:
    """Ordered, finite, nonempty ground set.

    The position of a label is its element index; all subsets of this
    universe are bit masks over those positions.  Canonical output ordering
    everywhere in the package follows the declaration order given here.
    """

    labels: tuple[str, ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("universe must be nonempty")
        if any(not isinstance(lab, str) or not lab for lab in self.labels):
            raise ValueError("universe labels must be nonempty strings")
        positions = {lab: i for i, lab in enumerate(self.labels)}
        if len(positions) != len(self.labels):
            raise ValueError("universe labels must be pairwise distinct")
        object.__setattr__(self, "_positions", positions)
        if len(self.labels) > SCAN_LIMIT:
            warnings.warn(
                f"universe has {len(self.labels)} elements; exhaustive "
                f"operations are bounded at {SCAN_LIMIT}",
                stacklevel=2,
            )

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return isinstance(label, str) and label in self._positions

    def index(self, label: str) -> int:
        if label not in self:
            raise KeyError(f"unknown label {label!r}")
        return self._positions[label]

    def subset(self, labels: Iterable[str] = ()) -> Subset:
        bits = 0
        for lab in labels:
            bits |= 1 << self.index(lab)
        return Subset(self, bits)

    def from_bits(self, bits: int) -> Subset:
        return Subset(self, bits)

    def empty(self) -> Subset:
        return Subset(self, 0)

    def full(self) -> Subset:
        return Subset(self, (1 << self.size) - 1)

    def singletons(self) -> tuple[Subset, ...]:
        return tuple(Subset(self, 1 << i) for i in range(self.size))

    def all_subsets(self) -> Iterator[Subset]:
        """Iterate the full powerset in mask order; bounded by SCAN_LIMIT."""
        if self.size > SCAN_LIMIT:
            raise SizeBoundError(
                f"powerset scan over {self.size} elements exceeds the "
                f"supported bound of {SCAN_LIMIT}"
            )
        for bits in range(1 << self.size):
            yield Subset(self, bits)


@dataclass(frozen=True)
class Subset:
    """A subset of a universe, held as a membership bit mask.

    Equality is extensional: two subsets are equal exactly when they have the
    same universe and the same members.  The usual set algebra is available
    through operators (``|``, ``&``, ``-``) and ``complement``; all of them
    check that both operands share one universe.
    """

    universe: Universe
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.universe.size):
            raise ValueError(f"bits {self.bits:#x} out of range for universe")

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, label: str) -> bool:
        return (self.bits >> self.universe.index(label)) & 1 == 1

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.universe.size) if (self.bits >> i) & 1)

    def members(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in self.indices())

    def __iter__(self) -> Iterator[str]:
        return iter(self.members())

    def __or__(self, other: Subset) -> Subset:
        require_same_universe(self, other)
        return Subset(self.universe, self.bits | other.bits)

    def __and__(self, other: Subset) -> Subset:
        require_same_universe(self, other)
        return Subset(self.universe, self.bits & other.bits)

    def __sub__(self, other: Subset) -> Subset:
        require_same_universe(self, other)
        return Subset(self.universe, self.bits & ~other.bits)

    def complement(self) -> Subset:
        full = (1 << self.universe.size) - 1
        return Subset(self.universe, self.bits ^ full)

    def issubset(self, other: Subset) -> bool:
        require_same_universe(self, other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: Subset) -> bool:
        return self.issubset(other)

    def __lt__(self, other: Subset) -> bool:
        return self.issubset(other) and self.bits != other.bits

    def with_label(self, label: str) -> Subset:
        return Subset(self.universe, self.bits | (1 << self.universe.index(label)))

    @property
    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        """Sort key realising the canonical order: cardinality, then the
        ascending member-index tuple."""
        return canonical_mask_key(self.bits)

    def notation(self) -> str:
        return "{" + ", ".join(self.members()) + "}"

    def __repr__(self) -> str:
        return f"Subset({self.notation()})"


def canonical_mask_key(bits: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key for a raw membership mask."""
    return (bits.bit_count(), tuple(i for i in range(bits.bit_length()) if (bits >> i) & 1))


@dataclass(frozen=True)
class Covering:
    """A family of nonempty blocks whose union is the whole universe.

    Duplicate blocks are rejected at ingestion: a covering is a set of
    subsets, so multiplicity carries no information and usually signals an
    input mistake.
    """

    universe: Universe
    blocks: tuple[Subset, ...]

    def __post_init__(self):
        if not isinstance(self.blocks, tuple):
            object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) == 0:
            raise InvalidCoveringError("a covering must contain at least one block")
        seen: set[int] = set()
        union = 0
        for blk in self.blocks:
            if blk.universe != self.universe:
                raise UniverseMismatchError("covering block on a different universe")
            if blk.bits == 0:
                raise InvalidCoveringError("covering blocks must be nonempty")
            if blk.bits in seen:
                raise InvalidCoveringError(f"duplicate block {blk.notation()} rejected")
            seen.add(blk.bits)
            union |= blk.bits
        if union != (1 << self.universe.size) - 1:
            missing = Subset(self.universe, ((1 << self.universe.size) - 1) & ~union)
            raise InvalidCoveringError(
                f"blocks do not cover the universe; missing {missing.notation()}"
            )

    @classmethod
    def from_labels(cls, universe: Universe, blocks: Iterable[Iterable[str]]) -> Covering:
        return cls(universe, tuple(universe.subset(b) for b in blocks))

    def is_partition(self) -> bool:
        total = 0
        for blk in self.blocks:
            if total & blk.bits:
                return False
            total |= blk.bits
        return total == (1 << self.universe.size) - 1


@dataclass(frozen=True)
class BinaryRelation:
    """A binary relation on the universe, stored as index pairs."""

    universe: Universe
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.pairs, frozenset):
            object.__setattr__(self, "pairs", frozenset(self.pairs))
        n = self.universe.size
        for x, y in self.pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"relation pair ({x}, {y}) out of range")

    @classmethod
    def from_labels(cls, universe: Universe, pairs: Iterable[tuple[str, str]]) -> BinaryRelation:
        return cls(
            universe,
            frozenset((universe.index(x), universe.index(y)) for x, y in pairs),
        )

    def related(self, x: str, y: str) -> bool:
        return (self.universe.index(x), self.universe.index(y)) in self.pairs


@dataclass(frozen=True)
class NeighborhoodMap:
    """One subset per element: the granule the element is approximated by.

    For covering neighborhoods every cell contains its own element; successor
    neighborhoods of a relation may be empty.  The approximation operators
    below treat both uniformly.
    """

    universe: Universe
    cells: tuple[Subset, ...]
    _cell_bits: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        if len(self.cells) != self.universe.size:
            raise ValueError("need exactly one neighborhood per element")
        for cell in self.cells:
            if cell.universe != self.universe:
                raise UniverseMismatchError("neighborhood cell on a different universe")
        object.__setattr__(self, "_cell_bits", tuple(c.bits for c in self.cells))

    @property
    def cell_bits(self) -> tuple[int, ...]:
        return self._cell_bits

    def neighborhood(self, label: str) -> Subset:
        return self.cells[self.universe.index(label)]


def neighborhoods_of_covering(covering: Covering) -> NeighborhoodMap:
    """Neighborhood of x: the intersection of all blocks containing x.

    Each element lies in at least one block, so the intersection is over a
    nonempty family and always contains the element itself.
    """
    u = covering.universe
    full = (1 << u.size) - 1
    cells = []
    for i in range(u.size):
        bits = full
        for blk in covering.blocks:
            if (blk.bits >> i) & 1:
                bits &= blk.bits
        cells.append(Subset(u, bits))
    return NeighborhoodMap(u, tuple(cells))


def successor_neighborhoods(relation: BinaryRelation) -> NeighborhoodMap:
    """Successor neighborhood of x: everything x relates to (may be empty)."""
    u = relation.universe
    bits = [0] * u.size
    for x, y in relation.pairs:
        bits[x] |= 1 << y
    return NeighborhoodMap(u, tuple(Subset(u, b) for b in bits))


def lower_approx_bits(cell_bits: tuple[int, ...], xbits: int) -> int:
    out = 0
    for i, cell in enumerate(cell_bits):
        if cell & ~xbits == 0:
            out |= 1 << i
    return out


def upper_approx_bits(cell_bits: tuple[int, ...], xbits: int) -> int:
    out = 0
    for i, cell in enumerate(cell_bits):
        if cell & xbits:
            out |= 1 << i
    return out


def lower_approx(nm: NeighborhoodMap, x: Subset) -> Subset:
    """Elements whose whole neighborhood lies inside x."""
    require_same_universe(nm, x)
    return Subset(nm.universe, lower_approx_bits(nm.cell_bits, x.bits))


def upper_approx(nm: NeighborhoodMap, x: Subset) -> Subset:
    """Elements whose neighborhood meets x."""
    require_same_universe(nm, x)
    return Subset(nm.universe, upper_approx_bits(nm.cell_bits, x.bits))


def check_duality(nm: NeighborhoodMap, x: Subset) -> bool:
    """Law check: the lower approximation of the complement equals the
    complement of the upper approximation."""
    require_same_universe(nm, x)
    return lower_approx(nm, x.complement()) == upper_approx(nm, x).complement()
