"""Finite ground sets and the neighborhood-based approximation operators.

Everything in this package is built over a small, ordered, labelled universe.
Subsets are stored as bit masks over the universe's label positions, which
keeps the exhaustive scans elsewhere in the package cheap and makes equality
extensional for free.  A ``NeighborhoodMap`` stores its cells as those int
masks; ``Subset`` objects are views of a mask, built for the public API and
for witnesses.  All values are immutable; every operator is a pure
function, so structures can be shared freely across workers.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from operator import attrgetter
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
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatchError(
            f"values live on different universes: "
            f"{a.universe.labels} vs {b.universe.labels}"
        )


class Immutable:
    """Immutable value: a subclass lists its ``_fields`` and its ``__init__``
    writes them through ``__dict__``.  Setting or deleting any attribute raises
    AttributeError; values of one class with equal fields are equal."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Universe(Immutable):
    """Ordered, finite, nonempty ground set.

    A label's position is its element index, kept in the package's one
    label table and read through ``position``; subsets are bit masks over
    those positions, and canonical output follows the declaration order.
    """

    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if len(labels) == 0:
            raise ValueError("universe must be nonempty")
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise ValueError("universe labels must be nonempty strings")
        positions = {lab: i for i, lab in enumerate(labels)}
        if len(positions) != len(labels):
            raise ValueError("universe labels must be pairwise distinct")
        self.__dict__.update(labels=labels, _positions=positions)
        if len(labels) > SCAN_LIMIT:
            warnings.warn(
                f"universe has {len(labels)} elements; exhaustive "
                f"operations are bounded at {SCAN_LIMIT}",
                stacklevel=2,
            )

    @property
    def size(self) -> int:
        return len(self.labels)

    def position(self, label: object) -> int | None:
        """The element index of ``label``; None for anything not a label."""
        return self._positions.get(label) if isinstance(label, str) else None

    def __contains__(self, label: object) -> bool:
        return self.position(label) is not None

    def index(self, label: str) -> int:
        if (i := self.position(label)) is None:
            raise KeyError(f"unknown label {label!r}")
        return i

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


class Subset(Immutable):
    """A subset of a universe, held as a membership bit mask.

    Equality is extensional: two subsets are equal exactly when they have the
    same universe and the same members.  The usual set algebra is available
    through operators (``|``, ``&``, ``-``) and ``complement``; all of them
    check that both operands share one universe.
    """

    _fields = ("universe", "bits")

    def __init__(self, universe: Universe, bits: int):
        self.__dict__.update(universe=universe, bits=bits)
        self.__post_init__()  # its own method, which the benchmark tracer wraps to count

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.universe.size):
            raise ValueError(f"bits {self.bits:#x} out of range for universe")

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.bits))

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

    def notation(self) -> str:
        return "{" + ", ".join(self.members()) + "}"

    def __repr__(self) -> str:
        return f"Subset({self.notation()})"


def bit_indices(x: int) -> Iterator[int]:
    """The elements of the mask x, lowest first: one step per set bit."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# Every byte with its bits reversed and complemented.
_FLIPPED = bytes(0xFF ^ int(f"{b:08b}"[::-1], 2) for b in range(256))


def canonical_mask_key(bits: int, n: int) -> int:
    """Canonical sort key for a membership mask over n elements, and the
    one definition of the order ``SetFamily`` keeps: the size, then the
    ascending element indices.  Of two masks of one size, the one holding
    the lowest element where they differ comes first.  Below the size,
    the key holds the mask's bits lowest first from the top down, each
    complemented, so that mask has the smaller key; the bytes are reversed
    through ``_FLIPPED`` rather than bit by bit."""
    width = (n + 7) >> 3
    flipped = bits.to_bytes(width, "little").translate(_FLIPPED)
    return bits.bit_count() << 8 * width | int.from_bytes(flipped, "big")


class Covering(Immutable):
    """A family of nonempty blocks whose union is the whole universe.

    Duplicate blocks are rejected at ingestion: a covering is a set of
    subsets, so multiplicity carries no information and usually signals an
    input mistake.
    """

    _fields = ("universe", "blocks")

    def __init__(self, universe: Universe, blocks: Iterable[Subset]):
        self.__dict__.update(universe=universe, blocks=tuple(blocks))
        if len(self.blocks) == 0:
            raise InvalidCoveringError("a covering must contain at least one block")
        seen: set[int] = set()
        union = 0
        for blk in self.blocks:
            require_same_universe(blk, self)
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

    @cached_property
    def neighborhoods(self) -> NeighborhoodMap:
        """Neighborhood of x: the intersection of all blocks containing x.

        Each element lies in at least one block, so the intersection is over
        a nonempty family and always contains the element itself.  Each
        block is ANDed into the cells of its own elements only.  Built on
        first use and kept with the covering (a pickled covering carries
        it), so the checkers that start from a covering share one map.
        """
        u = self.universe
        cells = [(1 << u.size) - 1] * u.size
        for blk in self.blocks:
            for i in bit_indices(blk.bits):
                cells[i] &= blk.bits
        return NeighborhoodMap(u, tuple(cells))

    def is_partition(self) -> bool:
        total = 0
        for blk in self.blocks:
            if total & blk.bits:
                return False
            total |= blk.bits
        return total == (1 << self.universe.size) - 1


class BinaryRelation(Immutable):
    """A binary relation on the universe, stored as index pairs."""

    _fields = ("universe", "pairs")

    def __init__(self, universe: Universe, pairs: Iterable[tuple[int, int]]):
        self.__dict__.update(universe=universe, pairs=frozenset(pairs))
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

    @cached_property
    def neighborhoods(self) -> NeighborhoodMap:
        """Successor neighborhood of x: everything x relates to (may be
        empty).  Built on first use and kept with the relation, as
        ``Covering.neighborhoods`` is with its covering."""
        u = self.universe
        bits = [0] * u.size
        for x, y in self.pairs:
            bits[x] |= 1 << y
        return NeighborhoodMap(u, tuple(bits))


class NeighborhoodMap(Immutable):
    """One subset per element, as its membership mask: the granule the
    element is approximated by.

    ``cell_bits[i]`` is the mask of element i's neighborhood; ``cells``
    views them as ``Subset`` objects, built on first use.  For covering
    neighborhoods every cell contains its own element; successor
    neighborhoods of a relation may be empty.  The approximation operators
    below treat both uniformly.
    """

    _fields = ("universe", "cell_bits")

    def __init__(self, universe: Universe, cell_bits: tuple[int, ...]):
        self.__dict__.update(universe=universe, cell_bits=cell_bits)
        if len(self.cell_bits) != self.universe.size:
            raise ValueError("need exactly one neighborhood per element")
        top = 1 << self.universe.size
        if not all(isinstance(b, int) and 0 <= b < top for b in self.cell_bits):
            raise ValueError("neighborhood cells must be int masks below 2^n")

    @cached_property
    def cells(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.universe, b) for b in self.cell_bits)

    def neighborhood(self, label: str) -> Subset:
        return Subset(self.universe, self.cell_bits[self.universe.index(label)])

    def first_non_singleton(self, mask: int) -> int | None:
        """The lowest element of ``mask`` whose neighborhood is not the
        element alone, or None when there is none."""
        return next((i for i in bit_indices(mask) if self.cell_bits[i] != 1 << i), None)


def neighborhoods_of_covering(covering: Covering) -> NeighborhoodMap:
    """The covering's neighborhood map (``Covering.neighborhoods``)."""
    return covering.neighborhoods


def successor_neighborhoods(relation: BinaryRelation) -> NeighborhoodMap:
    """The relation's successor neighborhood map (``BinaryRelation.neighborhoods``)."""
    return relation.neighborhoods


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
