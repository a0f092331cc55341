"""Definable sets and their families.

A set is definable when it equals the union of its members' neighborhoods.
The same test applies to covering neighborhoods and to successor
neighborhoods of a relation.  The family of all definable sets can be
computed two ways: a full powerset scan, or by closing the neighborhood
images under union and filtering.  For covering neighborhoods the filter
never removes anything (every union of neighborhoods is definable); for
relation neighborhoods it is required, since a union of successor images
need not be definable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator
from weakref import WeakValueDictionary

from .core import (
    NeighborhoodMap,
    SizeBoundError,
    Subset,
    Universe,
    UniverseMismatchError,
    lower_approx_bits,
    require_same_universe,
    upper_approx_bits,
)
from .report import AxiomFailure, CheckReport

# Above this size the automatic method switches from the powerset scan to
# the union-closure construction.
SCAN_METHOD_LIMIT = 12
HARD_SCAN_LIMIT = 20
# Built families, each kept only while some caller still holds it.
_FAMILIES: WeakValueDictionary = WeakValueDictionary()


@dataclass(frozen=True)
class SetFamily:
    """A deduplicated family of subsets in canonical order.

    Canonical order is by cardinality, then by the ascending member-index
    tuple; it matches the declaration order of the universe and makes every
    report and serialization reproducible.
    """

    universe: Universe
    members: tuple[Subset, ...]
    _bitset: frozenset[int] = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self):
        for m in self.members:
            if m.universe != self.universe:
                raise UniverseMismatchError("family member on a different universe")
        object.__setattr__(self, "_bitset", frozenset(m.bits for m in self.members))
        if len(self._bitset) != len(self.members):
            raise ValueError("family members must be distinct")

    @classmethod
    def of(cls, universe: Universe, members: Iterable[Subset]) -> SetFamily:
        unique = {m.bits: m for m in members}
        ordered = sorted(unique.values(), key=lambda s: s.canonical_key)
        return cls(universe, tuple(ordered))

    @classmethod
    def from_bits(cls, universe: Universe, bits: Iterable[int]) -> SetFamily:
        return cls.of(universe, (Subset(universe, b) for b in set(bits)))

    @classmethod
    def from_labels(cls, universe: Universe, members: Iterable[Iterable[str]]) -> SetFamily:
        return cls.of(universe, (universe.subset(m) for m in members))

    def __contains__(self, item: Subset) -> bool:
        return item.universe == self.universe and item.bits in self._bitset

    def contains_bits(self, bits: int) -> bool:
        return bits in self._bitset

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def bitset(self) -> frozenset[int]:
        return self._bitset

    def union_all(self) -> Subset:
        bits = 0
        for m in self.members:
            bits |= m.bits
        return Subset(self.universe, bits)

    def intersection_all(self) -> Subset:
        if not self.members:
            return self.universe.full()
        bits = (1 << self.universe.size) - 1
        for m in self.members:
            bits &= m.bits
        return Subset(self.universe, bits)


def definable_bits(cell_bits: tuple[int, ...], xbits: int) -> bool:
    union = 0
    rest = xbits
    while rest:
        i = (rest & -rest).bit_length() - 1
        union |= cell_bits[i]
        rest &= rest - 1
    return union == xbits


def is_definable(nm: NeighborhoodMap, x: Subset) -> bool:
    """True when x equals the union of its members' neighborhoods."""
    require_same_universe(nm, x)
    return definable_bits(nm.cell_bits, x.bits)


def _scan_bits(n: int, cells: tuple[int, ...]) -> list[int]:
    return [b for b in range(1 << n) if definable_bits(cells, b)]


def _closure_bits(cells: tuple[int, ...]) -> list[int]:
    # All unions of neighborhood images (the empty union included), then a
    # definability filter.  Every definable set is such a union, so the
    # closure over-approximates at worst.
    closure = {0}
    for cell in cells:
        closure |= {b | cell for b in closure}
    return [b for b in closure if definable_bits(cells, b)]


def definable_family(nm: NeighborhoodMap, method: str = "auto") -> SetFamily:
    """The family of all definable sets.

    ``method`` selects the construction: ``"scan"`` walks the full powerset
    (bounded), ``"closure"`` builds unions of neighborhood images,
    ``"auto"`` picks the scan for small universes.  Both routes return the
    same family; the scan-versus-closure agreement is one of the package's
    tested laws.  A family is memoised per neighborhood map and method while
    any caller holds it, so repeated calls return that same immutable object.
    """
    if method == "auto":
        method = "scan" if nm.universe.size <= SCAN_METHOD_LIMIT else "closure"
    key = (nm.universe, nm.cell_bits, method)
    if (family := _FAMILIES.get(key)) is None:
        family = _FAMILIES[key] = _build_family(*key)
    return family


def _build_family(universe: Universe, cells: tuple[int, ...], method: str) -> SetFamily:
    n = universe.size
    if method == "scan":
        if n > HARD_SCAN_LIMIT:
            raise SizeBoundError(
                f"powerset scan over {n} elements exceeds the bound of {HARD_SCAN_LIMIT}"
            )
        bits = _scan_bits(n, cells)
    elif method == "closure":
        bits = _closure_bits(cells)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SetFamily.from_bits(universe, bits)


def fixpoint_family_lower(nm: NeighborhoodMap) -> SetFamily:
    """All sets equal to their own lower approximation."""
    return _fixpoint_family(nm, lower_approx_bits)


def fixpoint_family_upper(nm: NeighborhoodMap) -> SetFamily:
    """All sets equal to their own upper approximation.

    By operator duality these are exactly the complements of the lower
    fixpoints, so for covering neighborhoods they are the complements of
    the definable sets.  They coincide with the definable family itself
    only when that family is complement-closed (partition-like
    neighborhoods); the coincidence is a checkable finding, not a law.
    """
    return _fixpoint_family(nm, upper_approx_bits)


def _fixpoint_family(
    nm: NeighborhoodMap, approx_bits: Callable[[tuple[int, ...], int], int]
) -> SetFamily:
    n = nm.universe.size
    if n > HARD_SCAN_LIMIT:
        raise SizeBoundError(f"fixpoint scan over {n} elements exceeds the bound")
    cells = nm.cell_bits
    bits = [b for b in range(1 << n) if approx_bits(cells, b) == b]
    return SetFamily.from_bits(nm.universe, bits)


def check_closure(family: SetFamily) -> CheckReport:
    """Verify closure under pairwise union and intersection.

    On failure the witness names the offending pair, the missing set, and
    which operation produced it.
    """
    members = family.members

    def first_missing(tag, combine):
        for i, x in enumerate(members):
            for y in members[i:]:
                combined = combine(x.bits, y.bits)
                if not family.contains_bits(combined):
                    missing = Subset(family.universe, combined)
                    return AxiomFailure(tag, {"x": x, "y": y, "missing": missing})
        return None

    failures = []
    for tag, combine in (
        ("union-closure", int.__or__),
        ("intersection-closure", int.__and__),
    ):
        failure = first_missing(tag, combine)
        if failure is not None:
            failures.append(failure)
    return CheckReport("closure", passed=not failures, failures=tuple(failures))
