"""Definable sets and their families.

A set is definable when it equals the union of its members' neighborhoods.
The same test applies to covering neighborhoods and to successor
neighborhoods of a relation.  Every definable set is a union of
neighborhood images, so the family of all definable sets is built by
closing the images under union and filtering for definability.  For
covering neighborhoods the filter never removes anything (every union of
neighborhoods is definable); for relation neighborhoods it is required,
since a union of successor images need not be definable.  The closure
holds at most 2^n sets and is bounded at 2^SCAN_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator
from weakref import WeakValueDictionary

from .core import (
    SCAN_LIMIT,
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

# Built families, each kept only while some caller still holds it.
_FAMILIES: WeakValueDictionary = WeakValueDictionary()


@dataclass(frozen=True)
class SetFamily:
    """A deduplicated family of subsets in canonical order.

    Canonical order is by cardinality, then by the ascending member-index
    tuple; it matches the declaration order of the universe and makes every
    report and serialization reproducible.  Members given in another order
    are sorted into it.
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
        if not _in_canonical_order(m.bits for m in self.members):
            ordered = tuple(sorted(self.members, key=lambda s: s.canonical_key))
            object.__setattr__(self, "members", ordered)

    @classmethod
    def of(cls, universe: Universe, members: Iterable[Subset]) -> SetFamily:
        return cls(universe, tuple({m.bits: m for m in members}.values()))

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

    @cached_property
    def order(self) -> MemberOrder:
        """The inclusion order of the members, built on first use and kept
        as long as the family."""
        return MemberOrder(self.universe.size, self.members)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {m.bits: i for i, m in enumerate(self.members)}

    def index_mask(self, family: SetFamily) -> int | None:
        """``family`` as a mask over this family's member indices (bit i
        for ``members[i]``), or None when some member of it is not a
        member here."""
        if family.members and family.universe != self.universe:
            return None
        positions = self._positions
        mask = 0
        for m in family.members:
            i = positions.get(m.bits)
            if i is None:
                return None
            mask |= 1 << i
        return mask

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


def _in_canonical_order(masks: Iterable[int]) -> bool:
    """Whether the masks ascend in canonical order: by popcount, and at
    equal popcount a before b exactly when the lowest element of a ^ b
    lies in a."""
    prev = None
    for b in masks:
        if prev is not None:
            diff = prev ^ b
            pk, bk = prev.bit_count(), b.bit_count()
            if pk > bk or (pk == bk and not prev & diff & -diff):
                return False
        prev = b
    return True


# Bits of memoised rows one table of a MemberOrder may keep, however large
# its family.
_MEMO_BITS = 1 << 22


def _row(flags: Iterable[bool]) -> int:
    """The mask with bit j set for each true flag j, in time linear in the
    number of flags."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


class _Rows(dict):
    """Rows computed by ``compute`` on first lookup, kept while there is
    room; a hit is a plain dict lookup."""

    def __init__(self, compute: Callable[[int], int], room: int):
        super().__init__()
        self.compute = compute
        self.room = room

    def __missing__(self, key: int) -> int:
        row = self.compute(key)
        if len(self) < self.room:
            self[key] = row
        return row


class MemberOrder:
    """The inclusion order of a family's members, as masks over member
    indices (bit j for ``members[j]``).

    Each member has an image: the member itself, or ``images[j]`` when the
    images under an operator are given.  ``has[e]`` is the row of members
    whose image contains element e and ``larger[s]`` the row of members
    whose image has more than s elements.  The rows of the order are
    computed from those on first lookup, one at a time, so no |D| x |D|
    table is built up front:

    - ``over[x]``: the members whose image contains the element mask x;
    - ``below[j]``: the members inside member j whose image lies inside
      j's image (j itself included);
    - ``above[j]``: the members whose image strictly contains j's image.

    Each of the three keeps at most ``_MEMO_BITS`` bits of rows.
    """

    def __init__(
        self, n: int, members: tuple[Subset, ...], images: list[int] | None = None
    ):
        sets = [m.bits for m in members]
        self.members = members
        self.images = sets if images is None else images
        self.sizes = [a.bit_count() for a in self.images]
        full = (1 << len(sets)) - 1
        self.has = [_row(a >> e & 1 for a in self.images) for e in range(n)]
        self.larger = [_row(k > s for k in self.sizes) for s in range(n + 1)]
        # The row functions capture plain lists, never the order itself, so
        # an order is freed with its family without waiting for the cycle
        # collector.
        room = _MEMO_BITS // max(len(sets), 1)
        universe = (1 << n) - 1
        outsides = [(self.images, [full & ~row for row in self.has])]
        if images is not None:
            outsides.append((sets, [full & ~_row(b >> e & 1 for b in sets) for e in range(n)]))
        self.over = _Rows(partial(_over_row, self.has, full), room)
        self.below = _Rows(partial(_below_row, outsides, universe, full), room)
        self.above = _Rows(partial(_above_row, self.over, self.images, self.larger, self.sizes), room)


def _over_row(has: list[int], full: int, x: int) -> int:
    row = full
    while x:
        low = x & -x
        row &= has[low.bit_length() - 1]
        x ^= low
    return row


def _below_row(outsides: list, universe: int, full: int, j: int) -> int:
    # For the members and for their images: clear the members holding an
    # element outside j's, where outside[e] is the row of members without e.
    row = full
    for masks, outside in outsides:
        rest = universe & ~masks[j]
        while rest:
            low = rest & -rest
            row &= outside[low.bit_length() - 1]
            rest ^= low
    return row


def _above_row(over: _Rows, images: list[int], larger: list[int], sizes: list[int], j: int) -> int:
    return over[images[j]] & larger[sizes[j]]


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


def definable_family(nm: NeighborhoodMap) -> SetFamily:
    """The family of all definable sets.

    Built as all unions of neighborhood images (the empty union included),
    filtered for definability; every definable set is such a union, so the
    closure over-approximates at worst.  Raises ``SizeBoundError`` once the
    closure grows past 2^SCAN_LIMIT sets.  A family is memoised per
    neighborhood map while any caller holds it, so repeated calls return
    that same immutable object.
    """
    key = (nm.universe, nm.cell_bits)
    if (family := _FAMILIES.get(key)) is None:
        family = _FAMILIES[key] = SetFamily.from_bits(nm.universe, _closure_bits(nm.cell_bits))
    return family


def _closure_bits(cells: tuple[int, ...]) -> list[int]:
    # Returns a list so the closure set is freed before the family is built.
    closure = {0}
    for cell in cells:
        closure |= {b | cell for b in closure}
        if len(closure) > 1 << SCAN_LIMIT:
            raise SizeBoundError(
                f"union closure over {len(cells)} elements exceeds the "
                f"bound of 2^{SCAN_LIMIT} sets"
            )
    return [b for b in closure if definable_bits(cells, b)]


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
    if n > SCAN_LIMIT:
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
