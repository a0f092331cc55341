"""Definable sets and their families.

A set is definable when it equals the union of its members' neighborhoods.
The same test applies to covering neighborhoods and to successor
neighborhoods of a relation.  Every definable set is a union of
neighborhood images, so the family of all definable sets is built by
closing the images under union and filtering for definability.  For
covering neighborhoods the filter never removes anything (every union of
neighborhoods is definable); for relation neighborhoods it is required,
since a union of successor images need not be definable.  The closure
holds at most 2^n sets and is bounded at 2^SCAN_LIMIT.  A ``SetFamily``
is its int masks, and every scan here reads them; ``Subset`` objects are
built for witnesses and for callers that iterate the members.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import compress, repeat
from operator import or_
from typing import Callable, Iterable, Iterator
from weakref import WeakValueDictionary

from .core import (
    SCAN_LIMIT,
    Immutable,
    NeighborhoodMap,
    SizeBoundError,
    Subset,
    Universe,
    UniverseMismatchError,
    canonical_mask_key,
    lower_approx_bits,
    require_same_universe,
    upper_approx_bits,
)
from .report import AxiomFailure, CheckReport

# Built families, each kept only while some caller still holds it.
_FAMILIES: WeakValueDictionary = WeakValueDictionary()
# The digits 0 and 1 as the bytes 0 and 1.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class SetFamily(Immutable):
    """A deduplicated family of subsets: its int masks, in canonical order.

    The constructor takes masks and ``SetFamily.of`` takes ``Subset``s;
    ``members`` views the masks as ``Subset``s, built on first use.
    Canonical order is the order of ``core.canonical_mask_key``: by
    cardinality, then by the ascending member-index tuple, so every report
    and serialization is reproducible.  The masks are always sorted into
    it.  The package relies on three consequences: the least member, when
    there is one, comes first, the greatest comes last, and a strict
    superset always has the higher index.
    """

    _fields = ("universe", "masks")

    def __init__(self, universe: Universe, masks: tuple[int, ...]):
        n = universe.size
        if not all(isinstance(m, int) for m in masks):
            raise TypeError("SetFamily takes int masks; use SetFamily.of for Subset members")
        if masks and not (0 <= min(masks) and max(masks) < 1 << n):
            raise ValueError(f"family masks must lie in [0, 2^{n})")
        if len(bits := frozenset(masks)) != len(masks):
            raise ValueError("family members must be distinct")
        ordered = tuple(sorted(masks, key=lambda m: canonical_mask_key(m, n)))
        self.__dict__.update(universe=universe, masks=ordered, _bits=bits)

    @classmethod
    def of(cls, universe: Universe, members: Iterable[Subset]) -> SetFamily:
        """The family of ``members``, repeats dropped.  A member on another
        universe raises ``UniverseMismatchError``."""
        masks = set()
        for m in members:
            if m.universe is not universe and m.universe != universe:
                raise UniverseMismatchError("family member on a different universe")
            masks.add(m.bits)
        return cls(universe, tuple(masks))

    @classmethod
    def from_bits(cls, universe: Universe, bits: Iterable[int]) -> SetFamily:
        return cls(universe, tuple(set(bits)))

    @classmethod
    def from_labels(cls, universe: Universe, members: Iterable[Iterable[str]]) -> SetFamily:
        return cls.of(universe, (universe.subset(m) for m in members))

    def __reduce__(self):
        # only the masks travel; the views and the orders are rebuilt on first use
        return SetFamily, (self.universe, self.masks)

    @cached_property
    def members(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.universe, b) for b in self.masks)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, Subset):
            return False
        return item.universe == self.universe and item.bits in self._bits

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.masks)

    def bitset(self) -> frozenset[int]:
        return self._bits

    @cached_property
    def _bits(self) -> frozenset[int]:
        return frozenset(self.masks)

    @cached_property
    def order(self) -> MemberOrder:
        """The inclusion order of the members, built on first use and kept
        as long as the family."""
        return MemberOrder(self)

    @cached_property
    def _member_bits(self) -> _Rows:
        """``1 << i`` for ``masks[i]``, looked up by the mask; a mask that
        is not a member raises KeyError.  Built on first lookup and kept
        within ``_MEMBER_BITS`` bits, since a table of every member's bit
        takes |D|^2 / 2 bits."""
        index = {b: i for i, b in enumerate(self.masks)}
        return _Rows(lambda b: 1 << index[b], _MEMBER_BITS // max(len(self.masks), 1))

    def index_mask(self, family: SetFamily) -> int | None:
        """``family`` as a mask over this family's member indices (bit i
        for ``members[i]``), or None when some member of it is not a
        member here.  A family on another universe raises
        ``UniverseMismatchError``."""
        require_same_universe(self, family)
        try:
            return sum(map(self._member_bits.__getitem__, family.masks))
        except KeyError:
            return None

    def subfamily(self, mask: int) -> SetFamily:
        """The members that ``mask`` selects (bit i for ``members[i]``),
        the inverse of ``index_mask``.  A selection of this family's
        masks is distinct, in range and in canonical order already, so it
        is not checked again.  A mask that selects no member list, because
        it is negative or has a bit at or past ``len(self)``, raises
        ValueError."""
        if not 0 <= mask < 1 << len(self.masks):
            raise ValueError(f"mask {mask} selects outside a family of {len(self)} members")
        flags = f"{mask:b}"[::-1].encode().translate(_DIGIT_FLAGS)
        family = object.__new__(SetFamily)
        family.__dict__.update(universe=self.universe, masks=tuple(compress(self.masks, flags)))
        return family

    def union_all(self) -> Subset:
        return Subset(self.universe, reduce(or_, self.masks, 0))


# Bits of memoised rows one table of a MemberOrder may keep, however large
# its family.
_MEMO_BITS = 1 << 22
# Bits of member bits one family's index_mask may keep: every member's up
# to |D| = 4,096 (n = 12 on the discrete covering), about 1 MiB of ints.
_MEMBER_BITS = 1 << 24
# Masks that _columns writes out as text at once.  The text stays at
# _BLOCK * width characters however large the family; on 1,024-element
# masks the strided reads ran three times faster than with 4,096.
_BLOCK = 1024


def _columns(masks: list[int], width: int) -> list[int]:
    """The transpose of ``masks``: row e has bit j set when ``masks[j]``
    holds element e, for e below ``width``.  Each block of masks is
    written once as binary text, last mask first, and row e is read off it
    with one strided slice, so the cost is one pass over the text per
    block rather than one Python step per (element, mask)."""
    rows = [0] * width
    spec = f"0{width}b"
    for start in range(0, len(masks), _BLOCK):
        block = masks[start : start + _BLOCK]
        text = "".join([format(m, spec) for m in reversed(block)])
        for e in range(width):
            rows[e] |= int(text[width - 1 - e :: width], 2) << start
    return rows


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
    indices (bit j for ``members[j]``).  It reads the universe size, the
    masks and the witness ``members`` off the family and keeps only those
    and its rows, never the family, so an order is freed with its family.

    Each member has an image: the member itself, or ``images[j]`` when the
    images under an operator are given.  ``has[e]`` is the row of members
    whose image contains element e and ``larger[s]`` the row of members
    whose image has more than s elements.  The rows of the order are
    computed from those on first lookup, one at a time, so no |D| x |D|
    table is built up front:

    - ``over[x]``: the members whose image contains the element mask x;
    - ``below[j]``: the members inside member j (j itself included).

    The members whose image strictly contains j's image are
    ``over[images[j]] & larger[sizes[j]]``.  ``below`` reads the member
    masks alone.  The lower and upper approximations are monotone for
    every neighborhood map, so a member inside j also has its image inside
    j's image, and heredity over the images needs no second table.  Each
    of the two keeps at most ``_MEMO_BITS`` bits of rows.  ``covers``, the
    Hasse diagram of the members, is built from ``below`` once, on first
    use.  ``verdicts`` holds the reports that verdict-only runs of the
    rough-matroid kernel share (see ``axioms._check_rough_given``).
    """

    def __init__(self, family: SetFamily, images: list[int] | None = None):
        n = family.universe.size
        sets = family.masks
        self.members = family.members
        self.images = images = sets if images is None else images
        self.sizes = sizes = [a.bit_count() for a in images]
        full = (1 << len(sets)) - 1
        self.has = _columns(images, n)
        # larger is the transpose of the sizes written in unary; its rows
        # from the largest size on are empty.
        top = max(sizes, default=0)
        unary = [(1 << s) - 1 for s in sizes]
        self.larger = _columns(unary, top) + [0] * (n + 1 - top)
        # lacks[e]: the members without element e
        has = self.has if images is sets else _columns(sets, n)
        lacks = [full & ~row for row in has]
        # The row functions capture plain lists, never the order or the
        # family, so an order is freed with its family without waiting for
        # the cycle collector.
        room = _MEMO_BITS // max(len(sets), 1)
        universe = (1 << n) - 1
        self.over = _Rows(partial(_all_of, self.has, full), room)
        self.below = _Rows(lambda j: _all_of(lacks, full, universe & ~sets[j]), room)
        self.verdicts: dict[tuple, CheckReport] = {}

    def maximal(self, mask: int) -> list[int]:
        """The maximal members among those ``mask`` selects, highest first.

        By the order contract of ``SetFamily`` the highest selected member
        is maximal; clearing its ``below`` row leaves the selected members
        not inside it, whose highest is maximal again."""
        below = self.below
        found = []
        while mask:
            j = mask.bit_length() - 1
            found.append(j)
            mask &= ~below[j]
        return found

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The cover pairs (j, k), ascending: member j lies strictly inside
        member k with no member between them.

        The lower covers of k are the maximal members strictly inside it,
        so this holds for any family in canonical order, closed or not,
        whatever the images.
        """
        below = self.below
        ups: list[list[int]] = [[] for _ in self.sizes]
        for k in range(len(ups)):
            for j in self.maximal(below[k] & ~(1 << k)):
                ups[j].append(k)
        return tuple((j, k) for j, ks in enumerate(ups) for k in ks)


def _all_of(rows: list[int], full: int, x: int) -> int:
    """The AND of ``rows[e]`` over the elements e of the mask x."""
    row = full
    while x:
        low = x & -x
        row &= rows[low.bit_length() - 1]
        x ^= low
    return row


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
        family = _FAMILIES[key] = SetFamily(nm.universe, _closure_bits(nm.cell_bits))
    return family


def _closure_bits(cells: tuple[int, ...]) -> tuple[int, ...]:
    # Returns a tuple so the closure set is freed before the family is built.
    closure = {0}
    for cell in cells:
        closure |= {b | cell for b in closure}
        if len(closure) > 1 << SCAN_LIMIT:
            raise SizeBoundError(
                f"union closure over {len(cells)} elements exceeds the "
                f"bound of 2^{SCAN_LIMIT} sets"
            )
    return tuple(b for b in closure if definable_bits(cells, b))


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
    return SetFamily(nm.universe, tuple(b for b in range(1 << n) if approx_bits(cells, b) == b))


def check_closure(family: SetFamily) -> CheckReport:
    """Verify closure under pairwise union and intersection.

    The verdict is read off the irreducible members, which are read off
    the cover pairs of ``family.order``.  A member g is join-irreducible
    when it differs from the union of its lower covers (the members
    strictly inside g all lie inside one of them, so that union is the
    union of everything strictly inside g).  Lemma: the family is closed
    under union iff x | g is a member for every member x and every
    join-irreducible member g.  Proof sketch, by induction on |y|: a
    reducible y (the empty set included) is the union y1 | ... | yk of its
    lower covers, so x | y is ((x | y1) | ...) | yk, and each step joins a
    member to a smaller member.  Dually, m is meet-irreducible when it
    differs from the intersection of its upper covers, or from the
    universe when it has none, and the family is closed under
    intersection iff x & m is a member for every member x and every
    meet-irreducible member m (by induction on the size of the
    complement, the universe being the empty intersection).  In a lattice
    these are the usual join- and meet-irreducibles, and every element is
    a join of the former and a meet of the latter.

    Only a family that fails runs the pair scan that names the witness:
    each pair once with i <= j, and all unions before any intersection.
    On failure the witness names the first offending pair, the missing
    set, and which operation produced it.
    """
    masks = family.masks
    present = family.bitset()
    joins = [0] * len(masks)
    meets = [(1 << family.universe.size) - 1] * len(masks)
    for j, k in family.order.covers:
        joins[k] |= masks[j]
        meets[j] &= masks[k]
    failures = []
    for tag, combine, spans in (
        ("union-closure", int.__or__, joins),
        ("intersection-closure", int.__and__, meets),
    ):
        generators = [g for g, span in zip(masks, spans) if g != span]
        if all(present.issuperset(map(combine, masks, repeat(g))) for g in generators):
            continue
        for i, x in enumerate(masks):
            row = masks[i:]
            if not present.issuperset(map(combine, repeat(x), row)):
                j = next(j for j, y in enumerate(row, i) if combine(x, y) not in present)
                missing = Subset(family.universe, combine(x, masks[j]))
                witness = {"x": family.members[i], "y": family.members[j], "missing": missing}
                failures.append(AxiomFailure(tag, witness))
                break
    return CheckReport("closure", failures=tuple(failures))
