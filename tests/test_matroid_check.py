"""``check_matroid`` against the pair scan it replaced.

``pair_scan_check_matroid`` below is the earlier checker, kept here as
the reference: heredity runs over every subset of every member in
canonical order, augmentation over every ordered pair of members.  The
checker must give the same report, witness for witness and byte for
byte, and the same verdict as the raw-mask oracle ``is_matroid_masks``:

- on seeded families over at most six elements, built to reach all
  seven verdict shapes (which of I1, I2 and I3 fail);
- on every distinct definable family of a covering or a relation over
  at most four elements.
"""

from __future__ import annotations

import random
from itertools import product

from roughmatroids import (
    BinaryRelation,
    SetFamily,
    Subset,
    Universe,
    check_matroid,
    definable_family,
)
from roughmatroids.core import canonical_mask_key
from roughmatroids.fileio import dumps, report_payload
from roughmatroids.oracle import is_matroid_masks
from roughmatroids.report import AxiomFailure, CheckReport
from support import preorder_coverings

LABELS = "abcdef"
SEEDED = 6000
# failed axioms of a report, by verdict shape; {I1, I3} without I2 cannot
# occur, since a family without the empty set but with a member lacks a
# subset, and the empty family passes I3
SHAPES = {(), ("I1",), ("I2",), ("I3",), ("I1", "I2"), ("I2", "I3"), ("I1", "I2", "I3")}


def _subsets_canonical(bits: int) -> list[int]:
    subs = [0]
    rest = bits
    while rest:
        low = rest & -rest
        subs += [s | low for s in subs]
        rest &= rest - 1
    return sorted(subs, key=lambda s: canonical_mask_key(s, bits.bit_length()))


def _augments(family: SetFamily, i1: Subset, i2: Subset) -> bool:
    gap = i2.bits & ~i1.bits
    while gap:
        low = gap & -gap
        if i1.bits | low in family.bitset():
            return True
        gap &= gap - 1
    return False


def pair_scan_check_matroid(universe: Universe, family: SetFamily) -> CheckReport:
    failures = []
    empty = universe.empty()
    if empty not in family:
        failures.append(AxiomFailure("I1", {"missing": empty}))

    def i2_failure():
        for ind in family:
            for sub in _subsets_canonical(ind.bits):
                if sub not in family.bitset():
                    return AxiomFailure("I2", {"I": ind, "I'": Subset(universe, sub)})
        return None

    def i3_failure():
        for i1 in family:
            for i2 in family:
                if len(i1) < len(i2) and not _augments(family, i1, i2):
                    return AxiomFailure("I3", {"I1": i1, "I2": i2})
        return None

    for finder in (i2_failure, i3_failure):
        failure = finder()
        if failure is not None:
            failures.append(failure)
    return CheckReport("matroid", failures=tuple(failures))


def _down_closure(masks) -> set[int]:
    closed = set()
    for m in masks:
        closed.update(_subsets_canonical(m))
    return closed


def seeded_family(rng: random.Random) -> SetFamily:
    """A family over at most six elements: raw random sets, a downward
    closure (a matroid or an I3 failure), or a closure with a member
    removed or a stray set added."""
    n = rng.randint(1, 6)
    universe = Universe(tuple(LABELS[:n]))
    masks = {rng.getrandbits(n) for _ in range(rng.randint(0, 5))}
    kind = rng.randrange(4)
    if kind:
        masks = _down_closure(masks)
    if kind == 2 and masks:
        masks.discard(rng.choice(sorted(masks)))
    if kind == 3:
        masks.add(rng.getrandbits(n))
    return SetFamily.from_bits(universe, masks)


def shape(report: CheckReport) -> tuple[str, ...]:
    return tuple(f.axiom for f in report.failures)


def assert_same_report(universe: Universe, family: SetFamily) -> CheckReport:
    report = check_matroid(universe, family)
    expected = pair_scan_check_matroid(universe, family)
    assert dumps(report_payload(report)) == dumps(report_payload(expected))
    assert report.passed is is_matroid_masks(family.bitset())
    return report


def test_seeded_families_match_the_pair_scan_in_every_verdict_shape():
    rng = random.Random(13)
    shapes = set()
    for _ in range(SEEDED):
        family = seeded_family(rng)
        shapes.add(shape(assert_same_report(family.universe, family)))
    assert shapes == SHAPES


def _definable_families() -> dict[frozenset[int], SetFamily]:
    """Every distinct definable family of a covering or of a relation
    over at most four elements."""
    out = {}
    for n in (1, 2, 3, 4):
        universe = Universe(tuple(LABELS[:n]))
        # one covering per neighborhood map: the family depends on no more
        structures = [c for c in preorder_coverings() if c.universe.size == n]
        pairs = list(product(range(n), repeat=2))
        for selection in range(1 << len(pairs)):
            chosen = [p for i, p in enumerate(pairs) if selection >> i & 1]
            structures.append(BinaryRelation(universe, frozenset(chosen)))
        for structure in structures:
            family = definable_family(structure.neighborhoods)
            out.setdefault(family.bitset(), family)
    return out


def test_every_small_definable_family_matches_the_pair_scan():
    families = _definable_families()
    shapes = {shape(assert_same_report(f.universe, f)) for f in families.values()}
    assert len(families) == 618
    # a definable family holds the empty set and is closed under union, so
    # a hereditary one is the powerset of its union: I1 never fails, and
    # I3 only together with I2
    assert shapes == {(), ("I2",), ("I2", "I3")}


def test_powersets_with_and_without_a_removed_set():
    for n in (8, 11):
        universe = Universe(tuple(f"x{i}" for i in range(n)))
        assert check_matroid(universe, SetFamily.from_bits(universe, range(1 << n))).passed
    # without {x0, x1}, the first member above it is the first to lack a subset
    universe = Universe(tuple(f"x{i}" for i in range(8)))
    family = SetFamily.from_bits(universe, set(range(1 << 8)) - {0b11})
    report = assert_same_report(universe, family)
    assert report.failures[0].witness["I"].bits == 0b111
    assert report.failures[0].witness["I'"].bits == 0b11
