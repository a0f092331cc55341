"""The rough-matroid kernel on index masks against the member scan it
replaced.

``scan_check`` and ``scan_ci3_prime`` below are the member-against-member
scans the package used before its kernel took the candidate as a mask over
the definable family.  Every report of the mask kernel, of the four
approximation checkers and of ``check_ci3_prime`` must equal theirs, JSON
payload for JSON payload.  The module also checks how the order of a
family is kept (once per family, freed with it, bounded rows), that
``SetFamily`` puts members given out of order into canonical order, and
that enumeration checks each subfamily index once and builds a family
only for the rough matroids it returns.
"""

from __future__ import annotations

import random
import tracemalloc
import weakref
from functools import partial

import pytest

from roughmatroids import (
    Covering,
    SetFamily,
    Subset,
    Universe,
    check_ci3_prime,
    check_lower_rough_matroid_covering,
    check_lower_rough_matroid_relation,
    check_matroid,
    check_matroid_condition,
    check_rough_matroid_covering,
    check_upper_rough_matroid_covering,
    check_upper_rough_matroid_relation,
    definable_family,
    enumerate_rough_matroids,
    neighborhoods_of_covering,
    random_relation,
    successor_neighborhoods,
)
from roughmatroids import definable, oracle
from roughmatroids.core import canonical_mask_key, lower_approx_bits, upper_approx_bits
from roughmatroids.axioms import _check_rough_given
from roughmatroids.fileio import dumps, report_payload
from roughmatroids.report import AxiomFailure, CheckReport

from support import chain_covering, hex_covering, seeded_coverings, small_neighborhood_maps

TAGS = ("CI1", "CI2", "CI3")


def scan_check(check, dfam, family, tags, include_exchange=True, approx=None):
    """The member-scan kernel: definability, then the empty set, heredity
    over definable subsets and exchange on the members' images."""
    inside = family.bitset()
    if family.universe != dfam.universe or not inside <= dfam.bitset():
        stray = next((m for m in family if m not in dfam), None)
        if stray is not None:
            note = "candidate family must consist of definable sets"
            failure = AxiomFailure("definability", {"member": stray}, note=note)
            return CheckReport(check, failures=(failure,))
    t1, t2, t3 = tags
    members = family.members
    images = [m.bits if approx is None else approx(m.bits) for m in members]
    failures = []
    if 0 not in inside:
        failures.append(AxiomFailure(t1, {"missing": family.universe.empty()}))

    def heredity_failure():
        for ind, image in zip(members, images):
            for cand in dfam:
                sub = cand.bits
                if (
                    sub & ~ind.bits == 0
                    and sub not in inside
                    and (approx is None or approx(sub) & ~image == 0)
                ):
                    return AxiomFailure(t2, {"I": ind, "I'": cand})
        return None

    def exchange_failure():
        sizes = [image.bit_count() for image in images]
        for i1, a1, s1 in zip(members, images, sizes):
            for i2, a2, s2 in zip(members, images, sizes):
                if s1 < s2:
                    hi = a1 | a2
                    if not any(a1 & ~a == 0 and a != a1 and a & ~hi == 0 for a in images):
                        return AxiomFailure(t3, {"I1": i1, "I2": i2})
        return None

    finders = [heredity_failure] + ([exchange_failure] if include_exchange else [])
    for finder in finders:
        failure = finder()
        if failure is not None:
            failures.append(failure)
    return CheckReport(check, failures=tuple(failures))


def scan_ci3_prime(covering, family):
    """The member-scan form of the equal-cardinality exchange check."""
    dfam = definable_family(neighborhoods_of_covering(covering))
    base = scan_check("ci3prime", dfam, family, TAGS, include_exchange=False)
    if base.failed_axiom == "definability":
        return base
    failures = list(base.failures)
    masks = [m.bits for m in family]
    for d in dfam:
        inside = [b for b in masks if b & ~d.bits == 0]
        maximal = [b for b in inside if all(b == o or b & ~o for o in inside)]
        sizes = [b.bit_count() for b in maximal]
        if len(set(sizes)) > 1:
            other = next(b for b, k in zip(maximal, sizes) if k != sizes[0])
            u = family.universe
            witness = {"D": d, "I1": Subset(u, maximal[0]), "I2": Subset(u, other)}
            failures.append(AxiomFailure("CI3'", witness))
            break
    return CheckReport("ci3prime", failures=tuple(failures))


def same(a, b):
    return dumps(report_payload(a)) == dumps(report_payload(b))


def small_seeded_coverings(count):
    return seeded_coverings(count, sizes=range(9, 13), seeds=400, widths=(5, 6))


def non_definable_families(universe, rng, count):
    """Random families of arbitrary subsets, most of them not definable."""
    n = universe.size
    return [
        SetFamily.from_bits(universe, {rng.randrange(1 << n) for _ in range(rng.randint(0, 6))})
        for _ in range(count)
    ]


class TestPlainKernel:
    def test_every_hex_subfamily(self):
        dfam = definable_family(neighborhoods_of_covering(hex_covering()))
        assert len(dfam) == 16
        order = dfam.order
        for mask in range(1 << 16):
            new = _check_rough_given("rough-cov", order, mask, TAGS)
            old = scan_check("rough-cov", dfam, dfam.subfamily(mask), TAGS)
            # equal reports (witness subsets and all) have equal payloads
            assert new == old, mask

    def test_every_subfamily_of_seeded_coverings(self):
        for covering in small_seeded_coverings(6):
            dfam = definable_family(neighborhoods_of_covering(covering))
            for mask in range(1 << len(dfam)):
                family = dfam.subfamily(mask)
                new = check_rough_matroid_covering(covering, family)
                assert new == scan_check("rough-cov", dfam, family, TAGS), mask

    def test_ci3_prime_on_every_subfamily(self):
        for covering in [hex_covering(), *small_seeded_coverings(3)]:
            dfam = definable_family(neighborhoods_of_covering(covering))
            for mask in range(1 << min(len(dfam), 12)):
                family = dfam.subfamily(mask)
                assert check_ci3_prime(covering, family) == scan_ci3_prime(covering, family)

    def test_non_definable_families_fail_on_definability_alike(self):
        rng = random.Random(3)
        covering = hex_covering()
        dfam = definable_family(neighborhoods_of_covering(covering))
        for family in non_definable_families(covering.universe, rng, 200):
            new = check_rough_matroid_covering(covering, family)
            assert same(new, scan_check("rough-cov", dfam, family, TAGS))
            assert same(check_ci3_prime(covering, family), scan_ci3_prime(covering, family))


APPROX_CHECKERS = {
    "lower-cov": (check_lower_rough_matroid_covering, neighborhoods_of_covering, lower_approx_bits, "L"),
    "upper-cov": (check_upper_rough_matroid_covering, neighborhoods_of_covering, upper_approx_bits, "U"),
    "lower-rel": (check_lower_rough_matroid_relation, successor_neighborhoods, lower_approx_bits, "L"),
    "upper-rel": (check_upper_rough_matroid_relation, successor_neighborhoods, upper_approx_bits, "U"),
}


def seeded_structures(check):
    if check.endswith("-cov"):
        return [hex_covering(), *small_seeded_coverings(4)]
    return [random_relation(n, 0.35, seed) for n in (4, 5, 6) for seed in range(4)]


@pytest.mark.parametrize("check", sorted(APPROX_CHECKERS))
def test_approximation_checkers_match_the_scan(check):
    checker, neighborhoods, approx_bits, prefix = APPROX_CHECKERS[check]
    tags = (f"{prefix}I1", f"{prefix}I2", f"{prefix}I3")
    rng = random.Random(check)
    compared = 0
    for structure in seeded_structures(check):
        nm = neighborhoods(structure)
        dfam = definable_family(nm)
        approx = partial(approx_bits, nm.cell_bits)
        masks = {rng.randrange(1 << len(dfam)) for _ in range(150)} | {0, (1 << len(dfam)) - 1}
        families = [dfam.subfamily(m) for m in sorted(masks)]
        families += non_definable_families(structure.universe, rng, 20)
        for family in families:
            old = scan_check(check, dfam, family, tags, approx=approx)
            assert same(checker(structure, family), old), family
            compared += 1
    assert compared >= 400


def positional_key(bits):
    """The canonical key read position by position: the size, then every
    index up to the highest set bit that holds an element."""
    return (bits.bit_count(), tuple(i for i in range(bits.bit_length()) if (bits >> i) & 1))


def sparse_masks(rng, width, count):
    return [sum(1 << i for i in rng.sample(range(width), rng.randrange(9))) for _ in range(count)]


class TestCanonicalOrder:
    def test_members_out_of_order_are_sorted(self):
        u = Universe(("a", "b"))
        family = SetFamily(u, (0b11, 0b10, 0, 0b01))
        twin = SetFamily.from_bits(u, [0, 1, 2, 3])
        assert family == twin
        assert family.members == twin.members
        assert [m.bits for m in family] == [0, 1, 2, 3]
        rng = random.Random(11)
        with pytest.warns(UserWarning):
            wide = Universe(tuple(f"x{i}" for i in range(1024)))
        for universe, masks in ((u, range(4)), (wide, set(sparse_masks(rng, 1024, 500)))):
            ordered = sorted(masks, key=positional_key)
            shuffled = rng.sample(ordered, len(ordered))
            family = SetFamily(universe, tuple(shuffled))
            assert [m.bits for m in family] == ordered

    def test_key_is_the_size_then_the_ascending_indices(self):
        rng = random.Random(16)
        for n, masks in ((10, range(1 << 10)), (1024, set(sparse_masks(rng, 1024, 5000)))):
            key = partial(canonical_mask_key, n=n)
            assert len(set(map(key, masks))) == len(masks)
            assert sorted(masks, key=key) == sorted(masks, key=positional_key)

    def test_equal_sizes_order_by_lowest_differing_element(self):
        u = Universe(tuple("abcd"))
        masks = [0b1100, 0b0011, 0b1010, 0b0101, 0b0110, 0b1001]
        family = SetFamily(u, tuple(masks))
        keys = [canonical_mask_key(m.bits, 4) for m in family]
        assert keys == sorted(keys)
        assert [m.bits for m in family] == [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]

    def test_every_checker_reports_alike_on_a_reversed_family(self):
        covering = hex_covering()
        relation = random_relation(6, 0.35, 1)
        dfam = definable_family(neighborhoods_of_covering(covering))
        rng = random.Random(5)
        checks = [
            lambda f: check_matroid(covering.universe, f),
            lambda f: check_rough_matroid_covering(covering, f),
            lambda f: check_lower_rough_matroid_covering(covering, f),
            lambda f: check_upper_rough_matroid_covering(covering, f),
            lambda f: check_lower_rough_matroid_relation(relation, f),
            lambda f: check_upper_rough_matroid_relation(relation, f),
            lambda f: check_matroid_condition(covering, f),
            lambda f: check_ci3_prime(covering, f),
        ]
        families = [dfam] + [dfam.subfamily(rng.randrange(1 << 16)) for _ in range(30)]
        families += non_definable_families(covering.universe, rng, 30)
        for family in families:
            reordered = list(family.members)
            rng.shuffle(reordered)
            twin = SetFamily(family.universe, tuple(reversed(family.masks)))
            shuffled = SetFamily.of(family.universe, reordered)
            assert twin == family == shuffled
            for check in checks:
                assert same(check(twin), check(family))
                assert same(check(shuffled), check(family))


class TestOrder:
    def test_rows(self):
        # chain covering {a,b},{b,c}: D = {}, {b}, {a,b}, {b,c}, {a,b,c}
        order = definable_family(neighborhoods_of_covering(chain_covering())).order
        assert [m.bits for m in order.members] == [0, 0b010, 0b011, 0b110, 0b111]
        assert order.has == [0b10100, 0b11110, 0b11000]
        assert order.larger == [0b11110, 0b11100, 0b10000, 0]
        assert order.below[2] == 0b00111
        assert order.below[4] == 0b11111
        # the members strictly above member j
        assert order.over[order.images[1]] & order.larger[order.sizes[1]] == 0b11100
        assert order.over[order.images[4]] & order.larger[order.sizes[4]] == 0
        assert order.over[0b101] == 0b10000

    def test_tables_match_a_per_element_construction_past_one_block(self):
        def row(flags):
            return sum(1 << j for j, flag in enumerate(flags) if flag)

        rng = random.Random(3)
        n = 14
        u = Universe(tuple(f"x{i}" for i in range(n)))
        bits = rng.sample(range(1 << n), 2 * definable._BLOCK + 77)
        family = SetFamily.from_bits(u, bits)
        masks = list(family.masks)
        own = [row(a >> e & 1 for a in masks) for e in range(n)]
        assert definable._columns(masks, n) == own
        grown = [a | rng.getrandbits(n) for a in masks]
        for images in (None, grown):
            order = definable.MemberOrder(family, images)
            seen = masks if images is None else images
            assert order.has == [row(a >> e & 1 for a in seen) for e in range(n)]
            assert order.larger == [row(a.bit_count() > s for a in seen) for s in range(n + 1)]
            # below reads the members' own rows, whatever the images
            for j in rng.sample(range(len(masks)), 40):
                assert order.below[j] == row(a & ~masks[j] == 0 for a in masks)

    def test_order_is_built_once_and_freed_with_its_family(self):
        dfam = definable_family(neighborhoods_of_covering(hex_covering()))
        order = dfam.order
        assert dfam.order is order
        _check_rough_given("rough-cov", order, (1 << 16) - 1, TAGS)
        assert order.covers is order.covers
        gone = weakref.ref(order)
        del dfam, order
        # no reference cycle keeps the order: it goes without a collection
        assert gone() is None

    def test_memoised_rows_stay_within_their_bound(self, monkeypatch):
        monkeypatch.setattr(definable, "_MEMO_BITS", 16 * 4)
        dfam = definable_family(neighborhoods_of_covering(hex_covering()))
        family = SetFamily.from_bits(dfam.universe, [m.bits for m in dfam])
        order = family.order
        for mask in range(0, 1 << 16, 97):
            _check_rough_given("rough-cov", order, mask, TAGS)
        assert max(len(order.over), len(order.below)) <= 4
        assert same(
            _check_rough_given("rough-cov", order, (1 << 16) - 1, TAGS),
            scan_check("rough-cov", dfam, dfam, TAGS),
        )

    def test_check_over_a_huge_family_allocates_no_square_table(self):
        # the discrete 16-element covering: |D| = 2^16, so a |D| x |D|
        # table of bits alone would take 512 MiB
        u = Universe(tuple(f"x{i}" for i in range(16)))
        covering = Covering.from_labels(u, [[x] for x in u.labels])
        dfam = definable_family(neighborhoods_of_covering(covering))
        assert len(dfam) == 1 << 16
        rank_one = SetFamily.from_bits(u, [0] + [1 << i for i in range(16)])
        tracemalloc.start()
        try:
            report = check_rough_matroid_covering(covering, rank_one)
            lower = check_lower_rough_matroid_covering(covering, rank_one)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and lower.passed
        assert peak < 32 << 20


class TestMonotonicity:
    """``MemberOrder.below`` reads the member masks alone, which is sound
    because both operators are monotone on every neighborhood map."""

    def test_both_operators_are_monotone_on_the_definable_members(self):
        maps = 0
        # maps on which the operator moves some definable member, so the
        # image condition is not trivially the member condition
        unfixed = {lower_approx_bits: 0, upper_approx_bits: 0}
        for nm in small_neighborhood_maps():
            maps += 1
            dfam = definable_family(nm)
            masks = [m.bits for m in dfam]
            for approx in unfixed:
                images = [approx(nm.cell_bits, b) for b in masks]
                unfixed[approx] += images != masks
                for x, ax in zip(masks, images):
                    for y, ay in zip(masks, images):
                        assert x & ~y or not ax & ~ay
                # below[j] is the row of members inside j whose image also
                # lies inside j's image: the image condition adds nothing
                order = definable.MemberOrder(dfam, images)
                for j, (y, ay) in enumerate(zip(masks, images)):
                    row = sum(
                        1 << i for i, x in enumerate(masks) if not x & ~y and not images[i] & ~ay
                    )
                    assert order.below[j] == row
        assert maps == 1 + 4 + 29 + 2 + 16 + 512 + 48
        assert min(unfixed.values()) > 200

    def test_the_upper_operator_does_not_fix_definable_sets(self):
        nm = neighborhoods_of_covering(chain_covering())
        u = nm.universe
        b = u.subset(["b"])
        assert b in definable_family(nm)
        assert upper_approx_bits(nm.cell_bits, b.bits) == u.full().bits
        assert lower_approx_bits(nm.cell_bits, b.bits) == b.bits


class TestEnumerationCalls:
    def test_one_kernel_call_per_index_and_families_only_for_the_output(self, monkeypatch):
        covering = chain_covering()
        checked, built = [], []

        def kernel(check, order, picked, tags, include_exchange=True, *, stop_at_first=False):
            checked.append(picked)
            return _check_rough_given(
                check, order, picked, tags, include_exchange, stop_at_first=stop_at_first
            )

        def subfamily(dfam, mask):
            built.append(mask)
            return dfam.subfamily(mask)

        monkeypatch.setattr(oracle, "_check_rough_given", kernel)
        monkeypatch.setattr(oracle, "_subfamily", subfamily)
        families = enumerate_rough_matroids(covering)
        assert checked == list(range(32))
        dfam = definable_family(neighborhoods_of_covering(covering))
        assert built == [dfam.index_mask(f) for f in families]
        assert len(built) == 6
        checked.clear()
        built.clear()
        tail = enumerate_rough_matroids(covering, start=20)
        assert checked == list(range(20, 32))
        assert built == [m for m in (dfam.index_mask(f) for f in families) if m >= 20]
        assert len(tail) == len(built)
