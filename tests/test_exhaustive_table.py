"""The paper's claims as one exhaustive table over every small input.

Covering neighborhood maps are exactly the successor maps of preorders:
the covering {R(x)} of a preorder R has R as its neighborhood map, and
every covering's map is a preorder.  So every neighborhood map with one
to four elements is reached once by the coverings of the 1 + 4 + 29 +
355 = 389 preorders (OEIS A000798, ``support.preorder_coverings``), and
the definable sets of each are the down-sets of its preorder.  Relations
get no such shortcut: all 530 relations on one to three elements are
enumerated directly (``support.small_relations``).

The counts below are a regression gate, fixed from an independent
enumeration; a change that moves one is a change in what the library
decides, not a number to refit.  On each map:

- the definable family is closed under union and intersection;
- every ideal of (D, ⊆) that holds ∅ passes CI1 and CI2, and CI3 agrees
  with CI3′ on it; 4,381 ideals, 3,432 rough matroids, 1,657 of them
  classical matroids, and the matroid condition holds on every one;
- the uniform proposition holds for every bound r, 1,516 (map, r) pairs,
  and on 1,415 of them the uniform family is a rough matroid although
  some neighborhood is not a singleton (the condition is sufficient
  only).

For relations the lattice claim is specific to coverings: union closure
never fails, intersection closure fails on 3 of the 530.

The module also checks ``MemberOrder.covers`` against a brute-force cover
relation and ``MemberOrder.maximal`` against a brute-force maximal-member
search on seeded selections, on every one of these definable families,
and that ``check_closure`` combines the members with the irreducible
members alone.
"""

from __future__ import annotations

import random
from collections import Counter

from roughmatroids import (
    SetFamily,
    build_lattice,
    check_ci3_prime,
    check_closure,
    check_matroid,
    check_matroid_condition,
    check_rough_matroid_covering,
    check_uniform_proposition,
    definable_family,
    neighborhoods_of_covering,
    successor_neighborhoods,
)
from support import brute_covers, ideals, preorder_coverings, small_relations


def table_families():
    """The definable family of every preorder covering, then of every
    small relation."""
    for covering in preorder_coverings():
        yield definable_family(neighborhoods_of_covering(covering))
    for relation in small_relations():
        yield definable_family(successor_neighborhoods(relation))


def brute_maximal(family, mask):
    """The selected members inside no other selected member, highest
    first."""
    masks = [m.bits for m in family.members]
    picked = [j for j in range(len(masks)) if mask >> j & 1]
    return [
        j
        for j in reversed(picked)
        if not any(k != j and masks[j] & ~masks[k] == 0 for k in picked)
    ]


def irreducible_count(family):
    """Join-irreducible members (not the union of the members strictly
    inside) plus meet-irreducible ones (not the intersection of the
    members strictly above, the universe when there are none)."""
    masks = [m.bits for m in family.members]
    full = (1 << family.universe.size) - 1
    count = 0
    for g in masks:
        join, meet = 0, full
        for x in masks:
            if x != g and x & ~g == 0:
                join |= x
            if x != g and g & ~x == 0:
                meet &= x
        count += (join != g) + (meet != g)
    return count


def test_neighborhood_maps_are_the_preorders():
    coverings = preorder_coverings()
    sizes = Counter(c.universe.size for c in coverings)
    assert sizes == {1: 1, 2: 4, 3: 29, 4: 355}
    maps = {(c.universe.size, neighborhoods_of_covering(c).cell_bits) for c in coverings}
    assert len(maps) == len(coverings) == 389
    # the definable sets are the down-sets of the preorder
    for covering in coverings:
        succ = neighborhoods_of_covering(covering).cell_bits
        down_sets = {
            x
            for x in range(1 << len(succ))
            if all(succ[e] & ~x == 0 for e in range(len(succ)) if x >> e & 1)
        }
        assert definable_family(neighborhoods_of_covering(covering)).bitset() == down_sets


def test_rough_matroid_table():
    counts = Counter()
    for covering in preorder_coverings():
        dfam = definable_family(neighborhoods_of_covering(covering))
        assert check_closure(dfam).passed
        build_lattice(dfam)
        for mask in ideals(dfam):
            counts["ideals"] += 1
            family = dfam.subfamily(mask)
            rough = check_rough_matroid_covering(covering, family)
            assert {f.axiom for f in rough.failures} <= {"CI3"}
            assert check_ci3_prime(covering, family).passed == rough.passed
            if rough.passed:
                counts["rough"] += 1
                counts["classical"] += check_matroid(covering.universe, family).passed
                assert check_matroid_condition(covering, family).passed
    assert counts == {"ideals": 4381, "rough": 3432, "classical": 1657}


def test_uniform_table():
    counts = Counter()
    for covering in preorder_coverings():
        for r in range(1, covering.universe.size + 1):
            report = check_uniform_proposition(covering, r)
            assert report.passed, (covering, r)
            counts["pairs"] += 1
            details = report.details
            if details["is_rough_matroid"] and not details["singleton_neighborhoods_everywhere"]:
                counts["sufficient only"] += 1
    assert counts == {"pairs": 1516, "sufficient only": 1415}


def test_intersection_closure_fails_on_three_small_relations():
    failed = Counter()
    for relation in small_relations():
        report = check_closure(definable_family(successor_neighborhoods(relation)))
        failed.update(f.axiom for f in report.failures)
    assert len(small_relations()) == 530
    assert failed == {"intersection-closure": 3}


def test_covers_match_the_brute_force_cover_relation():
    rng = random.Random(4)
    for family in table_families():
        assert family.order.covers == brute_covers(family)
        full = (1 << len(family)) - 1
        for mask in {0, full, *(rng.randrange(full + 1) for _ in range(6))}:
            assert family.order.maximal(mask) == brute_maximal(family, mask)


class _CountedSet(frozenset):
    """A frozenset that counts the calls to ``issuperset``."""

    calls = 0

    def issuperset(self, other):
        _CountedSet.calls += 1
        return frozenset.issuperset(self, other)


def test_closure_combines_with_the_irreducible_members_alone(monkeypatch):
    # On a closed family check_closure tests x | g and x & m for every
    # member x once per irreducible g and m, one superset test each.
    bitset = SetFamily.bitset
    monkeypatch.setattr(SetFamily, "bitset", lambda self: _CountedSet(bitset(self)))
    for covering in preorder_coverings():
        family = definable_family(neighborhoods_of_covering(covering))
        _CountedSet.calls = 0
        assert check_closure(family).passed
        assert _CountedSet.calls == irreducible_count(family)

