"""The paper's claim that rough matroids over coverings generalize rough
matroids over relations, stated on every small preorder.

For a preorder R (reflexive and transitive), the covering made of the
distinct successor sets R(x) has R's successor map as its neighborhood
map: R(x) holds x, and any R(y) that holds x lies over R(x) by
transitivity, so the intersection of the blocks holding x is R(x).  The
lower and upper rough-matroid checks over that covering and over R then
read the same neighborhoods and must give the same report, up to the
check's name.  Transitivity is needed: on three points every reflexive
relation that is not transitive has a covering map that differs from it.
"""

from __future__ import annotations

from dataclasses import replace

from roughmatroids import (
    BinaryRelation,
    Covering,
    Universe,
    check_lower_rough_matroid_covering,
    check_lower_rough_matroid_relation,
    check_upper_rough_matroid_covering,
    check_upper_rough_matroid_relation,
    definable_family,
    neighborhoods_of_covering,
)
from support import ideals, preorders

PAIRS = (
    (check_lower_rough_matroid_covering, check_lower_rough_matroid_relation),
    (check_upper_rough_matroid_covering, check_upper_rough_matroid_relation),
)


def relation_and_covering(u: Universe, succ: list[int]) -> tuple[BinaryRelation, Covering]:
    """The relation with successor masks ``succ`` and the covering made of
    its distinct successor sets."""
    n = u.size
    pairs = frozenset((x, y) for x in range(n) for y in range(n) if succ[x] >> y & 1)
    covering = Covering(u, tuple(u.from_bits(b) for b in sorted(set(succ))))
    return BinaryRelation(u, pairs), covering


def subfamily_indices(dfam) -> set[int]:
    """Every ideal of the definable family, where both checks get past
    their first two axioms to the exchange axiom, and about eight indices
    on an odd stride over all of them (every index when |D| <= 3), so
    that failures of each axiom and both parities of the empty set's bit
    are compared too.  Every index of every family would take seconds,
    since three of the four checks (all but lower-cov, which runs on the
    family's own order) rebuild the inclusion order of their images."""
    size = len(dfam)
    return set(ideals(dfam)) | set(range(0, 1 << size, (1 << size >> 3) | 1))


def test_covering_checks_equal_relation_checks_on_every_preorder():
    counts, families, verdicts = [], 0, set()
    for n in range(1, 5):
        u = Universe(tuple("abcd"[:n]))
        found = list(preorders(n))
        counts.append(len(found))
        for succ in found:
            relation, covering = relation_and_covering(u, succ)
            nm = neighborhoods_of_covering(covering)
            assert nm == relation.neighborhoods
            dfam = definable_family(nm)
            for mask in subfamily_indices(dfam):
                family = dfam.subfamily(mask)
                families += 1
                for on_covering, on_relation in PAIRS:
                    expected = on_relation(relation, family)
                    assert replace(on_covering(covering, family), check=expected.check) == expected
                    verdicts.add((expected.check, expected.failed_axiom))
    assert counts == [1, 4, 29, 355]  # OEIS A000798
    assert families == 6_948
    assert verdicts == {
        (check, axiom) for check, p in (("lower-rel", "L"), ("upper-rel", "U"))
        for axiom in (None, f"{p}I1", f"{p}I2", f"{p}I3")
    }


def test_transitivity_is_needed_on_three_points():
    u = Universe(tuple("abc"))
    pairs = [(x, y) for x in range(3) for y in range(3) if x != y]
    preorder_maps = {tuple(succ) for succ in preorders(3)}
    differing = 0
    for bits in range(1 << len(pairs)):
        succ = [1 << x for x in range(3)]
        for k, (x, y) in enumerate(pairs):
            succ[x] |= (bits >> k & 1) << y
        if tuple(succ) in preorder_maps:
            continue
        relation, covering = relation_and_covering(u, succ)
        assert neighborhoods_of_covering(covering) != relation.neighborhoods
        differing += 1
    assert differing == 35
