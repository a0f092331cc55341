"""Byte-identity gate for the checker reports.

Every report over a fixed sweep of inputs is serialised with
``fileio.dumps(report_payload(...))`` and hashed, one sha256 per check.
The expected digests were recorded from the implementation that kept
separate plain and approximation scans, before both were folded into one
mask kernel, so a change to any verdict, witness, failure order or
serialisation shows up here.

The sweep: every covering with at most three elements, a seeded sample of
four-element coverings and a few seeded relations.  Each structure is
checked on every subfamily of its definable family when that family has
at most six members and on seeded subfamilies otherwise, plus seeded
families of arbitrary subsets, which exercise the definability
precondition.  Run the module as a script to print the digests.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

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
    neighborhoods_of_covering,
    random_relation,
    successor_neighborhoods,
)
from roughmatroids.fileio import dumps, report_payload

LABELS = "abcd"
SAMPLED_FOUR = 40
SAMPLED_SUBFAMILIES = 24
RELATIONS = ((3, 0.4, 1), (3, 0.6, 2), (4, 0.3, 3), (4, 0.5, 4), (4, 0.7, 5), (5, 0.4, 6))

ON_COVERING = {
    "matroid": lambda c, f: check_matroid(c.universe, f),
    "rough-cov": check_rough_matroid_covering,
    "lower-cov": check_lower_rough_matroid_covering,
    "upper-cov": check_upper_rough_matroid_covering,
    "matroid-cond": check_matroid_condition,
    "ci3prime": check_ci3_prime,
}
ON_RELATION = {
    "matroid": lambda r, f: check_matroid(r.universe, f),
    "lower-rel": check_lower_rough_matroid_relation,
    "upper-rel": check_upper_rough_matroid_relation,
}

EXPECTED = {
    "ci3prime": "fbb0c344d10bc294e08a515ce4e4f097d2f2739bc124da56d49c37e9939e6a83",
    "lower-cov": "dece9a84f06968447b0fb602b819c0fb677d573f3bc89dfd457de25a95f5d4e5",
    "lower-rel": "934e283d6e89ae29a8457affb488c345a1d7ecdfcf193f1dccead42c7bcb9130",
    "matroid": "f385dd27f81bc4b8fc4625bf5f7f8f5bdc987ab426a7b818150824be30b009a8",
    "matroid-cond": "264ee0695ee0d4cacb1b7fb2dd27d41a6be4d645b6423798d05e187d4e0690dc",
    "rough-cov": "7df64b166b2d9e810b22a8674f3f51caa4354535dfb2afee47c2183c3258ed8c",
    "upper-cov": "51496efb11ce3c07038dd04c2a56f2d046172880adc539c998609020bd60d636",
    "upper-rel": "087a177df3f917f8f31d4429eef129ad5283c03cd4512b85376e0b6ffc17f34a",
}


def _covering(universe: Universe, selection: int) -> Covering | None:
    full = (1 << universe.size) - 1
    blocks = [m for m in range(1, full + 1) if (selection >> (m - 1)) & 1]
    union = 0
    for b in blocks:
        union |= b
    if union != full:
        return None
    return Covering(universe, tuple(Subset(universe, b) for b in blocks))


def _coverings() -> list[Covering]:
    out = []
    for n in (1, 2, 3):
        universe = Universe(tuple(LABELS[:n]))
        for selection in range(1, 1 << ((1 << n) - 1)):
            covering = _covering(universe, selection)
            if covering is not None:
                out.append(covering)
    rng = random.Random(4)
    universe = Universe(tuple(LABELS))
    seen: set[int] = set()
    while len(seen) < SAMPLED_FOUR:
        selection = rng.getrandbits(15)
        covering = _covering(universe, selection)
        if covering is not None and selection not in seen:
            seen.add(selection)
            out.append(covering)
    return out


def _families(dfam: SetFamily, rng: random.Random) -> list[SetFamily]:
    base = len(dfam)
    if base <= 6:
        masks = range(1 << base)
    else:
        masks = sorted({rng.getrandbits(base) for _ in range(SAMPLED_SUBFAMILIES)})
    families = [
        SetFamily.of(dfam.universe, tuple(m for i, m in enumerate(dfam.members) if (mask >> i) & 1))
        for mask in masks
    ]
    n = dfam.universe.size
    for _ in range(2):
        bits = {rng.getrandbits(n) for _ in range(3)}
        families.append(SetFamily.from_bits(dfam.universe, bits))
    return families


@lru_cache(maxsize=None)
def _sweep() -> tuple[list, list]:
    """(structure, family) pairs on coverings and on relations."""
    rng = random.Random(0)
    on_coverings = [
        (c, f)
        for c in _coverings()
        for f in _families(definable_family(neighborhoods_of_covering(c)), rng)
    ]
    on_relations = []
    for n, density, seed in RELATIONS:
        relation = random_relation(n, density, seed)
        dfam = definable_family(successor_neighborhoods(relation))
        on_relations += [(relation, f) for f in _families(dfam, rng)]
    return on_coverings, on_relations


def digest(name: str) -> str:
    on_coverings, on_relations = _sweep()
    h = hashlib.sha256()
    for checks, pairs in ((ON_COVERING, on_coverings), (ON_RELATION, on_relations)):
        if name in checks:
            for structure, family in pairs:
                h.update(dumps(report_payload(checks[name](structure, family))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ON_COVERING.keys() | ON_RELATION.keys()))
def test_reports_are_byte_identical_to_the_recorded_digest(name):
    assert digest(name) == EXPECTED[name]


def test_sweep_reaches_every_small_covering_and_every_failed_axiom():
    on_coverings, on_relations = _sweep()
    assert len({c for c, _ in on_coverings}) == 1 + 5 + 109 + SAMPLED_FOUR
    reports = [check_rough_matroid_covering(c, f) for c, f in on_coverings]
    assert {r.failed_axiom for r in reports} >= {None, "definability", "CI1", "CI2", "CI3"}
    reports = [check_upper_rough_matroid_relation(r, f) for r, f in on_relations]
    assert {r.failed_axiom for r in reports} >= {None, "definability", "UI1", "UI2", "UI3"}


if __name__ == "__main__":
    for check in sorted(ON_COVERING.keys() | ON_RELATION.keys()):
        print(f'    "{check}": "{digest(check)}",')
