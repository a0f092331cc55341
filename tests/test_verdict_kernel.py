"""Verdict-only kernel runs against full ones.

Enumeration and the CI3' agreement stage of ``cross_check`` read only a
candidate's verdict, so they run the rough-matroid kernel with
``stop_at_first``, which returns at the first failed axiom.  Over every
subfamily index of the definable family of every covering with n <= 3, of
the hex covering and of seeded random coverings with |D| <= 14:

- the verdict report is the full report cut to its first failure, witness
  and all;
- ``enumerate_rough_matroids`` returns the indices a full-mode scan,
  written here, passes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from roughmatroids import (
    Covering,
    Subset,
    Universe,
    definable_family,
    enumerate_rough_matroids,
    neighborhoods_of_covering,
    random_covering,
)
from roughmatroids.axioms import _check_rough_given

from conftest import HEX_BLOCKS

TAGS = ("CI1", "CI2", "CI3")


def all_coverings(n):
    """Every covering of an n-element universe, as block masks."""
    u = Universe(tuple("abc"[:n]))
    nonempty = range(1, 1 << n)
    for pick in range(1, 1 << len(nonempty)):
        blocks = [b for i, b in enumerate(nonempty) if pick >> i & 1]
        union = 0
        for b in blocks:
            union |= b
        if union == (1 << n) - 1:
            yield Covering(u, tuple(Subset(u, b) for b in blocks))


def seeded_coverings(count=40):
    """Seeded n = 5-7 coverings whose definable family has 9..14 members."""
    out = []
    for seed in range(1000):
        covering = random_covering(5 + seed % 3, 0.35, seed)
        if 9 <= len(definable_family(neighborhoods_of_covering(covering))) <= 14:
            out.append(covering)
            if len(out) == count:
                return out
    raise AssertionError("too few seeded coverings in the size range")


def full_scan(covering):
    """Compare both kernel runs on every index; the indices that pass."""
    order = definable_family(neighborhoods_of_covering(covering)).order
    passing = []
    for mask in range(1 << len(order.members)):
        full = _check_rough_given("rough-cov", order, mask, TAGS)
        verdict = _check_rough_given("rough-cov", order, mask, TAGS, stop_at_first=True)
        assert verdict == replace(full, failures=full.failures[:1]), mask
        if full.passed:
            passing.append(mask)
    return passing


def enumerated(covering):
    dfam = definable_family(neighborhoods_of_covering(covering))
    return [dfam.index_mask(f) for f in enumerate_rough_matroids(covering)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_covering_up_to_three_elements(n):
    coverings = list(all_coverings(n))
    assert len(coverings) == {1: 1, 2: 5, 3: 109}[n]
    for covering in coverings:
        assert enumerated(covering) == full_scan(covering)


def test_hex_covering():
    covering = Covering.from_labels(Universe(tuple("abcdef")), HEX_BLOCKS)
    passing = full_scan(covering)
    assert enumerated(covering) == passing
    assert 0 < len(passing) < 1 << 16


def test_seeded_coverings():
    found = 0
    for covering in seeded_coverings():
        passing = full_scan(covering)
        assert enumerated(covering) == passing
        found += len(passing)
    assert found > 0
