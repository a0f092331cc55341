"""Verdict-only kernel runs against full ones.

Enumeration and the CI3' agreement stage of ``cross_check`` read only a
candidate's verdict, so they run the rough-matroid kernel, and that stage
also ``check_ci3_prime``, with ``stop_at_first``, which returns at the
first failure.  Over every subfamily index of the definable family of
every covering with n <= 3, of the hex covering and of seeded random
coverings with |D| <= 14:

- the verdict report of the kernel and of ``check_ci3_prime`` is the full
  report cut to its first failure, witness and all, and every shape of
  ``check_ci3_prime`` report occurs: a CI1, CI2 or CI3' failure first,
  or a pass;
- ``enumerate_rough_matroids`` returns the indices a full-mode scan,
  written here, passes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from roughmatroids import (
    CheckReport,
    check_ci3_prime,
    definable_family,
    enumerate_rough_matroids,
    neighborhoods_of_covering,
)
from roughmatroids.axioms import _check_rough_given

from support import hex_covering, seeded_coverings
from test_report_identity import _coverings

TAGS = ("CI1", "CI2", "CI3")


def cut(report):
    return CheckReport(report.check, report.failures[:1], report.notes, report.details)


def full_scan(covering, shapes):
    """Compare both runs of the kernel and of ``check_ci3_prime`` on every
    index, counting the full ``check_ci3_prime`` reports in ``shapes`` by
    first failed axiom; the indices that pass."""
    dfam = definable_family(neighborhoods_of_covering(covering))
    order = dfam.order
    passing = []
    for mask in range(1 << len(order.members)):
        full = _check_rough_given("rough-cov", order, mask, TAGS)
        verdict = _check_rough_given("rough-cov", order, mask, TAGS, stop_at_first=True)
        assert verdict == cut(full), mask
        family = dfam.subfamily(mask)
        prime = check_ci3_prime(covering, family)
        assert check_ci3_prime(covering, family, stop_at_first=True) == cut(prime), mask
        shapes[prime.failed_axiom or "pass"] += 1
        if full.passed:
            passing.append(mask)
    return passing


def enumerated(covering):
    dfam = definable_family(neighborhoods_of_covering(covering))
    return [dfam.index_mask(f) for f in enumerate_rough_matroids(covering)]


SHAPES = {"CI1", "CI2", "CI3'", "pass"}
# check_ci3_prime reports over every index of every covering with n
# elements, by first failed axiom; CI3' first needs three elements
SHAPES_BY_N = {
    1: {"CI1": 2, "pass": 2},
    2: {"CI1": 26, "CI2": 8, "pass": 18},
    3: {"CI1": 6170, "CI2": 4980, "CI3'": 150, "pass": 1040},
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_covering_up_to_three_elements(n):
    # the report-identity gate walks every block family on up to three elements
    coverings = [c for c in _coverings() if c.universe.size == n]
    assert len(coverings) == {1: 1, 2: 5, 3: 109}[n]
    shapes = Counter()
    for covering in coverings:
        assert enumerated(covering) == full_scan(covering, shapes)
    assert shapes == SHAPES_BY_N[n]


def test_hex_covering():
    covering = hex_covering()
    shapes = Counter()
    passing = full_scan(covering, shapes)
    assert enumerated(covering) == passing
    assert len(passing) == 25
    assert shapes == {"CI1": 32768, "CI2": 32601, "CI3'": 142, "pass": 25}


def test_seeded_coverings():
    found = 0
    shapes = Counter()
    for covering in seeded_coverings(40, sizes=range(9, 15), seeds=1000, widths=(5, 6, 7)):
        passing = full_scan(covering, shapes)
        assert enumerated(covering) == passing
        found += len(passing)
    assert found > 0
    assert set(shapes) == SHAPES
