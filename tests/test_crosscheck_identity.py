"""Byte-identity gate for the ``cross_check`` law-suite report.

Forty seeded coverings with four to nine elements are each run through
``cross_check`` with the budget seeded from the covering's seed, and every
report is serialised with ``fileio.dumps(report_payload(...))`` into one
sha256.  The definable families range from 6 to 168 members, on both
sides of the exhaustive triple scan (40 members) and the exhaustive pair
scan (64 members), so the exhaustive and the seeded sampled stages are all
covered, and a sampled stage that draws differently moves every later
stage's samples too.  The expected digest was recorded from the
implementation that checked the lattice laws and the CI3/CI3' agreement
on ``Subset`` members, before those stages moved to member masks.

A second gate runs eight seeded coverings at the sizes of the benchmark's
law suite, ten and eleven elements with 173 to 312 definable sets, where
both the lattice-law triples and the extension pairs are sampled.  Its
digest was recorded from the implementation that recomputed the
approximations for each stage and scanned the extension pairs one element
at a time.  Run the module as a script to print both digests.
"""

from __future__ import annotations

import hashlib

from roughmatroids import (
    EnumerationBudget,
    cross_check,
    definable_family,
    neighborhoods_of_covering,
    random_covering,
)
from roughmatroids.fileio import dumps, report_payload

SEEDS = range(40)
DENSITIES = (0.2, 0.3, 0.45)

EXPECTED = "d456138a6c8b70b475c7907c4ed2330022c7c9b416343aeda605240e23c76282"

LAWSUITE_SEEDS = (1089, 1004, 1003, 1021, 1026, 1016, 1103, 1036)
LAWSUITE_DENSITY = 0.3

LAWSUITE_EXPECTED = "c61245775b40c0921e41b57b755c3f7e7dad59e25152a88e5db00c2eb9467110"


def _cases():
    for s in SEEDS:
        yield s, random_covering(4 + s % 6, DENSITIES[s % 3], s)


def _lawsuite_cases():
    for s in LAWSUITE_SEEDS:
        yield s, random_covering(10 + s % 2, LAWSUITE_DENSITY, s)


def digest(cases=_cases) -> str:
    h = hashlib.sha256()
    for s, covering in cases():
        report = cross_check(covering, EnumerationBudget(seed=s))
        h.update(dumps(report_payload(report)).encode())
    return h.hexdigest()


def test_cross_check_reports_are_byte_identical_to_the_recorded_digest():
    assert digest() == EXPECTED


def test_sweep_straddles_the_scan_limits():
    sizes = sorted(
        len(definable_family(neighborhoods_of_covering(c))) for _, c in _cases()
    )
    assert sizes[0] <= 6 and sizes[-1] > 150
    assert 40 in sizes and any(40 < k <= 64 for k in sizes)
    assert 64 in sizes and any(k > 64 for k in sizes)


def test_lawsuite_sized_reports_are_byte_identical_to_the_recorded_digest():
    assert digest(_lawsuite_cases) == LAWSUITE_EXPECTED


def test_lawsuite_sweep_samples_triples_and_pairs():
    for _, covering in _lawsuite_cases():
        assert covering.universe.size in (10, 11)
        assert 169 <= len(definable_family(neighborhoods_of_covering(covering))) <= 320
    assert {c.universe.size for _, c in _lawsuite_cases()} == {10, 11}


if __name__ == "__main__":
    print(f'EXPECTED = "{digest()}"')
    print(f'LAWSUITE_EXPECTED = "{digest(_lawsuite_cases)}"')
