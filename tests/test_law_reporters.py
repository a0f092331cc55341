"""The reporters of the paper's theorems, driven to report a violation.

On correct code these theorems hold, so no real input reaches the branch
that reports one failing.  Each test replaces the one collaborator that the
check compares against, with ``monkeypatch``, and checks what the report or
the error says: the axiom, every witness key and value, the note, and that
``fileio.report_payload`` serialises the report.
"""

from __future__ import annotations

import json

import pytest

from roughmatroids import (
    Covering,
    EnumerationBudget,
    LatticeDiagram,
    LawViolationError,
    SetFamily,
    Universe,
    check_matroid_condition,
    check_uniform_proposition,
    cross_check,
    definable_family,
    neighborhoods_of_covering,
    one_point_extension_blocked,
)
from roughmatroids import axioms, constructions, definable, oracle
from roughmatroids.axioms import _check_rough_given
from roughmatroids.fileio import report_payload
from roughmatroids.report import AxiomFailure, CheckReport
from support import MIXED4_BLOCKS

FAILED = CheckReport("stub", failures=(AxiomFailure("stub", {}),))
PASSED = CheckReport("stub")


def discrete_covering(n: int) -> Covering:
    universe = Universe(tuple("abcd"[:n]))
    return Covering.from_labels(universe, [[x] for x in universe.labels])


def payload_of(report: CheckReport) -> dict:
    """``report_payload`` of the report, round-tripped through JSON."""
    payload = report_payload(report)
    assert json.loads(json.dumps(payload)) == payload
    return payload


def test_ci3prime_disagreement_is_reported(monkeypatch, hex_covering):
    seen = []

    def always_passes(covering, family, stop_at_first=False):
        seen.append(family)
        return PASSED

    monkeypatch.setattr(oracle, "check_ci3_prime", always_passes)
    report = cross_check(hex_covering, EnumerationBudget(seed=3))
    assert report.details["ci3prime_agreement"] == "fail"
    failure = report.failures[-1]
    assert failure.axiom == "ci3prime-agreement"
    assert failure.note == "the two exchange axiomatisations disagreed"
    # the stage stops at the first sampled subfamily the kernel fails
    dfam = definable_family(neighborhoods_of_covering(hex_covering))
    indices = [dfam.index_mask(family) for family in seen]
    verdicts = [
        _check_rough_given("rough-cov", dfam.order, m, ("CI1", "CI2", "CI3")).passed
        for m in indices
    ]
    assert verdicts[-1] is False and all(verdicts[:-1])
    assert failure.witness == {"subfamily_index": indices[-1]}
    assert payload_of(report)["failures"][-1] == {
        "axiom": "ci3prime-agreement",
        "witness": {"subfamily_index": indices[-1]},
        "note": "the two exchange axiomatisations disagreed",
    }


@pytest.mark.parametrize(
    "blocks, members, real_matroid, element",
    [
        # singleton neighborhoods on the support {a, c}: both sides true
        ([["a"], ["b"], ["c"], ["d"]], [[], ["a"], ["c"]], True, None),
        # N(b) = {a, b} on the support {a, b}: both sides false
        (
            MIXED4_BLOCKS,
            [[], ["a"], ["a", "b"]],
            False,
            "b",
        ),
    ],
)
def test_matroid_condition_equivalence_failure(
    monkeypatch, blocks, members, real_matroid, element
):
    universe = Universe(tuple("abcd"))
    covering = Covering.from_labels(universe, blocks)
    family = SetFamily.from_labels(universe, members)
    assert check_matroid_condition(covering, family).passed
    monkeypatch.setattr(axioms, "check_matroid", lambda u, f: FAILED if real_matroid else PASSED)
    report = check_matroid_condition(covering, family)
    expected = {"is_matroid": not real_matroid, "singleton_neighborhoods": real_matroid}
    if element is not None:
        expected["element"] = element
    assert report.failed_axiom == "equivalence"
    assert dict(report.witness) == expected
    assert report.failures[0].note == "the two sides disagree"
    payload = payload_of(report)
    assert payload["pass"] is False
    assert payload["failures"] == [
        {"axiom": "equivalence", "witness": expected, "note": "the two sides disagree"}
    ]


def test_uniform_singleton_implies_rough_failure(monkeypatch):
    covering = discrete_covering(3)
    assert check_uniform_proposition(covering, 2).passed
    monkeypatch.setattr(constructions, "check_rough_matroid_covering", lambda c, f: FAILED)
    report = check_uniform_proposition(covering, 2)
    assert [f.axiom for f in report.failures] == ["singleton-implies-rough"]
    failure = report.failures[0]
    assert dict(failure.witness) == {"r": 2}
    assert failure.note == "all neighborhoods are singletons yet the uniform family fails"
    assert payload_of(report)["failures"] == [
        {"axiom": "singleton-implies-rough", "witness": {"r": 2}, "note": failure.note}
    ]


def test_uniform_matroid_iff_singleton_support_failure(monkeypatch):
    covering = discrete_covering(3)
    monkeypatch.setattr(constructions, "check_matroid", lambda u, f: FAILED)
    report = check_uniform_proposition(covering, 2)
    assert [f.axiom for f in report.failures] == ["matroid-iff-singleton-support"]
    failure = report.failures[0]
    witness = {"r": 2, "is_matroid": False, "singleton_support": True}
    assert dict(failure.witness) == witness
    assert failure.note == ""
    assert payload_of(report)["failures"] == [
        {"axiom": "matroid-iff-singleton-support", "witness": witness}
    ]


def test_one_point_extension_disagreement_raises(monkeypatch, hex_covering, hex_universe):
    d1, d2 = hex_universe.subset(["e"]), hex_universe.subset(["a", "d", "f"])
    assert one_point_extension_blocked(hex_covering, d1, d2, "a")
    monkeypatch.setattr(constructions, "extension_sides", lambda c, a, b, idx: (True, False))
    with pytest.raises(LawViolationError) as err:
        one_point_extension_blocked(hex_covering, d1, d2, "a")
    assert str(err.value) == (
        "one-point-extension criterion disagreed with the membership test "
        "for d1={e}, d2={a, d, f}, element='a'"
    )


def test_lattice_cover_edge_that_is_not_strict_raises(monkeypatch, chain_covering):
    family = definable_family(neighborhoods_of_covering(chain_covering))
    LatticeDiagram(family)
    # (1, 0) points down the order, so member 1 is not inside member 0
    monkeypatch.setattr(definable.MemberOrder, "covers", property(lambda order: ((1, 0),)))
    with pytest.raises(LawViolationError) as err:
        LatticeDiagram(family)
    assert str(err.value) == "cover edge (1, 0) is not a strict inclusion"
