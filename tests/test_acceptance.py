"""Acceptance suite: exact reproduction of the published worked examples
plus the property law suites, one criterion per test.

Run as a script to get one pass/fail line per criterion:

    PYTHONPATH=src python tests/test_acceptance.py

Criterion 6-xh checks the claim that the upper-approximation fixpoints
coincide with the definable family in the form that is true: they are the
complements of the definable sets, so the two families coincide exactly
when the definable family is complement-closed (the three-element chain
covering is a counterexample to the unconditional claim).  The companion
criterion checks that the workbench reports that discrepancy with a
witness.
"""

from __future__ import annotations

import random
import time

from roughmatroids import (
    Covering,
    EnumerationBudget,
    SetFamily,
    Universe,
    build_lattice,
    check_atomicity,
    check_lattice_laws,
    check_lower_rough_matroid_covering,
    check_lower_rough_matroid_relation,
    check_matroid_condition,
    check_rough_matroid_covering,
    check_uniform_proposition,
    check_upper_rough_matroid_covering,
    check_upper_rough_matroid_relation,
    classical_matroids,
    cross_check,
    definable_family,
    direct_sum,
    enumerate_rough_matroids,
    fixpoint_family_upper,
    lower_approx,
    neighborhoods_of_covering,
    random_covering,
    upper_approx,
)
from roughmatroids.axioms import approx_exchange_within
from support import (
    HEX_DEFINABLE,
    REL4_FAMILY,
    chain_covering,
    hex_covering,
    mixed4_covering,
    preorder_coverings,
    rel4_relations,
    scan_definable,
)


def relabel(covering, prefix):
    u = Universe(tuple(f"{prefix}{i}" for i in range(covering.universe.size)))
    return Covering(u, tuple(u.from_bits(b.bits) for b in covering.blocks))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_1_neighborhoods_and_definable_family():
    """Six-block covering: exact neighborhood table and the 16-member
    definable family, in under a second."""
    start = time.perf_counter()
    covering = hex_covering()
    u = covering.universe
    nm = neighborhoods_of_covering(covering)
    table = {lab: nm.neighborhood(lab).members() for lab in u.labels}
    assert table == {
        "a": ("a", "d"),
        "b": ("b", "c"),
        "c": ("b", "c"),
        "d": ("a", "d"),
        "e": ("e",),
        "f": ("f",),
    }
    assert definable_family(nm) == SetFamily.from_labels(u, HEX_DEFINABLE)
    assert time.perf_counter() - start < 1.0


def criterion_2_lattice_reproduction():
    """Chain covering: the five-member family, its five-node Hasse diagram
    with the derived cover edges, and the lattice laws."""
    start = time.perf_counter()
    covering = chain_covering()
    u = covering.universe
    family = definable_family(neighborhoods_of_covering(covering))
    assert family == SetFamily.from_labels(
        u, [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
    )
    diagram = build_lattice(family)
    assert len(diagram.nodes) == 5
    named = [(a.notation(), b.notation()) for a, b in diagram.edge_sets()]
    assert named == [
        ("{}", "{b}"),
        ("{b}", "{a, b}"),
        ("{b}", "{b, c}"),
        ("{a, b}", "{a, b, c}"),
        ("{b, c}", "{a, b, c}"),
    ]
    assert check_lattice_laws(diagram).passed
    assert time.perf_counter() - start < 1.0


def criterion_3_covering_checker_verdicts():
    """The four published covering-checker verdicts, with replayable
    witnesses.

    The published account of the failing six-element family blames the
    pair ({e}, {a, d}); that pair actually satisfies the exchange clause
    (the family member {a, d, e} sits strictly between the approximation
    of {e} and the union bound), so it cannot be reported as a witness.
    The canonically first genuine witness is ({e}, {b, c}); the criterion
    asserts both facts."""
    start = time.perf_counter()
    cov6 = hex_covering()
    u6 = cov6.universe
    fam_pass = SetFamily.from_labels(
        u6, [[], ["e"], ["f"], ["a", "d"], ["a", "d", "e"], ["a", "d", "f"]]
    )
    assert check_lower_rough_matroid_covering(cov6, fam_pass).passed
    assert check_upper_rough_matroid_covering(cov6, fam_pass).passed

    fam_fail = SetFamily.from_labels(
        u6, [[], ["e"], ["a", "d"], ["b", "c"], ["a", "d", "e"], ["a", "b", "c", "d"]]
    )
    lower = check_lower_rough_matroid_covering(cov6, fam_fail)
    upper = check_upper_rough_matroid_covering(cov6, fam_fail)
    assert not lower.passed and lower.failed_axiom == "LI3"
    assert not upper.passed and upper.failed_axiom == "UI3"
    nm = neighborhoods_of_covering(cov6)
    for report, approx in (
        (lower, lambda bits: lower_approx(nm, u6.from_bits(bits)).bits),
        (upper, lambda bits: upper_approx(nm, u6.from_bits(bits)).bits),
    ):
        # reported witness replays as a genuine failure
        assert report.witness["I1"] == u6.subset(["e"])
        assert report.witness["I2"] == u6.subset(["b", "c"])
        assert not approx_exchange_within(
            fam_fail, approx, report.witness["I1"], report.witness["I2"]
        )
        # the published pair does not: the exchange clause holds there
        assert approx_exchange_within(
            fam_fail, approx, u6.subset(["e"]), u6.subset(["a", "d"])
        )

    cov4 = mixed4_covering()
    u4 = cov4.universe
    fam_ok = SetFamily.from_labels(u4, [[], ["a"], ["c"]])
    assert check_rough_matroid_covering(cov4, fam_ok).passed

    fam_bad = SetFamily.from_labels(u4, [[], ["a", "b"], ["a", "c"], ["a", "c", "d"]])
    report = check_rough_matroid_covering(cov4, fam_bad)
    assert not report.passed
    ci3 = report.failure_for("CI3")
    assert ci3 is not None
    assert ci3.witness["I1"] == u4.subset(["a", "b"])
    assert ci3.witness["I2"] == u4.subset(["a", "c", "d"])
    assert time.perf_counter() - start < 1.0


def criterion_4_relation_checker_verdicts():
    """The published relation verdicts: the family passes the upper checker
    under the base relation and the lower checker under its reflexive
    extension."""
    start = time.perf_counter()
    u, base, reflexive = rel4_relations()
    family = SetFamily.from_labels(u, REL4_FAMILY)
    assert check_upper_rough_matroid_relation(base, family).passed
    assert check_lower_rough_matroid_relation(reflexive, family).passed
    assert time.perf_counter() - start < 1.0


def criterion_5_direct_sum_reproduction():
    """The published direct sum: the 18-member pairwise-union family over
    the seven-element merged universe, passing the rough-matroid check."""
    start = time.perf_counter()
    u1 = Universe(("a", "b", "c"))
    c1 = Covering.from_labels(u1, [["b", "c"], ["a", "c"]])
    f1 = SetFamily.from_labels(u1, [[], ["c"], ["a", "c"]])
    u2 = Universe(("d", "e", "f", "g"))
    c2 = Covering.from_labels(
        u2, [["d", "e", "f"], ["d", "e", "g"], ["d", "f", "g"], ["e", "f"], ["g"]]
    )
    f2 = SetFamily.from_labels(u2, [[], ["d"], ["e"], ["f"], ["d", "e"], ["e", "f"]])
    covering, family, report = direct_sum(c1, f1, c2, f2)
    expected = SetFamily.from_labels(
        covering.universe,
        [
            [], ["c"], ["d"], ["e"], ["f"], ["a", "c"], ["c", "d"], ["c", "e"],
            ["c", "f"], ["d", "e"], ["e", "f"], ["a", "c", "d"], ["a", "c", "e"],
            ["a", "c", "f"], ["c", "d", "e"], ["c", "e", "f"],
            ["a", "c", "d", "e"], ["a", "c", "e", "f"],
        ],
    )
    assert family == expected
    assert len(family) == 18
    assert report.passed
    assert time.perf_counter() - start < 1.0


def _law_coverings():
    randoms = [
        random_covering(1 + seed % 8, 0.15 + (seed % 7) / 9, seed) for seed in range(200)
    ]
    return randoms, list(preorder_coverings())


def criterion_6_law_suite():
    """Zero violations of the tested laws over 200 random coverings up to
    eight elements and every covering up to four elements (one
    representative per neighborhood map): operator duality, closure of the
    definable family, the lower-fixpoint characterisation, upper fixpoints
    being the complements of the definable sets, the one-point-extension
    criterion, agreement of the two exchange axiomatisations, the
    uniform-family laws, the matroid-condition equivalence, and closure of
    rough matroids under direct sums."""
    start = time.perf_counter()
    randoms, exhaustive = _law_coverings()
    for i, covering in enumerate(randoms + exhaustive):
        report = cross_check(covering, EnumerationBudget(seed=i, trials=12))
        assert report.passed, (i, report.failures)
    for i, covering in enumerate(randoms + exhaustive):
        n = covering.universe.size
        if n > 6:
            continue
        for r in range(1, n + 1):
            assert check_uniform_proposition(covering, r).passed, (i, r)
        dfam = definable_family(neighborhoods_of_covering(covering))
        rng = random.Random(i)
        for _ in range(4):
            family = dfam.subfamily(rng.randrange(1 << min(len(dfam), 16)))
            if check_rough_matroid_covering(covering, family).passed:
                assert check_matroid_condition(covering, family).passed, i
    rng = random.Random(414)
    for _ in range(20):
        c1 = random_covering(rng.randint(1, 3), 0.6, rng.randrange(1 << 30))
        c2 = relabel(random_covering(rng.randint(1, 3), 0.6, rng.randrange(1 << 30)), "z")
        f1 = rng.choice(enumerate_rough_matroids(c1))
        f2 = rng.choice(enumerate_rough_matroids(c2))
        _, _, report = direct_sum(c1, f1, c2, f2)
        assert report.passed
    assert time.perf_counter() - start < 300.0


def criterion_6_upper_fixpoint_equality_as_stated():
    """The claim that the upper-approximation fixpoints equal the definable
    family, checked as stated against the law that is true.

    By duality, `fixpoint_family_upper` is exactly the family of
    complements of the definable sets (see its docstring and "Laws and
    findings" in the README).  So the claimed equality holds for a covering
    exactly when its definable family is complement-closed, and it is not a
    law: the chain covering {{a,b},{b,c}} is a counterexample ({a} is an
    upper fixpoint but is not definable; {b,c} is definable but not an
    upper fixpoint).  Over the law coverings the equality must both hold
    on some and fail on some, so the check cannot pass vacuously."""
    randoms, exhaustive = _law_coverings()
    outcomes = set()
    for covering in randoms + exhaustive:
        nm = neighborhoods_of_covering(covering)
        upper = fixpoint_family_upper(nm)
        dfam = definable_family(nm)
        full = (1 << covering.universe.size) - 1
        dbits = dfam.bitset()
        blocks = [b.notation() for b in covering.blocks]
        equal = upper == dfam
        complement_closed = all(full ^ b in dbits for b in dbits)
        assert equal == complement_closed, (
            f"upper fixpoints {'equal' if equal else 'differ from'} the "
            f"definable family, which is "
            f"{'' if complement_closed else 'not '}complement-closed, "
            f"for blocks {blocks}"
        )
        assert upper.bitset() == {full ^ b for b in dbits}, (
            f"upper fixpoints are not the complements of the definable sets "
            f"for blocks {blocks}"
        )
        outcomes.add(equal)
    assert outcomes == {True, False}, outcomes

    covering = chain_covering()
    u = covering.universe
    nm = neighborhoods_of_covering(covering)
    upper = fixpoint_family_upper(nm)
    dfam = definable_family(nm)
    assert u.subset(["a"]) in upper and u.subset(["a"]) not in dfam
    assert u.subset(["b", "c"]) in dfam and u.subset(["b", "c"]) not in upper


def criterion_6_upper_fixpoint_finding_is_reported():
    """The workbench detects and reports the failed coincidence with a
    concrete witness, the same way it reports the atomicity finding."""
    report = cross_check(chain_covering(), EnumerationBudget(seed=0))
    assert report.passed  # the coincidence is informational, not a law
    assert report.details["upper_fixpoints_equal_definable"] == "fails"
    assert report.details["upper_fixpoint_witness"] == "{a}"
    assert report.details["fixpoint_upper_duality"] == "pass"


def criterion_7_oracle_agreement():
    """The union-closure construction builds the same definable family as
    a powerset scan on every tested covering, and rough-matroid
    enumeration over a full powerset equals the independent classical
    enumeration for up to three elements."""
    for seed in range(60):
        n = 1 + seed % 12
        nm = neighborhoods_of_covering(random_covering(n, 0.3 + (seed % 5) / 10, seed))
        assert definable_family(nm) == scan_definable(nm)
    for n in (1, 2, 3):
        u = Universe(tuple("abc"[:n]))
        covering = Covering.from_labels(u, [[lab] for lab in u.labels])
        rough = {
            frozenset(m.bits for m in fam)
            for fam in enumerate_rough_matroids(covering)
        }
        assert rough == classical_matroids(n)


def criterion_8_atomicity_finding():
    """The definable-set lattice of the chain covering is not atomic: the
    only atom is {b}, and {a, b} is not a join of atoms.  The report is
    informational, carries the witness, and reproduces byte-for-byte."""
    def run():
        family = definable_family(neighborhoods_of_covering(chain_covering()))
        return check_atomicity(build_lattice(family))

    first, second = run(), run()
    for report in (first, second):
        assert not report.passed
        assert report.details["atoms"] == ["{b}"]
        assert report.witness["member"].notation() == "{a, b}"
    assert first == second
    # informational: the bundled law suite still passes on this covering
    assert cross_check(chain_covering(), EnumerationBudget(seed=0)).passed


CRITERIA = [
    ("1", "six-block covering: neighborhood table and 16-member definable family",
     criterion_1_neighborhoods_and_definable_family),
    ("2", "chain covering: 5-member family, Hasse diagram, lattice laws",
     criterion_2_lattice_reproduction),
    ("3", "covering checker verdicts with replayable witnesses",
     criterion_3_covering_checker_verdicts),
    ("4", "relation checker verdicts", criterion_4_relation_checker_verdicts),
    ("5", "direct sum: 18-member family, rough matroid", criterion_5_direct_sum_reproduction),
    ("6", "law suite: zero violations across random and exhaustive coverings",
     criterion_6_law_suite),
    ("6-xh", "upper fixpoints equal definable family exactly when it is complement-closed",
     criterion_6_upper_fixpoint_equality_as_stated),
    ("6-finding", "the failed upper-fixpoint coincidence is reported with a witness",
     criterion_6_upper_fixpoint_finding_is_reported),
    ("7", "oracle agreement: closure vs powerset scan; enumeration vs classical matroids",
     criterion_7_oracle_agreement),
    ("8", "atomicity finding on the chain covering, informational and reproducible",
     criterion_8_atomicity_finding),
]


# pytest entry points ---------------------------------------------------------

def test_criterion_1():
    criterion_1_neighborhoods_and_definable_family()


def test_criterion_2():
    criterion_2_lattice_reproduction()


def test_criterion_3():
    criterion_3_covering_checker_verdicts()


def test_criterion_4():
    criterion_4_relation_checker_verdicts()


def test_criterion_5():
    criterion_5_direct_sum_reproduction()


def test_criterion_6():
    criterion_6_law_suite()


def test_criterion_6_upper_fixpoint_equality_as_stated():
    criterion_6_upper_fixpoint_equality_as_stated()


def test_criterion_6_upper_fixpoint_finding_is_reported():
    criterion_6_upper_fixpoint_finding_is_reported()


def test_criterion_7():
    criterion_7_oracle_agreement()


def test_criterion_8():
    criterion_8_atomicity_finding()


if __name__ == "__main__":
    import sys

    failed = 0
    for tag, description, fn in CRITERIA:
        started = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            elapsed = time.perf_counter() - started
            detail = str(exc).splitlines()[0] if str(exc) else ""
            print(f"criterion {tag}: FAIL ({elapsed:.2f}s) {description}")
            if detail:
                print(f"    {detail}")
        else:
            elapsed = time.perf_counter() - started
            print(f"criterion {tag}: PASS ({elapsed:.2f}s) {description}")
    sys.exit(1 if failed else 0)
