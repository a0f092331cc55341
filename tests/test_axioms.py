"""Axiom checkers: worked examples, witness replay, and cross-checker laws."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from roughmatroids import (
    Covering,
    SetFamily,
    Universe,
    check_lower_rough_matroid_covering,
    check_lower_rough_matroid_relation,
    check_matroid,
    check_matroid_condition,
    check_rough_matroid_covering,
    check_upper_rough_matroid_covering,
    check_upper_rough_matroid_relation,
    definable_family,
    lower_approx,
    neighborhoods_of_covering,
    random_covering,
    upper_approx,
)
from roughmatroids.axioms import (
    approx_exchange_within,
    augmentation_within,
    exchange_within,
)
from roughmatroids.oracle import _subfamily


def forest_family(universe):
    """Independent sets of a rank-3 graphic matroid: a triangle on the
    first three elements plus one bridge."""
    cycle = {"a1", "a2", "a3"}
    subsets = [
        list(c)
        for k in range(5)
        for c in combinations(universe.labels, k)
        if not cycle <= set(c)
    ]
    return SetFamily.from_labels(universe, subsets)


class TestCheckMatroid:
    def test_forest_family_passes(self, rel4_universe):
        family = forest_family(rel4_universe)
        assert len(family) == 14
        assert check_matroid(rel4_universe, family).passed

    def test_small_family_passes(self, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [[], ["a"], ["c"]])
        assert check_matroid(mixed4_universe, family).passed

    def test_missing_empty_fails_i1(self, mixed4_universe):
        report = check_matroid(mixed4_universe, SetFamily.from_labels(mixed4_universe, [["a"]]))
        assert not report.passed
        assert report.failed_axiom == "I1"

    def test_heredity_failure_witnessed(self, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [[], ["a", "b"]])
        report = check_matroid(mixed4_universe, family)
        failure = report.failure_for("I2")
        assert failure is not None
        assert failure.witness["I"] == mixed4_universe.subset(["a", "b"])
        assert failure.witness["I'"] == mixed4_universe.subset(["a"])

    def test_augmentation_failure_witnessed(self, mixed4_universe):
        family = SetFamily.from_labels(
            mixed4_universe, [[], ["a"], ["b"], ["c"], ["d"], ["c", "d"]]
        )
        report = check_matroid(mixed4_universe, family)
        failure = report.failure_for("I3")
        assert failure is not None
        assert failure.witness["I1"] == mixed4_universe.subset(["a"])
        assert failure.witness["I2"] == mixed4_universe.subset(["c", "d"])


class TestRoughMatroidCovering:
    def test_small_family_passes(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [[], ["a"], ["c"]])
        assert check_rough_matroid_covering(mixed4_covering, family).passed

    def test_exchange_failure(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(
            mixed4_universe, [[], ["a", "b"], ["a", "c"], ["a", "c", "d"]]
        )
        report = check_rough_matroid_covering(mixed4_covering, family)
        assert not report.passed
        ci3 = report.failure_for("CI3")
        assert ci3 is not None
        assert ci3.witness["I1"] == mixed4_universe.subset(["a", "b"])
        assert ci3.witness["I2"] == mixed4_universe.subset(["a", "c", "d"])
        # definable-subset heredity also fails here, which the printed
        # account of this family overlooks: {a} is definable and inside {a,b}
        ci2 = report.failure_for("CI2")
        assert ci2 is not None
        assert ci2.witness["I'"] == mixed4_universe.subset(["a"])

    def test_whole_definable_family_passes(self, hex_covering):
        dfam = definable_family(neighborhoods_of_covering(hex_covering))
        assert check_rough_matroid_covering(hex_covering, dfam).passed

    def test_empty_family_fails_ci1(self, hex_covering, hex_universe):
        report = check_rough_matroid_covering(hex_covering, SetFamily.of(hex_universe, ()))
        assert not report.passed
        assert report.failed_axiom == "CI1"

    def test_non_definable_member_is_precondition_failure(self, hex_covering, hex_universe):
        family = SetFamily.from_labels(hex_universe, [[], ["b", "d", "f"]])
        report = check_rough_matroid_covering(hex_covering, family)
        assert not report.passed
        assert report.failed_axiom == "definability"
        assert report.witness["member"] == hex_universe.subset(["b", "d", "f"])


class TestApproxCheckersCovering:
    def test_passing_family_both_sides(self, hex_covering, hex_universe):
        family = SetFamily.from_labels(
            hex_universe, [[], ["e"], ["f"], ["a", "d"], ["a", "d", "e"], ["a", "d", "f"]]
        )
        assert check_lower_rough_matroid_covering(hex_covering, family).passed
        assert check_upper_rough_matroid_covering(hex_covering, family).passed

    def test_failing_family_both_sides(self, hex_covering, hex_universe):
        family = SetFamily.from_labels(
            hex_universe,
            [[], ["e"], ["a", "d"], ["b", "c"], ["a", "d", "e"], ["a", "b", "c", "d"]],
        )
        lower = check_lower_rough_matroid_covering(hex_covering, family)
        upper = check_upper_rough_matroid_covering(hex_covering, family)
        assert not lower.passed and lower.failed_axiom == "LI3"
        assert not upper.passed and upper.failed_axiom == "UI3"
        for report in (lower, upper):
            assert report.witness["I1"] == hex_universe.subset(["e"])
            assert report.witness["I2"] == hex_universe.subset(["b", "c"])

    def test_printed_pair_is_not_a_witness(self, hex_covering, hex_universe):
        # the published account of the family above blames the pair
        # ({e}, {a, d}), but {a, d, e} sits in the family and its lower and
        # upper approximations both land strictly between the pair's, so
        # the exchange clause is satisfied there; the true first witness is
        # ({e}, {b, c})
        family = SetFamily.from_labels(
            hex_universe,
            [[], ["e"], ["a", "d"], ["b", "c"], ["a", "d", "e"], ["a", "b", "c", "d"]],
        )
        nm = neighborhoods_of_covering(hex_covering)
        i1 = hex_universe.subset(["e"])
        i2 = hex_universe.subset(["a", "d"])
        for approx in (
            lambda bits: lower_approx(nm, hex_universe.from_bits(bits)).bits,
            lambda bits: upper_approx(nm, hex_universe.from_bits(bits)).bits,
        ):
            assert approx_exchange_within(family, approx, i1, i2)

    def test_trivial_family_passes(self, hex_covering, hex_universe):
        family = SetFamily.from_labels(hex_universe, [[]])
        assert check_lower_rough_matroid_covering(hex_covering, family).passed
        assert check_upper_rough_matroid_covering(hex_covering, family).passed


class TestApproxCheckersRelation:
    def test_published_verdicts(self, rel4, rel4_reflexive, rel4_family):
        assert check_upper_rough_matroid_relation(rel4, rel4_family).passed
        assert check_lower_rough_matroid_relation(rel4_reflexive, rel4_family).passed

    def test_oracle_recorded_verdicts(self, rel4, rel4_reflexive, rel4_family):
        # not published either way; frozen from exhaustive evaluation
        assert check_lower_rough_matroid_relation(rel4, rel4_family).passed
        assert check_upper_rough_matroid_relation(rel4_reflexive, rel4_family).passed

    def test_trivial_family(self, rel4, rel4_universe):
        family = SetFamily.from_labels(rel4_universe, [[]])
        assert check_lower_rough_matroid_relation(rel4, family).passed
        assert check_upper_rough_matroid_relation(rel4, family).passed

    def test_non_definable_member_rejected(self, rel4, rel4_universe):
        family = SetFamily.from_labels(rel4_universe, [[], ["a4"]])
        report = check_lower_rough_matroid_relation(rel4, family)
        assert report.failed_axiom == "definability"


class TestMatroidCondition:
    def test_singleton_covering_both_sides_true(self, mixed4_universe):
        covering = Covering.from_labels(
            mixed4_universe,
            [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c"], ["d"]],
        )
        family = SetFamily.from_labels(mixed4_universe, [[], ["a"], ["c"]])
        report = check_matroid_condition(covering, family)
        assert report.passed
        assert report.details["is_matroid"]
        assert report.details["singleton_neighborhoods_on_support"]

    def test_mixed_covering_sides_agree(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [[], ["a"], ["c"]])
        report = check_matroid_condition(mixed4_covering, family)
        assert report.passed
        assert report.details["support"] == "{a, c}"

    def test_trivial_family(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [[]])
        report = check_matroid_condition(mixed4_covering, family)
        assert report.passed

    def test_precondition_failure(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [["a"]])
        report = check_matroid_condition(mixed4_covering, family)
        assert not report.passed
        assert report.failed_axiom == "precondition"

    @given(st.integers(1, 6), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_never_violated(self, n, cov_seed, fam_seed):
        import random

        covering = random_covering(n, 0.5, cov_seed)
        dfam = definable_family(neighborhoods_of_covering(covering))
        rng = random.Random(fam_seed)
        family = _subfamily(dfam, rng.randrange(1 << len(dfam)))
        if not check_rough_matroid_covering(covering, family).passed:
            return
        assert check_matroid_condition(covering, family).passed


def replay_failure(report, context):
    """Re-evaluate the named axiom predicate on the reported witness."""
    family = context["family"]
    axiom = report.failed_axiom
    witness = report.witness
    if axiom == "definability":
        return witness["member"] not in context["dfam"]
    if axiom.endswith("1"):
        return witness["missing"] not in family
    if axiom.endswith("2"):
        return witness["I'"] not in family
    if axiom == "I3":
        return not augmentation_within(family, witness["I1"], witness["I2"])
    if axiom == "CI3":
        return not exchange_within(family, witness["I1"], witness["I2"])
    if axiom in ("LI3", "UI3"):
        return not approx_exchange_within(
            family, context["approx"], witness["I1"], witness["I2"]
        )
    raise AssertionError(f"unexpected axiom {axiom}")


class TestWitnessReplay:
    @given(st.integers(1, 6), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_fail_witnesses_replay(self, n, cov_seed, fam_seed):
        import random

        covering = random_covering(n, 0.5, cov_seed)
        nm = neighborhoods_of_covering(covering)
        dfam = definable_family(nm)
        rng = random.Random(fam_seed)
        family = _subfamily(dfam, rng.randrange(1 << min(len(dfam), 16)))
        u = covering.universe
        lower = lambda bits: lower_approx(nm, u.from_bits(bits)).bits  # noqa: E731
        upper = lambda bits: upper_approx(nm, u.from_bits(bits)).bits  # noqa: E731
        checks = [
            (check_matroid(u, family), {"approx": None}),
            (check_rough_matroid_covering(covering, family), {"approx": None}),
            (check_lower_rough_matroid_covering(covering, family), {"approx": lower}),
            (check_upper_rough_matroid_covering(covering, family), {"approx": upper}),
        ]
        for report, extra in checks:
            if report.passed:
                continue
            context = {"family": family, "dfam": dfam, **extra}
            assert replay_failure(report, context)


class TestWitnessReplayRelations:
    @given(st.integers(1, 5), st.floats(0.1, 0.9), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_relation_fail_witnesses_replay(self, n, density, rel_seed, fam_seed):
        import random

        from roughmatroids import (
            random_relation,
            successor_neighborhoods,
        )

        relation = random_relation(n, density, rel_seed)
        nm = successor_neighborhoods(relation)
        dfam = definable_family(nm)
        rng = random.Random(fam_seed)
        family = _subfamily(dfam, rng.randrange(1 << min(len(dfam), 16)))
        u = relation.universe
        lower = lambda bits: lower_approx(nm, u.from_bits(bits)).bits  # noqa: E731
        upper = lambda bits: upper_approx(nm, u.from_bits(bits)).bits  # noqa: E731
        for report, approx in (
            (check_lower_rough_matroid_relation(relation, family), lower),
            (check_upper_rough_matroid_relation(relation, family), upper),
        ):
            if report.passed:
                continue
            context = {"family": family, "dfam": dfam, "approx": approx}
            assert replay_failure(report, context)


class TestCheckerLaws:
    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_whole_definable_family_passes_all_three(self, n, seed):
        covering = random_covering(n, 0.5, seed)
        dfam = definable_family(neighborhoods_of_covering(covering))
        assert check_rough_matroid_covering(covering, dfam).passed
        assert check_lower_rough_matroid_covering(covering, dfam).passed
        assert check_upper_rough_matroid_covering(covering, dfam).passed

    @given(st.integers(1, 4), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_definable_matroids_are_rough_matroids(self, n, cov_seed, fam_seed):
        # a classical matroid whose members are all definable passes the
        # rough checker: heredity restricted to definable subsets is weaker
        import random

        covering = random_covering(n, 0.5, cov_seed)
        dfam = definable_family(neighborhoods_of_covering(covering))
        rng = random.Random(fam_seed)
        family = _subfamily(dfam, rng.randrange(1 << len(dfam)))
        if not check_matroid(covering.universe, family).passed:
            return
        assert check_rough_matroid_covering(covering, family).passed

    def test_coincidence_with_singleton_neighborhoods_exhaustive_n3(self):
        # when every neighborhood is a singleton the definable family is
        # the full powerset and the two checkers agree on every family
        u = Universe(("a", "b", "c"))
        covering = Covering.from_labels(u, [["a"], ["b"], ["c"]])
        dfam = definable_family(neighborhoods_of_covering(covering))
        assert len(dfam) == 8
        for fammask in range(1 << 8):
            family = _subfamily(dfam, fammask)
            classical = check_matroid(u, family).passed
            rough = check_rough_matroid_covering(covering, family).passed
            assert classical == rough, f"verdicts split at mask {fammask}"

    def test_coincidence_with_singleton_neighborhoods_exhaustive_n4(self):
        from roughmatroids.axioms import _check_rough_given

        u = Universe(("a", "b", "c", "d"))
        covering = Covering.from_labels(u, [["a"], ["b"], ["c"], ["d"]])
        dfam = definable_family(neighborhoods_of_covering(covering))
        assert len(dfam) == 16
        for fammask in range(1 << 16):
            family = _subfamily(dfam, fammask)
            classical = check_matroid(u, family).passed
            rough = _check_rough_given(
                "rough-cov", dfam.order, fammask, ("CI1", "CI2", "CI3")
            ).passed
            assert classical == rough, f"verdicts split at mask {fammask}"
