"""Uniform families, one-point extensions, disjoint sums, and the
equal-cardinality exchange axiom."""

from __future__ import annotations

from weakref import WeakValueDictionary

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmatroids import (
    Covering,
    SetFamily,
    Universe,
    UniverseMismatchError,
    check_ci3_prime,
    check_rough_matroid_covering,
    check_uniform_proposition,
    covering_disjoint_sum,
    definable_family,
    direct_sum,
    family_disjoint_sum,
    merge_universes,
    neighborhoods_of_covering,
    one_point_extension_blocked,
    random_covering,
    uniform_family,
)
from roughmatroids import definable
from support import preorder_coverings


@pytest.fixture
def sum_left():
    u = Universe(("a", "b", "c"))
    covering = Covering.from_labels(u, [["b", "c"], ["a", "c"]])
    family = SetFamily.from_labels(u, [[], ["c"], ["a", "c"]])
    return covering, family


@pytest.fixture
def sum_right():
    u = Universe(("d", "e", "f", "g"))
    covering = Covering.from_labels(
        u, [["d", "e", "f"], ["d", "e", "g"], ["d", "f", "g"], ["e", "f"], ["g"]]
    )
    family = SetFamily.from_labels(
        u, [[], ["d"], ["e"], ["f"], ["d", "e"], ["e", "f"]]
    )
    return covering, family


SUMMED_FAMILY = [
    [],
    ["c"],
    ["d"],
    ["e"],
    ["f"],
    ["a", "c"],
    ["c", "d"],
    ["c", "e"],
    ["c", "f"],
    ["d", "e"],
    ["e", "f"],
    ["a", "c", "d"],
    ["a", "c", "e"],
    ["a", "c", "f"],
    ["c", "d", "e"],
    ["c", "e", "f"],
    ["a", "c", "d", "e"],
    ["a", "c", "e", "f"],
]


class TestUniformFamily:
    def test_mixed4_r1(self, mixed4_covering, mixed4_universe):
        family = uniform_family(mixed4_covering, 1)
        assert family == SetFamily.from_labels(mixed4_universe, [[], ["a"], ["c"]])

    def test_r_equals_n_gives_whole_family(self, mixed4_covering):
        nm = neighborhoods_of_covering(mixed4_covering)
        assert uniform_family(mixed4_covering, 4) == definable_family(nm)

    def test_chain_r1(self, chain_covering, chain_universe):
        family = uniform_family(chain_covering, 1)
        assert family == SetFamily.from_labels(chain_universe, [[], ["b"]])

    def test_range_validation(self, mixed4_covering):
        with pytest.raises(ValueError):
            uniform_family(mixed4_covering, 0)
        with pytest.raises(ValueError):
            uniform_family(mixed4_covering, 5)
        assert len(uniform_family(mixed4_covering, 4)) == 9


class TestUniformProposition:
    def test_sufficiency_only_example(self, mixed4_covering):
        report = check_uniform_proposition(mixed4_covering, 1)
        assert report.passed
        assert not report.details["singleton_neighborhoods_everywhere"]
        assert report.details["is_rough_matroid"]
        assert "sufficient only" in report.notes

    def test_singleton_partition_all_true(self):
        u = Universe(("a", "b", "c"))
        covering = Covering.from_labels(u, [["a"], ["b"], ["c"]])
        for r in (1, 2, 3):
            report = check_uniform_proposition(covering, r)
            assert report.passed
            assert report.details["singleton_neighborhoods_everywhere"]
            assert report.details["is_rough_matroid"]
            assert report.details["is_matroid"]

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_laws_never_violated(self, n, seed):
        covering = random_covering(n, 0.5, seed)
        for r in range(1, n + 1):
            assert check_uniform_proposition(covering, r).passed

    def test_builds_the_definable_family_once(self, hex_covering, monkeypatch):
        # an empty memo, so no family another test holds is reused
        monkeypatch.setattr(definable, "_FAMILIES", WeakValueDictionary())
        builds = []
        closure = definable._closure_bits

        def counting(cells):
            builds.append(cells)
            return closure(cells)

        monkeypatch.setattr(definable, "_closure_bits", counting)
        assert check_uniform_proposition(hex_covering, 2).passed
        assert len(builds) == 1


class TestOnePointExtension:
    def test_blocked_case(self, hex_covering, hex_universe):
        d1 = hex_universe.subset(["e"])
        d2 = hex_universe.subset(["a", "d", "f"])
        assert one_point_extension_blocked(hex_covering, d1, d2, "a") is True

    def test_unblocked_case(self, hex_covering, hex_universe):
        d1 = hex_universe.subset(["a", "d"])
        d2 = hex_universe.subset(["a", "d", "f"])
        assert one_point_extension_blocked(hex_covering, d1, d2, "f") is False

    def test_singleton_neighborhoods_never_block(self):
        u = Universe(("a", "b", "c"))
        covering = Covering.from_labels(u, [["a"], ["b"], ["c"]])
        blocked = one_point_extension_blocked(
            covering, u.subset([]), u.subset(["a", "b"]), "a"
        )
        assert blocked is False

    def test_preconditions(self, hex_covering, hex_universe):
        with pytest.raises(ValueError, match="definable"):
            one_point_extension_blocked(
                hex_covering, hex_universe.subset(["b"]), hex_universe.full(), "a"
            )
        # no cardinality gap is required: |{a, d}| > |{e}|
        assert one_point_extension_blocked(
            hex_covering, hex_universe.subset(["a", "d"]), hex_universe.subset(["e"]), "e"
        ) is False
        with pytest.raises(ValueError, match="d2 - d1"):
            one_point_extension_blocked(
                hex_covering,
                hex_universe.subset(["e"]),
                hex_universe.subset(["a", "d", "e"]),
                "e",
            )
        other = Universe(hex_universe.labels[::-1])
        for d1, d2 in (
            (other.subset(["e"]), hex_universe.subset(["a", "d", "f"])),
            (hex_universe.subset(["e"]), other.subset(["a", "d", "f"])),
        ):
            with pytest.raises(UniverseMismatchError):
                one_point_extension_blocked(hex_covering, d1, d2, "a")

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_biconditional_exhaustive(self, n, seed):
        # agreement of the membership route and the neighborhood route is
        # asserted inside the call; hypothesis drives it across coverings
        # and pairs in either size order
        covering = random_covering(n, 0.5, seed)
        dfam = definable_family(neighborhoods_of_covering(covering))
        for d1 in dfam:
            for d2 in dfam:
                if d1 == d2:
                    continue
                for label in (d2 - d1).members():
                    one_point_extension_blocked(covering, d1, d2, label)


def test_extension_and_uniform_ranges_on_every_preorder_covering():
    # every ordered pair of distinct definable sets, in either size order,
    # and the top rank bound r = n, on one covering per neighborhood map
    for covering in preorder_coverings():
        dfam = definable_family(neighborhoods_of_covering(covering))
        members = set(dfam.masks)
        for d1 in dfam:
            for d2 in dfam:
                if d1 == d2:
                    continue
                for label in (d2 - d1).members():
                    added = d1.bits | 1 << covering.universe.index(label)
                    assert one_point_extension_blocked(covering, d1, d2, label) is (
                        added not in members
                    )
        family = uniform_family(covering, covering.universe.size)
        assert family == dfam
        assert check_rough_matroid_covering(covering, family).passed


class TestDisjointSums:
    def test_merge_rejects_overlap(self):
        with pytest.raises(ValueError, match="share"):
            merge_universes(Universe(("a", "b")), Universe(("b", "c")))

    def test_family_sum_is_all_pairwise_unions(self, sum_left, sum_right):
        _, f1 = sum_left
        _, f2 = sum_right
        summed = family_disjoint_sum(f1, f2)
        assert len(summed) == len(f1) * len(f2)
        assert summed == SetFamily.from_labels(summed.universe, SUMMED_FAMILY)

    def test_identity_summand(self, sum_right):
        _, f2 = sum_right
        u1 = Universe(("x",))
        f1 = SetFamily.from_labels(u1, [[]])
        summed = family_disjoint_sum(f1, f2)
        assert len(summed) == len(f2)
        assert {frozenset(m.members()) for m in summed} == {
            frozenset(m.members()) for m in f2
        }

    def test_family_sum_commutes_up_to_members(self, sum_left, sum_right):
        _, f1 = sum_left
        _, f2 = sum_right
        ab = family_disjoint_sum(f1, f2)
        ba = family_disjoint_sum(f2, f1)
        assert {frozenset(m.members()) for m in ab} == {
            frozenset(m.members()) for m in ba
        }

    def test_family_sum_associates_up_to_members(self, sum_left, sum_right):
        _, f1 = sum_left
        _, f2 = sum_right
        u3 = Universe(("x", "y"))
        f3 = SetFamily.from_labels(u3, [[], ["x"], ["x", "y"]])

        def label_sets(fam):
            return {frozenset(m.members()) for m in fam}

        left = family_disjoint_sum(family_disjoint_sum(f1, f2), f3)
        right = family_disjoint_sum(f1, family_disjoint_sum(f2, f3))
        assert label_sets(left) == label_sets(right)

    def test_covering_sum_blocks_and_neighborhood_locality(self, sum_left, sum_right):
        c1, _ = sum_left
        c2, _ = sum_right
        summed = covering_disjoint_sum(c1, c2)
        assert len(summed.blocks) == 7
        assert summed.universe.labels == ("a", "b", "c", "d", "e", "f", "g")
        nm = neighborhoods_of_covering(summed)
        nm1 = neighborhoods_of_covering(c1)
        nm2 = neighborhoods_of_covering(c2)
        for lab in c1.universe.labels:
            assert nm.neighborhood(lab).members() == nm1.neighborhood(lab).members()
        for lab in c2.universe.labels:
            assert nm.neighborhood(lab).members() == nm2.neighborhood(lab).members()

    def test_definable_family_distributes_over_sum(self, sum_left, sum_right):
        c1, _ = sum_left
        c2, _ = sum_right
        summed = covering_disjoint_sum(c1, c2)
        d1 = definable_family(neighborhoods_of_covering(c1))
        d2 = definable_family(neighborhoods_of_covering(c2))
        assert definable_family(neighborhoods_of_covering(summed)) == family_disjoint_sum(d1, d2)

    def test_singleton_partitions_sum_to_singleton_partition(self):
        c1 = Covering.from_labels(Universe(("a",)), [["a"]])
        c2 = Covering.from_labels(Universe(("b", "c")), [["b"], ["c"]])
        summed = covering_disjoint_sum(c1, c2)
        assert summed.is_partition()
        assert all(len(b) == 1 for b in summed.blocks)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sum_laws_random(self, n1, n2, seed):
        import random as _random

        rng = _random.Random(seed)
        c1 = random_covering(n1, 0.5, rng.randrange(1 << 30))
        base = random_covering(n2, 0.5, rng.randrange(1 << 30))
        relabeled = Universe(tuple(f"z{i}" for i in range(n2)))
        c2 = Covering(
            relabeled,
            tuple(relabeled.from_bits(b.bits) for b in base.blocks),
        )
        summed = covering_disjoint_sum(c1, c2)
        d1 = definable_family(neighborhoods_of_covering(c1))
        d2 = definable_family(neighborhoods_of_covering(c2))
        assert definable_family(neighborhoods_of_covering(summed)) == family_disjoint_sum(d1, d2)


class TestDirectSum:
    def test_published_example(self, sum_left, sum_right):
        covering, family, report = direct_sum(*sum_left, *sum_right)
        assert len(covering.blocks) == 7
        assert family == SetFamily.from_labels(family.universe, SUMMED_FAMILY)
        assert report.passed

    def test_trivial_summand_isomorphic(self, sum_right):
        u1 = Universe(("x",))
        c1 = Covering.from_labels(u1, [["x"]])
        f1 = SetFamily.from_labels(u1, [[]])
        covering, family, report = direct_sum(c1, f1, *sum_right)
        assert report.passed
        assert {frozenset(m.members()) for m in family} == {
            frozenset(m.members()) for m in sum_right[1]
        }

    def test_rejects_bad_summand(self, sum_left, sum_right):
        c2, _ = sum_right
        bad = SetFamily.from_labels(c2.universe, [["d"]])  # missing the empty set
        with pytest.raises(ValueError, match="not a rough matroid"):
            direct_sum(*sum_left, c2, bad)
        c1, _ = sum_left
        with pytest.raises(ValueError, match="first summand: covering and family universes differ"):
            direct_sum(c1, sum_right[1], *sum_right)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_random_sums_always_pass(self, n1, n2, seed):
        import random as _random

        from roughmatroids import enumerate_rough_matroids

        rng = _random.Random(seed)
        c1 = random_covering(n1, 0.6, rng.randrange(1 << 30))
        base = random_covering(n2, 0.6, rng.randrange(1 << 30))
        relabeled = Universe(tuple(f"z{i}" for i in range(n2)))
        c2 = Covering(relabeled, tuple(relabeled.from_bits(b.bits) for b in base.blocks))
        fams1 = enumerate_rough_matroids(c1)
        fams2 = enumerate_rough_matroids(c2)
        f1 = rng.choice(fams1)
        f2 = rng.choice(fams2)
        _, _, report = direct_sum(c1, f1, c2, f2)
        assert report.passed


class TestCi3Prime:
    def test_passing_family(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(mixed4_universe, [[], ["a"], ["c"]])
        assert check_ci3_prime(mixed4_covering, family).passed
        assert check_rough_matroid_covering(mixed4_covering, family).passed

    def test_failing_family_with_witness(self, mixed4_covering, mixed4_universe):
        family = SetFamily.from_labels(
            mixed4_universe, [[], ["a", "b"], ["a", "c"], ["a", "c", "d"]]
        )
        report = check_ci3_prime(mixed4_covering, family)
        assert not report.passed
        failure = report.failure_for("CI3'")
        assert failure is not None
        assert failure.witness["D"] == mixed4_universe.full()
        sizes = {len(failure.witness["I1"]), len(failure.witness["I2"])}
        assert sizes == {2, 3}
        assert not check_rough_matroid_covering(mixed4_covering, family).passed

    def test_whole_definable_family(self, mixed4_covering):
        dfam = definable_family(neighborhoods_of_covering(mixed4_covering))
        assert check_ci3_prime(mixed4_covering, dfam).passed

    def test_agreement_exhaustive_over_mixed4(self, mixed4_covering):
        # the definable family has nine members: every one of the 512
        # subfamilies gets both verdicts
        dfam = definable_family(neighborhoods_of_covering(mixed4_covering))
        assert len(dfam) == 9
        for mask in range(1 << 9):
            family = dfam.subfamily(mask)
            plain = check_rough_matroid_covering(mixed4_covering, family)
            prime = check_ci3_prime(mixed4_covering, family)
            assert plain.passed == prime.passed, f"disagreement at mask {mask}"

    @given(st.integers(1, 6), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_agreement_random(self, n, cov_seed, fam_seed):
        import random as _random

        covering = random_covering(n, 0.5, cov_seed)
        dfam = definable_family(neighborhoods_of_covering(covering))
        rng = _random.Random(fam_seed)
        family = dfam.subfamily(rng.randrange(1 << min(len(dfam), 16)))
        plain = check_rough_matroid_covering(covering, family)
        prime = check_ci3_prime(covering, family)
        assert plain.passed == prime.passed
