"""Definable sets, the family construction against a powerset scan,
fixpoints, and closure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmatroids import (
    BinaryRelation,
    Covering,
    SetFamily,
    SizeBoundError,
    Subset,
    Universe,
    UniverseMismatchError,
    check_closure,
    definable_family,
    fixpoint_family_lower,
    fixpoint_family_upper,
    is_definable,
    neighborhoods_of_covering,
    random_covering,
    random_relation,
    successor_neighborhoods,
)
from roughmatroids.fileio import dumps, report_payload
from conftest import HEX_DEFINABLE, MIXED4_DEFINABLE, pair_scan_closure
from test_acceptance import all_neighborhood_signatures


def brute_definable(nm):
    """Independent route: label-set unions over the full powerset."""
    from itertools import combinations

    labels = nm.universe.labels
    out = []
    for k in range(len(labels) + 1):
        for combo in combinations(labels, k):
            union = set()
            for lab in combo:
                union |= set(nm.neighborhood(lab).members())
            if union == set(combo):
                out.append(frozenset(combo))
    return set(out)


def scan_definable(nm):
    """Reference route on masks: every subset of the powerset whose
    members' neighborhood images union to the subset itself."""
    cells = nm.cell_bits
    bits = []
    for x in range(1 << nm.universe.size):
        union = 0
        for i, cell in enumerate(cells):
            if x >> i & 1:
                union |= cell
        if union == x:
            bits.append(x)
    return SetFamily.from_bits(nm.universe, bits)


class TestIsDefinable:
    def test_hex_examples(self, hex_covering, hex_universe):
        nm = neighborhoods_of_covering(hex_covering)
        assert not is_definable(nm, hex_universe.subset(["b", "d", "f"]))
        assert is_definable(nm, hex_universe.subset(["a", "b", "c", "d"]))
        assert is_definable(nm, hex_universe.empty())

    def test_relation_examples(self, rel4, rel4_universe):
        nm = successor_neighborhoods(rel4)
        for labels in ([["a1"], ["a1", "a2"], ["a1", "a3"]]):
            assert is_definable(nm, rel4_universe.subset(labels))
        assert not is_definable(nm, rel4_universe.subset(["a4"]))


class TestDefinableFamily:
    def test_hex_sixteen_members(self, hex_covering, hex_universe):
        family = definable_family(neighborhoods_of_covering(hex_covering))
        assert family == SetFamily.from_labels(hex_universe, HEX_DEFINABLE)
        # canonical order matches cardinality, then earliest members first
        assert [m.members() for m in family.members][:5] == [
            (),
            ("e",),
            ("f",),
            ("a", "d"),
            ("b", "c"),
        ]

    def test_chain_five_members(self, chain_covering, chain_universe):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        expected = SetFamily.from_labels(
            chain_universe, [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
        )
        assert family == expected

    def test_mixed4_nine_members(self, mixed4_covering, mixed4_universe):
        family = definable_family(neighborhoods_of_covering(mixed4_covering))
        assert family == SetFamily.from_labels(mixed4_universe, MIXED4_DEFINABLE)

    def test_relation_family(self, rel4, rel4_universe):
        family = definable_family(successor_neighborhoods(rel4))
        expected = SetFamily.from_labels(
            rel4_universe,
            [[], ["a1"], ["a1", "a2"], ["a1", "a3"], ["a1", "a2", "a3"]],
        )
        assert family == expected

    def test_closure_route_filters_for_relations(self):
        # a one-arrow relation: the image {b} is a union of images but not
        # definable, so the closure route must filter it out
        u = Universe(("a", "b"))
        rel = BinaryRelation.from_labels(u, [("a", "b")])
        nm = successor_neighborhoods(rel)
        assert definable_family(nm) == scan_definable(nm)
        assert definable_family(nm) == SetFamily.from_labels(u, [[]])

    def test_scan_bound(self):
        # the powerset scans stop at SCAN_LIMIT elements; the union closure
        # is bounded by the number of sets it holds, so a one-block covering
        # of 21 elements still has its two definable sets
        with pytest.warns(UserWarning):
            u = Universe(tuple(f"x{i}" for i in range(21)))
        nm = neighborhoods_of_covering(Covering(u, (u.full(),)))
        with pytest.raises(SizeBoundError):
            fixpoint_family_lower(nm)
        assert definable_family(nm) == SetFamily.of(u, [u.empty(), u.full()])

    def test_closure_past_the_bound_raises(self, monkeypatch):
        # the discrete 12-element covering closes to 2^12 sets; lowering the
        # bound shows the check without building 2^21 sets
        from roughmatroids import definable

        u = Universe(tuple(f"x{i}" for i in range(12)))
        nm = neighborhoods_of_covering(Covering(u, u.singletons()))
        monkeypatch.setattr(definable, "SCAN_LIMIT", 11)
        with pytest.raises(SizeBoundError, match="2\\^11"):
            definable_family(nm)
        monkeypatch.setattr(definable, "SCAN_LIMIT", 12)
        assert len(definable_family(nm)) == 1 << 12

    def test_thirteen_element_partition_gives_class_unions(self):
        # a 13-element partition: the family is the unions of its classes
        u = Universe(tuple(f"x{i}" for i in range(13)))
        blocks = [[f"x{i}", f"x{i+1}"] for i in range(0, 12, 2)] + [["x12"]]
        covering = Covering.from_labels(u, blocks)
        family = definable_family(neighborhoods_of_covering(covering))
        assert len(family) == 1 << 7  # unions of the seven classes
        assert u.empty() in family and u.full() in family

    def test_repeated_call_returns_the_same_family(self, hex_covering):
        nm = neighborhoods_of_covering(hex_covering)
        family = definable_family(nm)
        assert definable_family(nm) is family
        # an equal map built afresh hits the same entry
        assert definable_family(neighborhoods_of_covering(hex_covering)) is family

    def test_memo_keeps_no_family_that_no_caller_holds(self):
        # a strong cache would keep stale families alive and raise peak memory
        import gc
        import weakref

        nm = neighborhoods_of_covering(random_covering(7, 0.3, 5))
        ref = weakref.ref(definable_family(nm))
        gc.collect()
        assert ref() is None

    def test_same_cells_on_different_universes_stay_apart(self):
        # identical cell masks, different labels: each family keeps its own
        # universe and label notation
        u1, u2 = Universe(("a", "b")), Universe(("x", "y"))
        f1 = definable_family(neighborhoods_of_covering(Covering.from_labels(u1, [["a"], ["b"]])))
        f2 = definable_family(neighborhoods_of_covering(Covering.from_labels(u2, [["x"], ["y"]])))
        assert f1.bitset() == f2.bitset() == {0, 1, 2, 3}
        assert f1.universe == u1 and f2.universe == u2
        assert all(m.universe == u2 for m in f2)
        assert [m.notation() for m in f2] == ["{}", "{x}", "{y}", "{x, y}"]

    def test_relation_with_empty_cells_through_the_memoised_route(self):
        # b and c have no successors (empty cells); only the empty set and
        # a's image {a, b} are definable
        u = Universe(("a", "b", "c"))
        rel = BinaryRelation.from_labels(u, [("a", "a"), ("a", "b")])
        nm = successor_neighborhoods(rel)
        assert nm.cell_bits == (0b011, 0, 0)
        expected = {frozenset(), frozenset({"a", "b"})}
        family = definable_family(nm)
        assert {frozenset(m.members()) for m in family} == expected == brute_definable(nm)
        assert family == scan_definable(nm)
        assert definable_family(successor_neighborhoods(rel)) is family

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_scan_equals_closure_for_coverings(self, n, seed):
        nm = neighborhoods_of_covering(random_covering(n, 0.45, seed))
        assert definable_family(nm) == scan_definable(nm)

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_scan_equals_closure_for_relations(self, n, seed):
        nm = successor_neighborhoods(random_relation(n, 0.35, seed))
        assert definable_family(nm) == scan_definable(nm)

    def test_scan_equals_closure_exhaustive_small(self):
        # every covering on up to three elements
        for n in (1, 2, 3):
            u = Universe(tuple("abc"[:n]))
            nonempty = list(range(1, 1 << n))
            full = (1 << n) - 1
            for mask in range(1, 1 << len(nonempty)):
                blocks = [nonempty[i] for i in range(len(nonempty)) if (mask >> i) & 1]
                union = 0
                for b in blocks:
                    union |= b
                if union != full:
                    continue
                covering = Covering(u, tuple(u.from_bits(b) for b in blocks))
                nm = neighborhoods_of_covering(covering)
                assert definable_family(nm) == scan_definable(nm)

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_brute_label_route(self, n, seed):
        nm = neighborhoods_of_covering(random_covering(n, 0.5, seed))
        family = definable_family(nm)
        assert {frozenset(m.members()) for m in family} == brute_definable(nm)

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_every_neighborhood_is_definable(self, n, seed):
        nm = neighborhoods_of_covering(random_covering(n, 0.5, seed))
        for cell in nm.cells:
            assert is_definable(nm, cell)

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_contains_empty_and_universe(self, n, seed):
        covering = random_covering(n, 0.5, seed)
        family = definable_family(neighborhoods_of_covering(covering))
        assert covering.universe.empty() in family
        assert covering.universe.full() in family


class TestSetFamily:
    def test_rejects_repeated_members(self):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError, match="distinct"):
            SetFamily(u, (0b01, 0b01))

    def test_rejects_a_subset_as_a_mask(self):
        u = Universe(("a", "b"))
        with pytest.raises(TypeError, match=r"SetFamily\.of"):
            SetFamily(u, (0, u.subset(["a"])))

    @pytest.mark.parametrize("mask", [-1, 0b100, 1 << 40])
    def test_rejects_a_mask_out_of_range(self, mask):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError, match="must lie in"):
            SetFamily(u, (0, mask))

    def test_rejects_a_member_on_another_universe(self):
        u = Universe(("a", "b"))
        stray = Universe(("a", "b", "c")).subset(["a"])
        with pytest.raises(UniverseMismatchError):
            SetFamily.of(u, (u.empty(), stray))

    @pytest.mark.parametrize("item", [0, "a", None])
    def test_anything_but_a_subset_is_not_a_member(self, item):
        family = SetFamily(Universe(("a", "b")), (0, 1))
        assert item not in family

    def test_of_drops_repeated_members(self):
        u = Universe(("a", "b"))
        a = u.subset(["a"])
        family = SetFamily.of(u, [u.full(), a, u.subset(["a"]), a])
        assert family == SetFamily(u, (0b11, 0b01))
        assert len(family) == 2

    def test_members_view_the_masks_in_order(self, hex_covering, rel4):
        for nm in (hex_covering.neighborhoods, rel4.neighborhoods):
            family = definable_family(nm)
            u = family.universe
            assert family.members == tuple(Subset(u, b) for b in family.masks)
            assert list(family) == list(family.members)

    def test_of_rebuilds_every_definable_family_up_to_four_elements(self):
        families = 0
        for n in (1, 2, 3, 4):
            for covering in all_neighborhood_signatures(n):
                family = definable_family(covering.neighborhoods)
                assert SetFamily.of(family.universe, family.members) == family
                families += 1
        assert families == 1 + 4 + 29 + 355


class TestSubfamily:
    def test_masks_select_members_by_index(self, chain_covering, chain_universe):
        # D = {}, {b}, {a, b}, {b, c}, {a, b, c}
        family = definable_family(neighborhoods_of_covering(chain_covering))
        assert family.subfamily(0b00110) == SetFamily.from_labels(
            chain_universe, [["b"], ["a", "b"]]
        )
        assert family.subfamily(0b11111) == family
        assert len(family.subfamily(0)) == 0

    @pytest.mark.parametrize("mask", [0, 0b00110, 0b10101, 0b11111])
    def test_subfamily_bitset_is_the_selected_masks(self, chain_covering, mask):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        selected = {m.bits for i, m in enumerate(family.members) if mask >> i & 1}
        assert family.subfamily(mask).bitset() == selected

    @pytest.mark.parametrize("mask", [-1, -2, 1 << 5, 1 << 40])
    def test_mask_outside_the_member_indices_is_refused(self, chain_covering, mask):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        with pytest.raises(ValueError):
            family.subfamily(mask)


class TestFixpointFamilies:
    def test_lower_equals_definable_on_hex(self, hex_covering):
        nm = neighborhoods_of_covering(hex_covering)
        assert fixpoint_family_lower(nm) == definable_family(nm)

    def test_upper_equals_definable_on_hex(self, hex_covering):
        # the hex covering's neighborhoods partition the universe, so the
        # definable family is complement-closed and the coincidence holds
        nm = neighborhoods_of_covering(hex_covering)
        assert fixpoint_family_upper(nm) == definable_family(nm)

    def test_lower_on_partition_matches_class_unions(self):
        u = Universe(tuple("abcde"))
        covering = Covering.from_labels(u, [["a", "b"], ["c"], ["d", "e"]])
        nm = neighborhoods_of_covering(covering)
        family = fixpoint_family_lower(nm)
        from itertools import combinations

        classes = [frozenset("ab"), frozenset("c"), frozenset("de")]
        unions = set()
        for k in range(len(classes) + 1):
            for combo in combinations(classes, k):
                union = frozenset().union(*combo) if combo else frozenset()
                unions.add(union)
        assert {frozenset(m.members()) for m in family} == unions

    def test_empty_always_lower_fixpoint(self, mixed4_covering):
        nm = neighborhoods_of_covering(mixed4_covering)
        assert mixed4_covering.universe.empty() in fixpoint_family_lower(nm)

    def test_universe_always_upper_fixpoint(self, mixed4_covering):
        nm = neighborhoods_of_covering(mixed4_covering)
        assert mixed4_covering.universe.full() in fixpoint_family_upper(nm)

    def test_upper_fixpoints_are_complements_of_definable(self, chain_covering, chain_universe):
        # on the chain covering the upper fixpoints differ from the
        # definable family: they are exactly its complements
        nm = neighborhoods_of_covering(chain_covering)
        upper = fixpoint_family_upper(nm)
        assert upper == SetFamily.from_labels(
            chain_universe, [[], ["a"], ["c"], ["a", "c"], ["a", "b", "c"]]
        )
        definable = definable_family(nm)
        assert upper == SetFamily.of(
            chain_universe, (m.complement() for m in definable)
        )
        assert upper != definable

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_fixpoint_laws_random(self, n, seed):
        nm = neighborhoods_of_covering(random_covering(n, 0.4, seed))
        definable = definable_family(nm)
        assert fixpoint_family_lower(nm) == definable
        assert fixpoint_family_upper(nm) == SetFamily.of(
            nm.universe, (m.complement() for m in definable)
        )


class TestCheckClosure:
    def test_mask_scan_reports_like_the_pair_scan(self):
        import random

        rng = random.Random(7)
        verdicts = set()
        for n in (1, 2, 3, 4):
            u = Universe(tuple("abcd"[:n]))
            for _ in range(150):
                bits = {rng.getrandbits(n) for _ in range(rng.randint(1, 6))}
                family = SetFamily.from_bits(u, bits)
                report = check_closure(family)
                expected = pair_scan_closure(family)
                assert dumps(report_payload(report)) == dumps(report_payload(expected))
                verdicts.add(tuple(f.axiom for f in report.failures))
        assert verdicts == {
            (),
            ("union-closure",),
            ("intersection-closure",),
            ("union-closure", "intersection-closure"),
        }

    def test_definable_family_closed(self, hex_covering):
        family = definable_family(neighborhoods_of_covering(hex_covering))
        assert check_closure(family).passed

    def test_constructed_failure(self):
        u = Universe(("a", "b"))
        family = SetFamily.from_labels(u, [[], ["a"], ["b"]])
        report = check_closure(family)
        assert not report.passed
        assert report.failed_axiom == "union-closure"
        witness = report.witness
        assert witness["missing"] == u.subset(["a", "b"])
        assert {witness["x"], witness["y"]} == {u.subset(["a"]), u.subset(["b"])}

    def test_trivial_family(self):
        u = Universe(("a",))
        assert check_closure(SetFamily.from_labels(u, [[]])).passed

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_definable_families_always_closed(self, n, seed):
        family = definable_family(
            neighborhoods_of_covering(random_covering(n, 0.45, seed))
        )
        assert check_closure(family).passed


class TestDistributivity:
    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_definable_family_distributive(self, n, seed):
        family = definable_family(
            neighborhoods_of_covering(random_covering(n, 0.5, seed))
        )
        bits = [m.bits for m in family]
        for a in bits:
            for b in bits:
                for c in bits:
                    assert (a & (b | c)) == ((a & b) | (a & c))
