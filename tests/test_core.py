"""Ground types, neighborhood operators, and approximation laws."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmatroids import (
    BinaryRelation,
    Covering,
    InvalidCoveringError,
    SizeBoundError,
    Subset,
    Universe,
    UniverseMismatchError,
    check_duality,
    cross_check,
    lower_approx,
    NeighborhoodMap,
    neighborhoods_of_covering,
    random_covering,
    random_relation,
    successor_neighborhoods,
    upper_approx,
)


def pawlak_lower(classes, x: frozenset) -> frozenset:
    out: frozenset = frozenset()
    for cls in classes:
        if cls <= x:
            out |= cls
    return out


def pawlak_upper(classes, x: frozenset) -> frozenset:
    out: frozenset = frozenset()
    for cls in classes:
        if cls & x:
            out |= cls
    return out


# ---------------------------------------------------------------------------
# Universe and Subset
# ---------------------------------------------------------------------------


class TestUniverse:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Universe(())

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            Universe(("a", ""))

    def test_index_roundtrip(self):
        u = Universe(("x", "y", "z"))
        assert [u.index(lab) for lab in u.labels] == [0, 1, 2]
        with pytest.raises(KeyError):
            u.index("w")

    def test_label_lookup_uses_the_position_map(self):
        with pytest.warns(UserWarning):
            u = Universe(tuple(f"x{i}" for i in range(5000)))
            same = Universe(tuple(u.labels))
        assert u.index("x4999") == 4999
        assert "x17" in u and "y" not in u and ["x1"] not in u
        for bad in ("y", ["x1"], 3):
            with pytest.raises(KeyError):
                u.index(bad)
        # the map is not part of equality or hashing
        assert same == u and hash(same) == hash(u)
        assert "_positions" not in repr(Universe(("a",)))

    def test_position_reads_the_label_table(self):
        u = Universe(("x", "y"))
        assert [u.position(lab) for lab in u.labels] == [0, 1]
        for other in ("z", "", 0, None, ["x"], {"x": 0}, ("x",)):
            assert u.position(other) is None and other not in u

    def test_index_makes_one_dictionary_lookup(self):
        class CountingDict(dict):
            lookups = 0

            def __getitem__(self, key):
                CountingDict.lookups += 1
                return super().__getitem__(key)

            def get(self, key, default=None):
                CountingDict.lookups += 1
                return super().get(key, default)

            def __contains__(self, key):
                CountingDict.lookups += 1
                return super().__contains__(key)

        u = Universe(("x", "y"))
        object.__setattr__(u, "_positions", CountingDict(x=0, y=1))
        assert u.index("y") == 1 and CountingDict.lookups == 1
        # an unknown string costs one lookup; a label of another type, the
        # unhashable ones included, is refused before any
        for bad, lookups in (("w", 1), (3, 0), (["x"], 0), ({"x": 0}, 0)):
            CountingDict.lookups = 0
            with pytest.raises(KeyError) as exc:
                u.index(bad)
            assert exc.value.args == (f"unknown label {bad!r}",)
            assert CountingDict.lookups == lookups

    def test_large_universe_accepted_with_warning(self):
        with pytest.warns(UserWarning, match="bounded at 20"):
            u = Universe(tuple(f"x{i}" for i in range(21)))
        assert u.size == 21
        with pytest.raises(SizeBoundError, match="powerset scan"):
            next(u.all_subsets())


class TestSubset:
    def test_extensional_equality(self):
        u = Universe(("a", "b", "c"))
        assert u.subset(["a", "c"]) == u.subset(["c", "a"])
        assert u.subset(["a"]) != u.subset(["b"])

    def test_mismatch_raises(self):
        u1 = Universe(("a", "b"))
        u2 = Universe(("a", "c"))
        with pytest.raises(UniverseMismatchError):
            u1.subset(["a"]) | u2.subset(["a"])

    def test_shared_universe_is_not_compared(self, monkeypatch):
        # values on one Universe object skip the field-by-field equality test,
        # which the law suite would otherwise run thousands of times
        calls = []
        eq = Universe.__eq__

        def counted(self, other):
            calls.append(other)
            return eq(self, other)

        monkeypatch.setattr(Universe, "__eq__", counted)
        for n, seed in ((8, 3), (9, 7), (10, 11), (11, 2)):
            cross_check(random_covering(n, 0.3, seed))
        assert calls == []
        # equal universes that are distinct objects still combine
        a, b = Universe(("a", "b")), Universe(("a", "b"))
        assert (a.subset(["a"]) | b.subset(["b"])) == a.full()
        assert len(calls) == 1

    def test_members_in_declaration_order(self):
        u = Universe(("b", "a"))
        assert u.subset(["a", "b"]).members() == ("b", "a")

    def test_bits_out_of_range_rejected(self):
        u = Universe(("a", "b"))
        for bits in (-1, 1 << 2):
            with pytest.raises(ValueError, match="out of range"):
                Subset(u, bits)

    def test_indices_are_the_positions_that_hold_a_bit(self):
        rng = random.Random(19)
        widths = [1, 2, 3, 7, 8, 9, 63, 64, 65, 200, 1024]
        with pytest.warns(UserWarning):
            universes = {w: Universe(tuple(f"x{i}" for i in range(w))) for w in widths}
        for width, u in universes.items():
            masks = [0, (1 << width) - 1, 1 << (width - 1)]
            masks += [rng.getrandbits(width) for _ in range(20)]
            masks += [sum(1 << i for i in rng.sample(range(width), min(width, 3))) for _ in range(5)]
            for bits in masks:
                own = tuple(i for i in range(width) if bits >> i & 1)
                assert Subset(u, bits).indices() == own

    def test_membership_reads_the_members(self):
        # a label outside the universe is not a member, as for Universe
        s = Universe(("a", "b")).subset(["a"])
        assert "a" in s
        assert "b" not in s
        assert "z" not in s

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_algebra_matches_python_sets(self, xb, yb):
        u = Universe(tuple("abcdefgh"))
        x, y = Subset(u, xb), Subset(u, yb)
        sx, sy = set(x.members()), set(y.members())
        assert set((x | y).members()) == sx | sy
        assert set((x & y).members()) == sx & sy
        assert set((x - y).members()) == sx - sy
        assert set(x.complement().members()) == set(u.labels) - sx
        assert len(x) == len(sx)
        assert x.issubset(y) == (sx <= sy)


class TestCovering:
    def test_rejects_empty_block(self):
        u = Universe(("a", "b"))
        with pytest.raises(InvalidCoveringError):
            Covering(u, (u.subset(["a", "b"]), u.empty()))

    def test_rejects_incomplete_union(self):
        u = Universe(("a", "b"))
        with pytest.raises(InvalidCoveringError, match="missing"):
            Covering.from_labels(u, [["a"]])

    def test_rejects_duplicate_blocks(self):
        u = Universe(("a", "b"))
        with pytest.raises(InvalidCoveringError, match="duplicate"):
            Covering.from_labels(u, [["a", "b"], ["a", "b"]])

    def test_rejects_block_on_another_universe(self):
        u = Universe(("a", "b"))
        other = Universe(("a", "c"))
        with pytest.raises(UniverseMismatchError):
            Covering(u, (u.subset(["a", "b"]), other.subset(["a"])))

    def test_partition_detection(self):
        u = Universe(("a", "b", "c"))
        assert Covering.from_labels(u, [["a"], ["b", "c"]]).is_partition()
        assert not Covering.from_labels(u, [["a", "b"], ["b", "c"]]).is_partition()


# ---------------------------------------------------------------------------
# Neighborhoods
# ---------------------------------------------------------------------------


class TestCoveringNeighborhoods:
    def test_hex_covering_table(self, hex_covering):
        nm = neighborhoods_of_covering(hex_covering)
        expected = {
            "a": ("a", "d"),
            "b": ("b", "c"),
            "c": ("b", "c"),
            "d": ("a", "d"),
            "e": ("e",),
            "f": ("f",),
        }
        for label, members in expected.items():
            assert nm.neighborhood(label).members() == members

    def test_chain_covering(self, chain_covering):
        nm = neighborhoods_of_covering(chain_covering)
        assert nm.neighborhood("a").members() == ("a", "b")
        assert nm.neighborhood("b").members() == ("b",)
        assert nm.neighborhood("c").members() == ("b", "c")

    def test_singleton_universe(self):
        u = Universe(("x",))
        nm = neighborhoods_of_covering(Covering.from_labels(u, [["x"]]))
        assert nm.neighborhood("x") == u.full()

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_reflexivity_and_monotonicity(self, n, seed):
        # every x lies in its own cell; membership implies cell inclusion
        covering = random_covering(n, 0.4, seed)
        nm = neighborhoods_of_covering(covering)
        for i, cell in enumerate(nm.cell_bits):
            assert (cell >> i) & 1
            for j in range(n):
                if (cell >> j) & 1:
                    assert nm.cell_bits[j] & ~cell == 0


class TestSuccessorNeighborhoods:
    def test_four_point_relation(self, rel4):
        nm = successor_neighborhoods(rel4)
        assert nm.neighborhood("a1").members() == ("a1",)
        assert nm.neighborhood("a2").members() == ("a1", "a2")
        assert nm.neighborhood("a3").members() == ("a1", "a3")
        assert nm.neighborhood("a4").members() == ()

    def test_empty_relation(self):
        u = Universe(("a", "b"))
        nm = successor_neighborhoods(BinaryRelation(u, frozenset()))
        assert all(not cell for cell in nm.cells)

    def test_rejects_a_pair_out_of_range(self):
        u = Universe(("a", "b"))
        for pair in ((0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="out of range"):
                BinaryRelation(u, frozenset([pair]))

    def test_identity_relation(self):
        u = Universe(("a", "b", "c"))
        rel = BinaryRelation.from_labels(u, [(x, x) for x in u.labels])
        nm = successor_neighborhoods(rel)
        assert [cell.members() for cell in nm.cells] == [("a",), ("b",), ("c",)]

    def test_property_equals_the_successor_construction(self, rel4):
        def successors(relation):
            u = relation.universe
            cells = [
                u.subset(u.labels[y] for y in range(u.size) if (x, y) in relation.pairs)
                for x in range(u.size)
            ]
            return NeighborhoodMap(u, tuple(cell.bits for cell in cells))

        relations = [rel4] + [
            random_relation(n, density, seed)
            for n in (1, 3, 5)
            for density in (0.0, 0.3, 0.7, 1.0)
            for seed in range(3)
        ]
        for relation in relations:
            assert relation.neighborhoods == successors(relation)

    def test_function_returns_the_cached_property(self, rel4):
        first = successor_neighborhoods(rel4)
        assert rel4.neighborhoods is first
        assert successor_neighborhoods(rel4) is first


class TestNeighborhoodMap:
    def test_cell_bits_are_the_cell_masks(self, hex_covering):
        nm = neighborhoods_of_covering(hex_covering)
        assert nm.cell_bits == tuple(cell.bits for cell in nm.cells)

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_a_cell_count_other_than_the_universe_size(self, count):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError, match="one neighborhood per element"):
            NeighborhoodMap(u, (0b11,) * count)

    def test_rejects_a_cell_on_another_universe(self):
        u = Universe(("a", "b"))
        stray = Universe(("a", "b", "c")).subset(["c"])
        for cell in (stray.bits, stray, -1):
            with pytest.raises(ValueError, match="int masks below 2"):
                NeighborhoodMap(u, (0b01, cell))

    def test_cells_view_the_masks_in_order(self, hex_covering, rel4):
        for nm in (hex_covering.neighborhoods, rel4.neighborhoods):
            u = nm.universe
            assert nm.cells == tuple(Subset(u, b) for b in nm.cell_bits)
            assert [nm.neighborhood(lab) for lab in u.labels] == list(nm.cells)


# ---------------------------------------------------------------------------
# Approximation operators
# ---------------------------------------------------------------------------


def scan_lower(nm, x):
    """Independent label-set route for the lower approximation."""
    members = set(x.members())
    picked = [
        lab
        for lab in nm.universe.labels
        if set(nm.neighborhood(lab).members()) <= members
    ]
    return nm.universe.subset(picked)


def scan_upper(nm, x):
    members = set(x.members())
    picked = [
        lab
        for lab in nm.universe.labels
        if set(nm.neighborhood(lab).members()) & members
    ]
    return nm.universe.subset(picked)


class TestApproximations:
    def test_hex_lower_examples(self, hex_covering, hex_universe):
        nm = neighborhoods_of_covering(hex_covering)
        x = hex_universe.subset(["a", "b", "c", "d"])
        assert lower_approx(nm, x) == x == scan_lower(nm, x)
        y = hex_universe.subset(["b", "d", "f"])
        assert lower_approx(nm, y) == hex_universe.subset(["f"]) == scan_lower(nm, y)
        assert lower_approx(nm, hex_universe.full()) == hex_universe.full()

    def test_hex_upper_examples(self, hex_covering, hex_universe):
        nm = neighborhoods_of_covering(hex_covering)
        assert upper_approx(nm, hex_universe.empty()) == hex_universe.empty()
        e = hex_universe.subset(["e"])
        assert upper_approx(nm, e) == e == scan_upper(nm, e)

    def test_relation_upper_example(self, rel4, rel4_universe):
        nm = successor_neighborhoods(rel4)
        x = rel4_universe.subset(["a1"])
        assert upper_approx(nm, x) == rel4_universe.subset(["a1", "a2", "a3"])
        assert upper_approx(nm, x) == scan_upper(nm, x)

    def test_universe_mismatch(self, hex_covering):
        nm = neighborhoods_of_covering(hex_covering)
        other = Universe(("a", "b"))
        with pytest.raises(UniverseMismatchError):
            lower_approx(nm, other.subset(["a"]))

    def test_duality_examples(self, hex_covering, hex_universe):
        nm = neighborhoods_of_covering(hex_covering)
        assert check_duality(nm, hex_universe.subset(["b", "d", "f"]))
        assert check_duality(nm, hex_universe.empty())
        assert check_duality(nm, hex_universe.full())

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_duality_exhaustive(self, n, seed):
        covering = random_covering(n, 0.5, seed)
        nm = neighborhoods_of_covering(covering)
        for x in covering.universe.all_subsets():
            assert check_duality(nm, x)

    @given(st.integers(1, 7), st.integers(0, 10_000), st.integers(0, 127), st.integers(0, 127))
    @settings(max_examples=80)
    def test_monotonicity_and_bounds(self, n, seed, xb, yb):
        covering = random_covering(n, 0.4, seed)
        u = covering.universe
        mask = (1 << n) - 1
        x = Subset(u, xb & mask)
        y = Subset(u, (xb | yb) & mask)  # x <= y by construction
        nm = neighborhoods_of_covering(covering)
        assert lower_approx(nm, x).issubset(lower_approx(nm, y))
        assert upper_approx(nm, x).issubset(upper_approx(nm, y))
        # covering neighborhoods contain their element, so lower <= x <= upper
        assert lower_approx(nm, x).issubset(x)
        assert x.issubset(upper_approx(nm, x))

    @given(st.integers(0, 255))
    def test_partition_matches_pawlak(self, xb):
        labels = tuple("abcdefgh")
        u = Universe(labels)
        blocks = [["a", "c"], ["b"], ["d", "e", "f"], ["g", "h"]]
        covering = Covering.from_labels(u, blocks)
        nm = neighborhoods_of_covering(covering)
        classes = [frozenset(b) for b in blocks]
        x = Subset(u, xb)
        fx = frozenset(x.members())
        assert frozenset(lower_approx(nm, x).members()) == pawlak_lower(classes, fx)
        assert frozenset(upper_approx(nm, x).members()) == pawlak_upper(classes, fx)
