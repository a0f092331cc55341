"""Ground types, neighborhood operators, and approximation laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmatroids import (
    BinaryRelation,
    Covering,
    InvalidCoveringError,
    Subset,
    Universe,
    UniverseMismatchError,
    check_duality,
    lower_approx,
    neighborhoods_of_covering,
    random_covering,
    successor_neighborhoods,
    upper_approx,
)
from conftest import pawlak_lower, pawlak_upper


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

    def test_large_universe_accepted_with_warning(self):
        with pytest.warns(UserWarning, match="bounded at 20"):
            u = Universe(tuple(f"x{i}" for i in range(21)))
        assert u.size == 21


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

    def test_members_in_declaration_order(self):
        u = Universe(("b", "a"))
        assert u.subset(["a", "b"]).members() == ("b", "a")

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

    def test_identity_relation(self):
        u = Universe(("a", "b", "c"))
        rel = BinaryRelation.from_labels(u, [(x, x) for x in u.labels])
        nm = successor_neighborhoods(rel)
        assert [cell.members() for cell in nm.cells] == [("a",), ("b",), ("c",)]


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
