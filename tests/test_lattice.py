"""Hasse construction, lattice laws, atomicity, and DOT output."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmatroids import (
    Covering,
    LatticeDiagram,
    NotALatticeError,
    SetFamily,
    Universe,
    build_lattice,
    check_atomicity,
    check_lattice_laws,
    definable_family,
    export_dot,
    neighborhoods_of_covering,
    random_covering,
)
from support import brute_covers


class TestBuildLattice:
    def test_chain_edges(self, chain_covering):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        diagram = build_lattice(family)
        named = [(a.notation(), b.notation()) for a, b in diagram.edge_sets()]
        assert named == [
            ("{}", "{b}"),
            ("{b}", "{a, b}"),
            ("{b}", "{b, c}"),
            ("{a, b}", "{a, b, c}"),
            ("{b, c}", "{a, b, c}"),
        ]
        assert diagram.bottom == chain_covering.universe.empty()
        assert diagram.top == chain_covering.universe.full()

    def test_hex_sixteen_nodes(self, hex_covering):
        family = definable_family(neighborhoods_of_covering(hex_covering))
        diagram = build_lattice(family)
        assert len(diagram.nodes) == 16
        assert diagram.edges == brute_covers(family)

    def test_single_node(self):
        u = Universe(("a",))
        diagram = build_lattice(SetFamily.from_labels(u, [[]]))
        assert len(diagram.nodes) == 1
        assert diagram.edges == ()
        assert diagram.bottom == diagram.top == u.empty()

    def test_bottom_and_top_do_not_depend_on_member_order(self):
        u = Universe(("a", "b"))
        diagram = build_lattice(SetFamily(u, (0b11, 0)))
        assert diagram.bottom == u.empty()
        assert diagram.top == u.full()
        assert check_atomicity(diagram).details["atoms"] == ["{a, b}"]

    def test_unclosed_family_rejected(self):
        u = Universe(("a", "b"))
        family = SetFamily.from_labels(u, [[], ["a"], ["b"]])
        with pytest.raises(NotALatticeError) as exc:
            build_lattice(family)
        assert exc.value.report.failed_axiom == "union-closure"

    def test_empty_family_rejected(self):
        u = Universe(("a",))
        with pytest.raises(NotALatticeError) as exc:
            build_lattice(SetFamily.of(u, ()))
        assert str(exc.value) == (
            "family is not a lattice: closure fails (empty family has no bottom element)"
        )
        assert exc.value.report.failed_axiom == "closure"

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_edges_match_brute_route(self, n, seed):
        family = definable_family(
            neighborhoods_of_covering(random_covering(n, 0.5, seed))
        )
        diagram = build_lattice(family)
        assert diagram.edges == brute_covers(family)

    @pytest.mark.parametrize("n,seed,size", [(8, 3, 48), (10, 8, 44), (11, 11, 137), (9, 7, 180)])
    def test_edges_match_brute_route_on_sparse_random_coverings(self, n, seed, size):
        family = definable_family(neighborhoods_of_covering(random_covering(n, 0.3, seed)))
        assert len(family) == size
        diagram = build_lattice(family)
        assert diagram.edges == brute_covers(family)
        assert diagram.bottom == family.members[0] and diagram.top == family.members[-1]

    @pytest.mark.parametrize(
        "members",
        [[], [[], ["a"], ["b"]], [["a"], ["b"]]],
        ids=["empty", "union-of-atoms-missing", "no-least-or-greatest"],
    )
    def test_diagram_rejects_a_family_that_is_not_a_lattice(self, members):
        family = SetFamily.from_labels(Universe(("a", "b")), members)
        with pytest.raises(NotALatticeError):
            LatticeDiagram(family)


class TestLatticeLaws:
    def test_hex_laws_pass(self, hex_covering):
        family = definable_family(neighborhoods_of_covering(hex_covering))
        assert check_lattice_laws(build_lattice(family)).passed

    def test_chain_laws_pass(self, chain_covering):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        assert check_lattice_laws(build_lattice(family)).passed

    def test_degenerate_family(self):
        u = Universe(("a",))
        assert check_lattice_laws(build_lattice(SetFamily.from_labels(u, [[]]))).passed


class TestAtomicity:
    def test_chain_not_atomic(self, chain_covering, chain_universe):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        report = check_atomicity(build_lattice(family))
        assert not report.passed
        assert report.details["atoms"] == ["{b}"]
        assert report.witness["member"] == chain_universe.subset(["a", "b"])

    def test_partition_atomic(self):
        u = Universe(tuple("abcde"))
        covering = Covering.from_labels(u, [["a", "b"], ["c"], ["d", "e"]])
        family = definable_family(neighborhoods_of_covering(covering))
        report = check_atomicity(build_lattice(family))
        assert report.passed
        assert report.details["atoms"] == ["{c}", "{a, b}", "{d, e}"]

    def test_bottom_and_top_only(self):
        u = Universe(("a", "b"))
        family = SetFamily.from_labels(u, [[], ["a", "b"]])
        report = check_atomicity(build_lattice(family))
        assert report.passed
        assert report.details["atoms"] == ["{a, b}"]

    def test_hex_atomic(self, hex_covering):
        family = definable_family(neighborhoods_of_covering(hex_covering))
        assert check_atomicity(build_lattice(family)).passed


class TestExportDot:
    def test_chain_dot(self, chain_covering):
        family = definable_family(neighborhoods_of_covering(chain_covering))
        dot = export_dot(build_lattice(family))
        assert dot.count("[label=") == 5
        assert dot.count("->") == 5
        assert 'n0 [label="{}"];' in dot
        assert "n0 -> n1;" in dot
        assert dot.startswith("digraph lattice {")

    def test_single_node_dot(self):
        u = Universe(("a",))
        dot = export_dot(build_lattice(SetFamily.from_labels(u, [[]])))
        assert dot.count("[label=") == 1
        assert "->" not in dot

    def test_hex_dot_node_count(self, hex_covering):
        family = definable_family(neighborhoods_of_covering(hex_covering))
        assert export_dot(build_lattice(family)).count("[label=") == 16

    def test_byte_identical_across_runs(self, hex_covering):
        def render():
            family = definable_family(neighborhoods_of_covering(hex_covering))
            return export_dot(build_lattice(family))

        assert render() == render()
