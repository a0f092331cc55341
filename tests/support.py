"""Structures, input generators and brute-force references shared by the
test modules.  It imports neither pytest nor hypothesis, so the acceptance
script (``python tests/test_acceptance.py``) runs on it alone, and
``conftest.py`` builds its fixtures from it.

The paper's worked examples are ``hex_covering`` (six blocks on {a..f}
whose neighborhoods partition the universe), ``chain_covering``
({{a,b},{b,c}}), ``mixed4_covering`` (one non-singleton neighborhood) and
``rel4_relations`` (a four-point relation and its extension by one
reflexive loop on the otherwise isolated element).

A gate over every covering of up to four elements uses
``preorder_coverings()``: one covering per neighborhood map, 389 in all,
since every law under test reads a covering only through its map.  A
gate over seeded random coverings uses ``seeded_coverings``, the first
seeded coverings whose definable family has a size in a given range.
"""

from __future__ import annotations

import json
from functools import cache

from roughmatroids import (
    BinaryRelation,
    Covering,
    SetFamily,
    Subset,
    Universe,
    definable_family,
    neighborhoods_of_covering,
    random_covering,
    random_relation,
    successor_neighborhoods,
)
from roughmatroids.report import AxiomFailure, CheckReport

# --- worked examples -----------------------------------------------------------

HEX_BLOCKS = [
    ["e", "f"], ["a", "d", "e"], ["a", "d", "f"], ["b", "c", "e"], ["b", "c", "f"], ["a", "b", "c", "d"],
]

HEX_DEFINABLE = [
    [], ["e"], ["f"], ["a", "d"], ["b", "c"], ["e", "f"],
    ["a", "d", "e"], ["a", "d", "f"], ["b", "c", "e"], ["b", "c", "f"],
    ["a", "b", "c", "d"], ["a", "d", "e", "f"], ["b", "c", "e", "f"],
    ["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "f"], ["a", "b", "c", "d", "e", "f"],
]

MIXED4_BLOCKS = [["a", "b"], ["a", "c"], ["a", "b", "c"], ["c", "d"]]

MIXED4_DEFINABLE = [
    [], ["a"], ["c"], ["a", "b"], ["a", "c"], ["c", "d"],
    ["a", "b", "c"], ["a", "c", "d"], ["a", "b", "c", "d"],
]

REL4_PAIRS = [("a1", "a1"), ("a2", "a1"), ("a2", "a2"), ("a3", "a1"), ("a3", "a3")]

REL4_FAMILY = [[], ["a1"], ["a1", "a2"], ["a1", "a3"]]


def hex_covering() -> Covering:
    return Covering.from_labels(Universe(tuple("abcdef")), HEX_BLOCKS)


def chain_covering() -> Covering:
    return Covering.from_labels(Universe(tuple("abc")), [["a", "b"], ["b", "c"]])


def mixed4_covering() -> Covering:
    return Covering.from_labels(Universe(tuple("abcd")), MIXED4_BLOCKS)


def rel4_relations() -> tuple[Universe, BinaryRelation, BinaryRelation]:
    """The four-point universe, the base relation and its reflexive
    extension."""
    u = Universe(("a1", "a2", "a3", "a4"))
    return (
        u,
        BinaryRelation.from_labels(u, REL4_PAIRS),
        BinaryRelation.from_labels(u, REL4_PAIRS + [("a4", "a4")]),
    )


# --- generators ------------------------------------------------------------------


def preorders(n):
    """Every reflexive, transitive relation on n elements, as successor
    masks: bit y of ``succ[x]`` when x relates to y."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in range(1 << len(pairs)):
        succ = [1 << x for x in range(n)]
        for k, (x, y) in enumerate(pairs):
            if bits >> k & 1:
                succ[x] |= 1 << y
        closed = True
        for x in range(n):
            reach = 0
            for y in range(n):
                if succ[x] >> y & 1:
                    reach |= succ[y]
            closed = closed and reach == succ[x]
        if closed:
            yield succ


@cache
def preorder_coverings():
    """The covering {R(x)} of every preorder R on one to four elements.

    Covering neighborhood maps are exactly the successor maps of
    preorders, so this is one covering per neighborhood map: 1, 4, 29 and
    355 for n = 1-4 (OEIS A000798)."""
    coverings = []
    for n in range(1, 5):
        u = Universe(tuple("abcd"[:n]))
        for succ in preorders(n):
            covering = Covering(u, tuple(u.from_bits(b) for b in sorted(set(succ))))
            assert list(neighborhoods_of_covering(covering).cell_bits) == succ
            coverings.append(covering)
    return tuple(coverings)


@cache
def small_relations():
    """Every relation on one to three elements."""
    relations = []
    for n in range(1, 4):
        u = Universe(tuple("abc"[:n]))
        pairs = [(x, y) for x in range(n) for y in range(n)]
        for bits in range(1 << len(pairs)):
            chosen = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
            relations.append(BinaryRelation(u, chosen))
    return tuple(relations)


def small_neighborhood_maps():
    """Every neighborhood map with at most three elements, of coverings and
    of relations, then seeded ones with four to six."""
    for covering in preorder_coverings():
        if covering.universe.size <= 3:
            yield neighborhoods_of_covering(covering)
    for relation in small_relations():
        yield successor_neighborhoods(relation)
    for n in (4, 5, 6):
        for seed in range(8):
            yield neighborhoods_of_covering(random_covering(n, 0.4, seed))
            yield successor_neighborhoods(random_relation(n, 0.35, seed))


def seeded_coverings(count, sizes, seeds, widths):
    """The first ``count`` coverings ``random_covering(n, 0.35, seed)``,
    with n cycling through ``widths`` as the seed runs below ``seeds``,
    whose definable family has a size in ``sizes``."""
    out = []
    for seed in range(seeds):
        covering = random_covering(widths[seed % len(widths)], 0.35, seed)
        if len(definable_family(neighborhoods_of_covering(covering))) in sizes:
            out.append(covering)
            if len(out) == count:
                return out
    raise AssertionError("too few seeded coverings in the size range")


# --- brute-force references ------------------------------------------------------


def scan_definable(nm) -> SetFamily:
    """Every subset of the powerset whose members' neighborhood images
    union to the subset itself."""
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


def brute_covers(family):
    """The pairs (i, j) of member indices with member i strictly inside
    member j and no member strictly between, in ascending order."""
    masks = [m.bits for m in family.members]

    def strictly_inside(a, b):
        return a != b and a & ~b == 0

    return tuple(
        (i, j)
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if strictly_inside(a, b) and not any(
            strictly_inside(a, c) and strictly_inside(c, b) for c in masks
        )
    )


def pair_scan_closure(family: SetFamily) -> CheckReport:
    """The closure check as a scan over member pairs i <= j, unions before
    intersections, naming the first pair whose result is missing: the
    reference that ``check_closure``'s report must match."""
    members = family.members
    masks = [m.bits for m in members]
    present = set(masks)
    failures = []
    for tag, combine in (("union-closure", int.__or__), ("intersection-closure", int.__and__)):
        pairs = ((i, j) for i in range(len(masks)) for j in range(i, len(masks)))
        hit = next(((i, j) for i, j in pairs if combine(masks[i], masks[j]) not in present), None)
        if hit is not None:
            i, j = hit
            missing = Subset(family.universe, combine(masks[i], masks[j]))
            failures.append(AxiomFailure(tag, {"x": members[i], "y": members[j], "missing": missing}))
    return CheckReport("closure", failures=tuple(failures))


def ideals(family):
    """Every down-closed set of member indices other than the empty one, as
    masks; each holds member 0, the empty set.  The members are decided
    from the highest index down: including one forces everything inside
    it, and a member not yet forced is not inside any chosen member, so
    excluding it is always consistent and each ideal is met once."""
    members = [m.bits for m in family.members]
    inside = [
        sum(1 << i for i, a in enumerate(members) if a & ~b == 0) for b in members
    ]
    found = []
    stack = [(len(members) - 1, 0)]
    while stack:
        j, picked = stack.pop()
        if j < 0:
            if picked:
                found.append(picked)
            continue
        stack.append((j - 1, picked))
        if not picked >> j & 1:
            stack.append((j - 1, picked | inside[j]))
    return found


def json_objects(text: str) -> list:
    """The JSON values that make up text, one after another, as the CLI
    writes its warnings and errors to stderr."""
    decoder = json.JSONDecoder()
    values, end = [], 0
    while end < len(text):
        value, end = decoder.raw_decode(text, end)
        values.append(value)
        while end < len(text) and text[end].isspace():
            end += 1
    return values
