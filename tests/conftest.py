"""Shared structures used across the suite.

Three coverings recur everywhere: the six-block covering on {a..f} whose
neighborhoods partition the universe, the three-element chain covering
{{a,b},{b,c}}, and a mixed four-element covering with one non-singleton
neighborhood.  The four-point relation pair differs only by one reflexive
loop on the otherwise isolated element.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples; each test keeps its own
``max_examples``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from roughmatroids import BinaryRelation, Covering, SetFamily, Universe

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

HEX_BLOCKS = [
    ["e", "f"],
    ["a", "d", "e"],
    ["a", "d", "f"],
    ["b", "c", "e"],
    ["b", "c", "f"],
    ["a", "b", "c", "d"],
]

HEX_DEFINABLE = [
    [],
    ["e"],
    ["f"],
    ["a", "d"],
    ["b", "c"],
    ["e", "f"],
    ["a", "d", "e"],
    ["a", "d", "f"],
    ["b", "c", "e"],
    ["b", "c", "f"],
    ["a", "b", "c", "d"],
    ["a", "d", "e", "f"],
    ["b", "c", "e", "f"],
    ["a", "b", "c", "d", "e"],
    ["a", "b", "c", "d", "f"],
    ["a", "b", "c", "d", "e", "f"],
]

MIXED4_BLOCKS = [["a", "b"], ["a", "c"], ["a", "b", "c"], ["c", "d"]]

MIXED4_DEFINABLE = [
    [],
    ["a"],
    ["c"],
    ["a", "b"],
    ["a", "c"],
    ["c", "d"],
    ["a", "b", "c"],
    ["a", "c", "d"],
    ["a", "b", "c", "d"],
]

REL4_PAIRS = [("a1", "a1"), ("a2", "a1"), ("a2", "a2"), ("a3", "a1"), ("a3", "a3")]


@pytest.fixture
def hex_universe() -> Universe:
    return Universe(tuple("abcdef"))


@pytest.fixture
def hex_covering(hex_universe) -> Covering:
    return Covering.from_labels(hex_universe, HEX_BLOCKS)


@pytest.fixture
def chain_universe() -> Universe:
    return Universe(("a", "b", "c"))


@pytest.fixture
def chain_covering(chain_universe) -> Covering:
    return Covering.from_labels(chain_universe, [["a", "b"], ["b", "c"]])


@pytest.fixture
def mixed4_universe() -> Universe:
    return Universe(("a", "b", "c", "d"))


@pytest.fixture
def mixed4_covering(mixed4_universe) -> Covering:
    return Covering.from_labels(mixed4_universe, MIXED4_BLOCKS)


@pytest.fixture
def rel4_universe() -> Universe:
    return Universe(("a1", "a2", "a3", "a4"))


@pytest.fixture
def rel4(rel4_universe) -> BinaryRelation:
    return BinaryRelation.from_labels(rel4_universe, REL4_PAIRS)


@pytest.fixture
def rel4_reflexive(rel4_universe) -> BinaryRelation:
    return BinaryRelation.from_labels(rel4_universe, REL4_PAIRS + [("a4", "a4")])


@pytest.fixture
def rel4_family(rel4_universe) -> SetFamily:
    return SetFamily.from_labels(
        rel4_universe, [[], ["a1"], ["a1", "a2"], ["a1", "a3"]]
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
