"""Fixtures for the worked examples, built from ``support``, and the
hypothesis profile.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples; each test keeps its own
``max_examples``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

import support
from roughmatroids import BinaryRelation, Covering, SetFamily, Universe

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def hex_covering() -> Covering:
    return support.hex_covering()


@pytest.fixture
def hex_universe(hex_covering) -> Universe:
    return hex_covering.universe


@pytest.fixture
def chain_covering() -> Covering:
    return support.chain_covering()


@pytest.fixture
def chain_universe(chain_covering) -> Universe:
    return chain_covering.universe


@pytest.fixture
def mixed4_covering() -> Covering:
    return support.mixed4_covering()


@pytest.fixture
def mixed4_universe(mixed4_covering) -> Universe:
    return mixed4_covering.universe


@pytest.fixture
def rel4_universe() -> Universe:
    return support.rel4_relations()[0]


@pytest.fixture
def rel4() -> BinaryRelation:
    return support.rel4_relations()[1]


@pytest.fixture
def rel4_reflexive() -> BinaryRelation:
    return support.rel4_relations()[2]


@pytest.fixture
def rel4_family(rel4_universe) -> SetFamily:
    return SetFamily.from_labels(rel4_universe, support.REL4_FAMILY)
