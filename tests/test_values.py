"""The value contract every structure type keeps.

Universes, subsets, coverings, relations, neighborhood maps, set families,
lattice diagrams, enumeration budgets, axiom failures and check reports
are immutable values: assigning or deleting an attribute raises
AttributeError, two of them are equal exactly when they have the same
class and equal fields, equal values hash equal, they survive ``pickle``
and ``copy.deepcopy``, and their ``repr`` names each field.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from roughmatroids import (
    BinaryRelation,
    Covering,
    EnumerationBudget,
    LatticeDiagram,
    NeighborhoodMap,
    SetFamily,
    Subset,
    Universe,
)
from roughmatroids.report import AxiomFailure, CheckReport

U = "Universe(labels=('a', 'b'))"


def universe():
    return Universe(("a", "b"))


def witness():
    return {"X": universe().from_bits(1)}


# name: (field names, build a fresh value, build an unequal one of the same class, its repr)
CASES = {
    "Universe": (("labels",), universe, lambda: Universe(("a", "c")), U),
    "Subset": (
        ("universe", "bits"),
        lambda: Subset(universe(), 1),
        lambda: Subset(universe(), 2),
        "Subset({a})",
    ),
    "Covering": (
        ("universe", "blocks"),
        lambda: Covering.from_labels(universe(), [["a"], ["b"]]),
        lambda: Covering.from_labels(universe(), [["a", "b"]]),
        f"Covering(universe={U}, blocks=(Subset({{a}}), Subset({{b}})))",
    ),
    "BinaryRelation": (
        ("universe", "pairs"),
        lambda: BinaryRelation(universe(), frozenset({(0, 1)})),
        lambda: BinaryRelation(universe(), frozenset({(1, 0)})),
        f"BinaryRelation(universe={U}, pairs=frozenset({{(0, 1)}}))",
    ),
    "NeighborhoodMap": (
        ("universe", "cell_bits"),
        lambda: NeighborhoodMap(universe(), (1, 2)),
        lambda: NeighborhoodMap(universe(), (1, 3)),
        f"NeighborhoodMap(universe={U}, cell_bits=(1, 2))",
    ),
    "SetFamily": (
        ("universe", "masks"),
        lambda: SetFamily(universe(), (1, 0)),
        lambda: SetFamily(universe(), (0, 3)),
        f"SetFamily(universe={U}, masks=(0, 1))",
    ),
    "LatticeDiagram": (
        ("family",),
        lambda: LatticeDiagram(SetFamily(universe(), (0, 1))),
        lambda: LatticeDiagram(SetFamily(universe(), (0, 3))),
        f"LatticeDiagram(family=SetFamily(universe={U}, masks=(0, 1)))",
    ),
    "EnumerationBudget": (
        ("max_family_base", "trials", "seed"),
        lambda: EnumerationBudget(trials=5),
        lambda: EnumerationBudget(trials=6),
        "EnumerationBudget(max_family_base=18, trials=5, seed=0)",
    ),
    "AxiomFailure": (
        ("axiom", "witness", "note"),
        lambda: AxiomFailure("I2", witness()),
        lambda: AxiomFailure("I2", witness(), note="n"),
        "AxiomFailure(axiom='I2', witness={'X': Subset({a})}, note='')",
    ),
    "CheckReport": (
        ("check", "failures", "notes", "details"),
        lambda: CheckReport("x", (AxiomFailure("I1", {}),), "n", {"k": 1}),
        lambda: CheckReport("x", (), "n", {"k": 1}),
        "CheckReport(check='x', failures=(AxiomFailure(axiom='I1', witness={}, note=''),), "
        "notes='n', details={'k': 1})",
    ),
}
# the report types hold dicts, so hashing one raises TypeError as hashing the dict does
UNHASHABLE = {"AxiomFailure", "CheckReport"}

each_type = pytest.mark.parametrize("name", sorted(CASES))


def keywords(name, value):
    """The value's fields as constructor keywords."""
    return {field: getattr(value, field) for field in CASES[name][0]}


@each_type
def test_assigning_or_deleting_an_attribute_raises(name):
    make = CASES[name][1]
    value = make()
    for attr in [*vars(value), "other"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == make()


@each_type
def test_equal_exactly_on_same_class_and_equal_fields(name):
    _, make, other, _ = CASES[name]
    value = make()
    assert value == make() and not value != make()
    assert value != other() and not value == other()
    assert value.__eq__(object()) is NotImplemented
    # a subclass holding the same fields is another class
    twin = type("Twin", (type(value),), {})(**keywords(name, value))
    assert twin != value and value != twin


def test_subset_never_equals_a_tuple():
    subset = Subset(universe(), 1)
    assert subset != (subset.universe, 1) and (subset.universe, 1) != subset


@each_type
def test_equal_values_hash_equal(name):
    make = CASES[name][1]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())


@each_type
def test_pickle_and_deepcopy_round_trips_are_equal(name):
    value = CASES[name][1]()
    # values built on first use ride along, or are rebuilt, on the copy
    if isinstance(value, Covering):
        value.neighborhoods
    if isinstance(value, SetFamily):
        value.order
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)
        if isinstance(value, Covering):
            assert twin.neighborhoods == value.neighborhoods
        if isinstance(value, SetFamily):
            assert twin.order.covers == value.order.covers


@each_type
def test_repr_names_each_field(name):
    _, make, _, expected = CASES[name]
    assert repr(make()) == expected


def test_report_details_are_a_fresh_dict_per_instance():
    first, second = CheckReport("x"), CheckReport("x")
    assert first.details == {} and first.details is not second.details


@each_type
def test_constructor_takes_each_field_by_keyword_and_no_other(name):
    value = CASES[name][1]()
    fields = keywords(name, value)
    assert type(value)(**fields) == value
    with pytest.raises(TypeError):
        type(value)(**fields, bogus=1)
