"""Structure files read through the universe's one label table.

The relation branch of ``load_structure`` once checked each pair label
with ``lab not in universe`` and then looked it up again through
``BinaryRelation.from_labels``.  ``two_pass_reading`` keeps that reader
as the reference: on every relation fixture, on seeded
``random_relation`` files and on seeded mutants of both, the loader
gives the same ``BinaryRelation`` or the same error text.  A counting
test shows that loading a relation, covering or family file never calls
``Universe.__contains__``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from roughmatroids import BinaryRelation, Universe, random_relation
from roughmatroids.fileio import InputFormatError, load_family, load_structure

FIXTURES = Path(__file__).parent / "fixtures"
RELATION_FIXTURES = sorted(FIXTURES.glob("rel_*.json"))


def two_pass_reading(path: Path) -> BinaryRelation | str:
    """The relation the two-pass reader gave for a relation file whose
    universe is valid, or the text of the error it raised."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    universe = Universe(tuple(payload["universe"]))
    pairs = []
    for entry in payload["relation"]:
        if not (isinstance(entry, list) and len(entry) == 2):
            return f"{path}: relation entries must be pairs"
        for lab in entry:
            if lab not in universe:
                return f"{path}: unknown label {lab!r}"
        pairs.append((entry[0], entry[1]))
    return BinaryRelation(universe, frozenset((universe.index(x), universe.index(y)) for x, y in pairs))


def random_relation_payload(rng: random.Random) -> dict:
    """A ``random_relation`` file, its pairs shuffled and some repeated."""
    relation = random_relation(rng.randint(1, 7), rng.choice((0.0, 0.2, 0.5, 1.0)), rng.randrange(1000))
    labels = relation.universe.labels
    entries = [[labels[x], labels[y]] for x, y in sorted(relation.pairs)]
    entries += rng.sample(entries, min(len(entries), rng.randint(0, 2)))
    rng.shuffle(entries)
    return {"universe": list(labels), "relation": entries}


BAD_LABELS = ("zz", "", 3, 1.5, True, None, ["a"], {"a": 1})
BAD_ENTRIES = ([], ["a"], ["a", "a", "a"], "a", 7, None, {"a": "a"})


def mutant(payload: dict, rng: random.Random) -> dict:
    """The payload with one to three seeded edits to its relation: a label
    swapped for a bad one, an entry swapped for a bad one, an entry
    repeated or a self pair added."""
    labels = payload["universe"]
    entries = [list(e) for e in payload["relation"]]
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        pairs = [e for e in entries if isinstance(e, list) and len(e) == 2]
        if edit == 0 and pairs:
            rng.choice(pairs)[rng.randrange(2)] = rng.choice(BAD_LABELS)
        elif edit == 1:
            entries.insert(rng.randint(0, len(entries)), rng.choice(BAD_ENTRIES))
        elif edit == 2 and pairs:
            entries.append(list(rng.choice(pairs)))
        else:
            lab = rng.choice(labels)
            entries.insert(rng.randint(0, len(entries)), [lab, lab])
    return {"universe": labels, "relation": entries}


def assert_reads_as_two_pass(path: Path) -> None:
    expected = two_pass_reading(path)
    if isinstance(expected, str):
        with pytest.raises(InputFormatError) as exc:
            load_structure(path)
        assert str(exc.value) == expected
    else:
        universe, relation = load_structure(path)
        assert universe == expected.universe
        assert relation == expected


@pytest.mark.parametrize("fixture", RELATION_FIXTURES, ids=lambda p: p.name)
def test_relation_fixture_reads_as_the_two_pass_reader_read_it(fixture, tmp_path):
    assert_reads_as_two_pass(fixture)
    payload = json.loads(fixture.read_text(encoding="utf-8"))
    rng = random.Random(fixture.name)
    for i in range(100):
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(mutant(payload, rng)), encoding="utf-8")
        assert_reads_as_two_pass(path)


def test_random_relation_files_read_as_the_two_pass_reader_read_them(tmp_path):
    rng = random.Random(21)
    errors = 0
    for i in range(300):
        payload = random_relation_payload(rng)
        if i % 2:
            payload = mutant(payload, rng)
        path = tmp_path / f"rel{i}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert_reads_as_two_pass(path)
        errors += isinstance(two_pass_reading(path), str)
    # both outcomes are exercised
    assert 50 < errors < 150


def test_loading_never_asks_the_universe_for_membership(monkeypatch, tmp_path):
    calls = []
    contains = Universe.__contains__

    def counting(self, label):
        calls.append(label)
        return contains(self, label)

    monkeypatch.setattr(Universe, "__contains__", counting)
    assert "a" in Universe(("a",)) and calls == ["a"]
    calls.clear()
    for path in sorted(FIXTURES.glob("cov_*.json")) + RELATION_FIXTURES:
        load_structure(path)
    for path in sorted(FIXTURES.glob("fam_*.json")):
        load_family(path)
    bad = {
        "cov": {"universe": ["a", "b"], "covering": [["a"], ["b", "zz"]]},
        "rel": {"universe": ["a", "b"], "relation": [["a", "b"], ["b", 3]]},
    }
    for name, payload in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(InputFormatError, match="unknown label"):
            load_structure(path)
    assert calls == []
