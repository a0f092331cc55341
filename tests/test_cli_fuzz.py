"""Seeded input fuzz of the command line over mutants of every fixture.

Each JSON fixture goes through a fixed list of edits: three byte-level
ones (a repeated object key, a 5,000-digit integer literal, a 0xff byte
inside a string), a type swap of every top-level value and of the first
item of every list value, the deletion of every top-level key, and deep
nesting in place of a value.  Every mutant is run, in-process, by each
file-reading subcommand that reads a file of its kind; structure files
are also run with flags at and past their bounds.  ``--jobs`` is never
above 1, so no run starts a worker process.

Each run exits 0, 1 or 2, and stderr carries JSON objects only.  On exit
2, stdout is empty and stderr holds exactly one JSON error.  The
byte-level edits always exit 2 with an ``InputFormatError`` that names
the mutated file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from roughmatroids.cli import main
from roughmatroids.oracle import MAX_TRIALS
from support import json_objects

FIXTURES = Path(__file__).parent / "fixtures"
# a string no fixture holds, replaced in the dumped text
MARK = "@@value@@"
SWAPS = (None, True, 0, -1, 2.5, "x", "", {}, [], [None], [[None]], {"a": ["a"]})


def byte_edits(payload: dict) -> dict[str, bytes]:
    text = json.dumps(payload)
    first = next(iter(payload))
    return {
        "repeated-key": ("{" + json.dumps(first) + ": null, " + text[1:]).encode(),
        "long-int": ('{"n": ' + "7" * 5000 + ", " + text[1:]).encode(),
        "ff-byte": text.replace('"', '"\xff', 1).encode("latin-1"),
    }


def value_edits(payload: dict, rng: random.Random) -> dict[str, str]:
    """Type swaps, deletions and deep nesting: each value, and the first
    item of each list value, is swapped for two values drawn from
    ``SWAPS``."""
    out = {"not-an-object": json.dumps([payload]), "empty-object": "{}"}
    for key, value in payload.items():
        for swap in rng.sample(SWAPS, 2):
            out[f"{key}={swap!r}"] = json.dumps({**payload, key: swap})
        out[f"del-{key}"] = json.dumps({k: v for k, v in payload.items() if k != key})
        # nested past the parser's recursion limit
        deep = "[" * 100_000 + "]" * 100_000
        out[f"{key}-nested"] = json.dumps({**payload, key: MARK}).replace(json.dumps(MARK), deep)
        if isinstance(value, list) and value:
            for swap in rng.sample(SWAPS, 2):
                out[f"{key}[0]={swap!r}"] = json.dumps({**payload, key: [swap, *value[1:]]})
            # nested within the limit, a label at the bottom
            deep = "[" * 300 + '"a"' + "]" * 300
            text = json.dumps({**payload, key: [MARK, *value[1:]]})
            out[f"{key}[0]-nested"] = text.replace(json.dumps(MARK), deep)
    return out


def partner_files(labels: list, tmp: Path) -> dict[str, Path]:
    """A valid structure and family file over the fixture's universe."""
    files = {
        "S": {"universe": labels, "covering": [[x] for x in labels]},
        "F": {"universe": labels, "family": [[]]},
    }
    paths = {}
    for slot, payload in files.items():
        paths[slot] = tmp / f"partner-{slot}.json"
        paths[slot].write_text(json.dumps(payload), encoding="utf-8")
    return paths


def commands(kind: str, labels: list) -> list[list[str]]:
    """Argument vectors for a file of this kind: S is the structure file,
    F the family file, and the mutant fills the slot its kind names."""
    first = labels[0]
    whole = "{" + ",".join(labels) + "}"
    check = "lower-rel" if kind == "relation" else "rough-cov"
    family_readers = [
        ["check", check, "S", "F"],
        ["ci3prime", "S", "F"],
        ["direct-sum", "S", "F", "S2", "F2"],
    ]
    if kind == "family":
        return family_readers
    return family_readers + [
        ["neighborhoods", "S"],
        ["approx", "S", "--set", "{" + first + "}"],
        ["definable", "S", "--set", whole],
        ["lattice", "S", "--format", "dot"],
        ["uniform", "S", "--r", "1", "--proposition", "--format", "text"],
        ["extension-check", "S", "--d1", "{}", "--d2", whole, "--element", first],
        ["enumerate", "S", "--jobs", "1"],
        ["cross-check", "S", "--seed", "0", "--trials", "3"],
    ]


def bound_flags(labels: list) -> list[list[str]]:
    """Flags at and past their bounds, run on the unmutated file."""
    n = len(labels)
    return [
        ["enumerate", "S", "--start", "-1"],
        ["enumerate", "S", "--start", str(1 << 20)],
        ["enumerate", "S", "--max-family-base", "0"],
        ["enumerate", "S", "--max-family-base", "21"],
        ["enumerate", "S", "--jobs", "0"],
        ["uniform", "S", "--r", "-1"],
        ["uniform", "S", "--r", str(n + 1)],
        ["cross-check", "S", "--seed", "-1", "--trials", "1"],
        ["cross-check", "S", "--seed", "0", "--trials", "0"],
        ["cross-check", "S", "--seed", "0", "--trials", str(MAX_TRIALS + 1)],
        ["extension-check", "S", "--d1", "{}", "--d2", "{}", "--element", "@"],
    ]


def run(argv: list[str]) -> tuple[int, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), json_objects(err.getvalue())


def kind_of(payload: dict) -> str:
    if "relation" in payload:
        return "relation"
    return "structure" if "covering" in payload else "family"


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_every_mutant_exits_cleanly_with_one_json_error(fixture, tmp_path):
    payload = json.loads(fixture.read_text(encoding="utf-8"))
    # a file without a universe gets partners over a one-label universe
    labels = payload.get("universe") or ["a"]
    kind = kind_of(payload)
    partners = partner_files(labels, tmp_path)
    partners["S2"], partners["F2"] = partners["S"], partners["F"]
    mutated = "F" if kind == "family" else "S"
    rng = random.Random(fixture.name)

    mutants = byte_edits(payload)
    mutants.update((name, text.encode()) for name, text in value_edits(payload, rng).items())
    runs = [(name, argv) for name in mutants for argv in commands(kind, labels)]
    if kind != "family":
        mutants["unmutated"] = fixture.read_bytes()
        runs += [("unmutated", argv) for argv in bound_flags(labels)]
    paths = {}
    for i, (name, data) in enumerate(mutants.items()):
        paths[name] = tmp_path / f"mutant{i}.json"
        paths[name].write_bytes(data)

    for name, argv in runs:
        files = {**partners, mutated: paths[name]}
        argv = [str(files[a]) if a in files else a for a in argv]
        code, out, err = run(argv)
        where = f"{name}: {argv}"
        assert code in (0, 1, 2), where
        assert all(len(v) == 1 and set(v) <= {"error", "warning"} for v in err), where
        errors = [v["error"] for v in err if "error" in v]
        if code == 2:
            assert out == "" and len(errors) == 1, where
        else:
            assert errors == [], where
        if name in ("repeated-key", "long-int", "ff-byte"):
            assert code == 2, where
            assert errors[0]["type"] == "InputFormatError", where
            assert errors[0]["message"].startswith(f"{paths[name]}: "), where
