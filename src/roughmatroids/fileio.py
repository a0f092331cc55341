"""JSON file formats, set literals, and deterministic serialization.

Structure files carry a universe plus either a covering or a relation:

    {"universe": ["a", "b"], "covering": [["a"], ["a", "b"]]}
    {"universe": ["a", "b"], "relation": [["a", "b"], ["b", "b"]]}

Family files carry a universe plus a list of subsets:

    {"universe": ["a", "b"], "family": [[], ["a"]]}

Each label is looked up once, in the universe's label table.  Loading
fails with ``InputFormatError``, naming the file or set literal, on:

- a file past ``MAX_INPUT_BYTES`` bytes, or not valid UTF-8;
- invalid JSON, nesting too deep to parse, a repeated object key, or an
  integer literal too long to convert;
- a top level that is not an object, or a missing or mistyped key;
- a universe past ``MAX_LABELS`` labels, or with a repeated, empty or
  non-string label, or one that UTF-8 cannot encode;
- a subset that is not a list of distinct labels, a relation entry that
  is not a pair, an unknown label (the first in file order is named),
  or a family whose universe is not its structure's.

A covering with an empty or repeated block, or one that leaves an
element uncovered, raises ``InvalidCoveringError`` instead.

All output is canonically ordered and byte-identical across runs for
identical input.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any

from .core import BinaryRelation, Covering, Subset, Universe
from .definable import SetFamily
from .lattice import LatticeDiagram
from .report import CheckReport


class InputFormatError(ValueError):
    """Malformed structure, family, or set-literal input."""


# The largest structure or family file read, in bytes: room for every
# definable family over 15 one-letter labels as ``definable`` writes it.
MAX_INPUT_BYTES = 1 << 22
# The most labels a universe may hold.
MAX_LABELS = 1 << 10


def _universe_from(payload: Any, where: str) -> Universe:
    if not isinstance(payload, dict):
        raise InputFormatError(f"{where}: expected a JSON object")
    labels = payload.get("universe")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputFormatError(f"{where}: 'universe' must be a list of strings")
    if len(labels) > MAX_LABELS:
        raise InputFormatError(f"{where}: {len(labels)} labels exceed the bound of {MAX_LABELS}")
    for lab in labels:
        try:
            lab.encode("utf-8")
        except UnicodeEncodeError:
            raise InputFormatError(f"{where}: label {lab!r} is not valid UTF-8") from None
    try:
        return Universe(tuple(labels))
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _read_subset(universe: Universe, labels: Any, where: str) -> Subset:
    """A list of distinct labels as a subset, each looked up once; a label
    that is not a string is reported ahead of a repeated or unknown one."""
    if not isinstance(labels, list):
        raise InputFormatError(f"{where}: subsets must be lists of labels")
    bits = 0
    for lab in labels:
        i = universe.position(lab)
        if i is None or bits >> i & 1:
            if not all(isinstance(x, str) for x in labels):
                raise InputFormatError(f"{where}: subsets must be lists of labels")
            kind = "unknown" if i is None else "duplicate"
            raise InputFormatError(f"{where}: {kind} label {lab!r}")
        bits |= 1 << i
    return Subset(universe, bits)


def _read_json(path: str | Path, where: str) -> Any:
    with open(path, "rb") as f:
        data = f.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise InputFormatError(f"{where}: file exceeds the bound of {MAX_INPUT_BYTES} bytes")
    try:
        # decoded as Path.read_text decodes it, universal newlines included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        raise InputFormatError(f"{where}: file is not valid UTF-8") from None

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputFormatError(f"{where}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{where}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise InputFormatError(f"{where}: JSON nested too deeply") from None
    except InputFormatError:
        raise
    except ValueError:
        # json's one other ValueError: an integer literal with more digits
        # than int() converts (sys.get_int_max_str_digits())
        raise InputFormatError(f"{where}: integer literal too long") from None


def load_structure(path: str | Path) -> tuple[Universe, Covering | BinaryRelation]:
    """Read a structure file; returns the universe and its covering or
    relation."""
    where = str(path)
    payload = _read_json(path, where)
    universe = _universe_from(payload, where)
    has_cov = "covering" in payload
    has_rel = "relation" in payload
    if has_cov == has_rel:
        raise InputFormatError(f"{where}: exactly one of 'covering' or 'relation' required")
    if has_cov:
        raw = payload["covering"]
        if not isinstance(raw, list):
            raise InputFormatError(f"{where}: 'covering' must be a list of subsets")
        blocks = tuple(_read_subset(universe, b, where) for b in raw)
        return universe, Covering(universe, blocks)
    raw = payload["relation"]
    if not isinstance(raw, list):
        raise InputFormatError(f"{where}: 'relation' must be a list of label pairs")
    pairs = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputFormatError(f"{where}: relation entries must be pairs")
        pair = tuple(map(universe.position, entry))
        if None in pair:
            raise InputFormatError(f"{where}: unknown label {entry[pair.index(None)]!r}")
        pairs.append(pair)
    return universe, BinaryRelation(universe, frozenset(pairs))


def load_family(path: str | Path, universe: Universe | None = None) -> SetFamily:
    """Read a family file; when a universe is supplied the file's universe
    must match it exactly."""
    where = str(path)
    payload = _read_json(path, where)
    file_universe = _universe_from(payload, where)
    if universe is not None and file_universe != universe:
        raise InputFormatError(
            f"{where}: family universe {list(file_universe.labels)} does not match "
            f"the structure universe {list(universe.labels)}"
        )
    raw = payload.get("family")
    if not isinstance(raw, list):
        raise InputFormatError(f"{where}: 'family' must be a list of subsets")
    members = tuple(_read_subset(file_universe, m, where) for m in raw)
    return SetFamily.of(file_universe, members)


def parse_set_literal(text: str, universe: Universe) -> Subset:
    """Parse a brace-wrapped, comma-separated label list such as ``{a, d}``.

    Whitespace-insensitive; ``{}`` is the empty set.  Unknown and duplicate
    labels are rejected with the label named.
    """
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise InputFormatError(f"set literal must be brace-wrapped: {text!r}")
    inner = stripped[1:-1].strip()
    if not inner:
        return universe.empty()
    labels = [part.strip() for part in inner.split(",")]
    if any(not lab for lab in labels):
        raise InputFormatError(f"empty label in set literal {text!r}")
    return _read_subset(universe, labels, f"set literal {text!r}")


def subset_payload(s: Subset) -> list[str]:
    return list(s.members())


def family_payload(family: SetFamily) -> dict:
    return {
        "universe": list(family.universe.labels),
        "family": [subset_payload(m) for m in family.members],
    }


def covering_payload(covering: Covering) -> dict:
    return {
        "universe": list(covering.universe.labels),
        "covering": [subset_payload(b) for b in covering.blocks],
    }


def neighborhoods_payload(nm) -> dict:
    return {
        "universe": list(nm.universe.labels),
        "neighborhoods": {
            label: subset_payload(nm.cells[i]) for i, label in enumerate(nm.universe.labels)
        },
    }


def jsonable(value: Any) -> Any:
    """A witness or details value as a JSON-ready value: subsets, also
    inside dicts, lists and tuples, become label lists, and every other
    value is kept as it is."""
    if isinstance(value, Subset):
        return subset_payload(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def report_payload(report: CheckReport) -> dict:
    """Shared JSON report schema for every checker."""
    payload: dict = {
        "check": report.check,
        "pass": report.passed,
        "failed_axiom": report.failed_axiom,
        "witness": jsonable(dict(report.witness)) if report.witness is not None else None,
        "failures": [
            {
                "axiom": f.axiom,
                "witness": jsonable(dict(f.witness)),
                **({"note": f.note} if f.note else {}),
            }
            for f in report.failures
        ],
    }
    if report.notes:
        payload["notes"] = report.notes
    if report.details:
        payload["details"] = jsonable(dict(report.details))
    return payload


def lattice_payload(diagram: LatticeDiagram) -> dict:
    return {
        "universe": list(diagram.family.universe.labels),
        "nodes": [subset_payload(m) for m in diagram.nodes],
        "edges": [[i, j] for i, j in diagram.edges],
        "bottom": subset_payload(diagram.bottom),
        "top": subset_payload(diagram.top),
    }


def dumps(payload: Any) -> str:
    """Deterministic JSON text: fixed two-space indent, insertion order,
    trailing newline."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
