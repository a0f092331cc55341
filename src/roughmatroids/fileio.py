"""JSON file formats, set literals, and deterministic serialization.

Structure files carry a universe plus either a covering or a relation:

    {"universe": ["a", "b"], "covering": [["a"], ["a", "b"]]}
    {"universe": ["a", "b"], "relation": [["a", "b"], ["b", "b"]]}

Family files carry a universe plus a list of subsets:

    {"universe": ["a", "b"], "family": [[], ["a"]]}

Unknown labels are rejected with the offending label named.  All output is
canonically ordered and byte-identical across runs for identical input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import BinaryRelation, Covering, Subset, Universe
from .definable import SetFamily
from .lattice import LatticeDiagram
from .report import CheckReport


class InputFormatError(ValueError):
    """Malformed structure, family, or set-literal input."""


def _universe_from(payload: Any, where: str) -> Universe:
    if not isinstance(payload, dict):
        raise InputFormatError(f"{where}: expected a JSON object")
    labels = payload.get("universe")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputFormatError(f"{where}: 'universe' must be a list of strings")
    try:
        return Universe(tuple(labels))
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _subset_from(universe: Universe, labels: Any, where: str) -> Subset:
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputFormatError(f"{where}: subsets must be lists of labels")
    seen = set()
    for lab in labels:
        if lab in seen:
            raise InputFormatError(f"{where}: duplicate label {lab!r}")
        seen.add(lab)
        if lab not in universe:
            raise InputFormatError(f"{where}: unknown label {lab!r}")
    return universe.subset(labels)


def _read_json(path: str | Path, where: str) -> Any:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{where}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise InputFormatError(f"{where}: JSON nested too deeply") from None


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
        blocks = tuple(_subset_from(universe, b, where) for b in raw)
        return universe, Covering(universe, blocks)
    raw = payload["relation"]
    if not isinstance(raw, list):
        raise InputFormatError(f"{where}: 'relation' must be a list of label pairs")
    pairs = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputFormatError(f"{where}: relation entries must be pairs")
        for lab in entry:
            if lab not in universe:
                raise InputFormatError(f"{where}: unknown label {lab!r}")
        pairs.append((entry[0], entry[1]))
    return universe, BinaryRelation.from_labels(universe, pairs)


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
    members = tuple(_subset_from(file_universe, m, where) for m in raw)
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
    return _subset_from(universe, labels, f"set literal {text!r}")


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
    """Subsets, families and reports (also nested) as JSON-ready values."""
    if isinstance(value, Subset):
        return subset_payload(value)
    if isinstance(value, SetFamily):
        return [subset_payload(m) for m in value.members]
    if isinstance(value, CheckReport):
        return report_payload(value)
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
