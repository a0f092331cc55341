"""Command-line front end.

Thin sequential dispatcher over the library: loads structure and family
files, runs the requested computation, and emits JSON (or DOT for
lattices, or an unstable human-readable text rendering of reports).

Exit codes: 0 for completed runs whose verdicts all pass, 1 for completed
runs carrying a fail verdict, 2 for malformed input or usage errors.  The
split lets shell pipelines tell "checked and failed" apart from "could not
check".  Usage and input errors are reported as a JSON error object on
stderr, and library warnings (a universe over 20 elements) as JSON warning
objects, so stderr carries JSON only.  Randomized commands take an
explicit --seed; there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import fileio
from .axioms import (
    check_lower_rough_matroid_covering,
    check_lower_rough_matroid_relation,
    check_matroid,
    check_matroid_condition,
    check_rough_matroid_covering,
    check_upper_rough_matroid_covering,
    check_upper_rough_matroid_relation,
)
from .constructions import (
    check_ci3_prime,
    check_uniform_proposition,
    direct_sum,
    one_point_extension_blocked,
    extension_sides,
    uniform_family,
)
from .core import (
    Covering,
    check_duality,
    lower_approx,
    neighborhoods_of_covering,
    successor_neighborhoods,
    upper_approx,
)
from .definable import definable_family, is_definable
from .lattice import build_lattice, export_dot
from .oracle import EnumerationBudget, cross_check, enumerate_rough_matroids
from .report import CheckReport

CHECKS_ON_COVERING = {
    "matroid": None,
    "rough-cov": check_rough_matroid_covering,
    "lower-cov": check_lower_rough_matroid_covering,
    "upper-cov": check_upper_rough_matroid_covering,
    "matroid-cond": check_matroid_condition,
}
CHECKS_ON_RELATION = {
    "matroid": None,
    "lower-rel": check_lower_rough_matroid_relation,
    "upper-rel": check_upper_rough_matroid_relation,
}
CHECK_NAMES = ("matroid", "rough-cov", "lower-cov", "upper-cov", "lower-rel", "upper-rel", "matroid-cond")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as JSON with exit 2."""

    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(fileio.dumps({"error": {"type": kind, "message": message}}))


def _emit_warning(message, category, *_) -> None:
    sys.stderr.write(fileio.dumps({"warning": {"type": category.__name__, "message": str(message)}}))


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _validate_format(args, allowed: tuple[str, ...]) -> None:
    if args.format not in allowed:
        raise fileio.InputFormatError(
            f"format {args.format!r} is not valid here (allowed: {', '.join(allowed)})"
        )


def _render_report(report: CheckReport, fmt: str) -> str:
    if fmt == "text":
        lines = [f"{report.check}: {'PASS' if report.passed else 'FAIL'}"]
        for f in report.failures:
            witness = ", ".join(f"{k}={fileio.jsonable(v)}" for k, v in f.witness.items())
            lines.append(f"  {f.axiom}: {witness}" + (f"  ({f.note})" if f.note else ""))
        if report.notes:
            lines.append(f"  note: {report.notes}")
        return "\n".join(lines) + "\n"
    return fileio.dumps(fileio.report_payload(report))


def _report_exit(report: CheckReport, args) -> int:
    _write(_render_report(report, args.format), args.output)
    return 0 if report.passed else 1


def _neighborhood_map(structure):
    if isinstance(structure, Covering):
        return neighborhoods_of_covering(structure)
    return successor_neighborhoods(structure)


def _cmd_neighborhoods(args) -> int:
    _validate_format(args, ("json",))
    _, structure = fileio.load_structure(args.structure)
    nm = _neighborhood_map(structure)
    _write(fileio.dumps(fileio.neighborhoods_payload(nm)), args.output)
    return 0


def _cmd_approx(args) -> int:
    _validate_format(args, ("json",))
    universe, structure = fileio.load_structure(args.structure)
    nm = _neighborhood_map(structure)
    x = fileio.parse_set_literal(args.set, universe)
    payload = {
        "universe": list(universe.labels),
        "set": fileio.subset_payload(x),
        "lower": fileio.subset_payload(lower_approx(nm, x)),
        "upper": fileio.subset_payload(upper_approx(nm, x)),
        "duality_holds": check_duality(nm, x),
    }
    _write(fileio.dumps(payload), args.output)
    return 0


def _cmd_definable(args) -> int:
    _validate_format(args, ("json",))
    universe, structure = fileio.load_structure(args.structure)
    nm = _neighborhood_map(structure)
    if args.set is not None:
        x = fileio.parse_set_literal(args.set, universe)
        payload = {
            "universe": list(universe.labels),
            "set": fileio.subset_payload(x),
            "definable": is_definable(nm, x),
        }
        _write(fileio.dumps(payload), args.output)
        return 0
    family = definable_family(nm, method=args.method)
    _write(fileio.dumps(fileio.family_payload(family)), args.output)
    return 0


def _cmd_lattice(args) -> int:
    _validate_format(args, ("json", "dot"))
    universe, structure = fileio.load_structure(args.structure)
    family = definable_family(_neighborhood_map(structure))
    diagram = build_lattice(family)
    if args.format == "dot":
        _write(export_dot(diagram), args.output)
    else:
        _write(fileio.dumps(fileio.lattice_payload(diagram)), args.output)
    return 0


def _cmd_check(args) -> int:
    _validate_format(args, ("json", "text"))
    universe, structure = fileio.load_structure(args.structure)
    family = fileio.load_family(args.family, universe)
    name = args.name
    if name == "matroid":
        report = check_matroid(universe, family)
    elif isinstance(structure, Covering):
        if name not in CHECKS_ON_COVERING:
            raise fileio.InputFormatError(f"check {name!r} needs a relation structure file")
        report = CHECKS_ON_COVERING[name](structure, family)
    else:
        if name not in CHECKS_ON_RELATION:
            raise fileio.InputFormatError(f"check {name!r} needs a covering structure file")
        report = CHECKS_ON_RELATION[name](structure, family)
    return _report_exit(report, args)


def _require_covering(structure, what: str) -> Covering:
    if not isinstance(structure, Covering):
        raise fileio.InputFormatError(f"{what} requires a covering structure file")
    return structure


def _cmd_uniform(args) -> int:
    _validate_format(args, ("json", "text") if args.proposition else ("json",))
    universe, structure = fileio.load_structure(args.structure)
    covering = _require_covering(structure, "uniform")
    if args.proposition:
        return _report_exit(check_uniform_proposition(covering, args.r), args)
    family = uniform_family(covering, args.r, strict=args.strict)
    _write(fileio.dumps(fileio.family_payload(family)), args.output)
    return 0


def _cmd_direct_sum(args) -> int:
    _validate_format(args, ("json",))
    u1, s1 = fileio.load_structure(args.structure1)
    f1 = fileio.load_family(args.family1, u1)
    u2, s2 = fileio.load_structure(args.structure2)
    f2 = fileio.load_family(args.family2, u2)
    c1 = _require_covering(s1, "direct-sum")
    c2 = _require_covering(s2, "direct-sum")
    covering, family, report = direct_sum(c1, f1, c2, f2)
    payload = {
        "covering": fileio.covering_payload(covering),
        "family": fileio.family_payload(family),
        "report": fileio.report_payload(report),
    }
    _write(fileio.dumps(payload), args.output)
    return 0 if report.passed else 1


def _cmd_ci3prime(args) -> int:
    _validate_format(args, ("json", "text"))
    universe, structure = fileio.load_structure(args.structure)
    covering = _require_covering(structure, "ci3prime")
    family = fileio.load_family(args.family, universe)
    return _report_exit(check_ci3_prime(covering, family), args)


def _cmd_extension_check(args) -> int:
    _validate_format(args, ("json",))
    universe, structure = fileio.load_structure(args.structure)
    covering = _require_covering(structure, "extension-check")
    d1 = fileio.parse_set_literal(args.d1, universe)
    d2 = fileio.parse_set_literal(args.d2, universe)
    blocked = one_point_extension_blocked(
        covering, d1, d2, args.element, require_size_gap=not args.no_size_check
    )
    _, predicted = extension_sides(covering, d1, d2, args.element)
    payload = {
        "d1": fileio.subset_payload(d1),
        "d2": fileio.subset_payload(d2),
        "element": args.element,
        "blocked": blocked,
        "neighborhood_criterion": predicted,
    }
    _write(fileio.dumps(payload), args.output)
    return 0


def _cmd_enumerate(args) -> int:
    _validate_format(args, ("json",))
    universe, structure = fileio.load_structure(args.structure)
    covering = _require_covering(structure, "enumerate")
    budget = EnumerationBudget(max_family_base=args.max_family_base)
    families = enumerate_rough_matroids(covering, budget, start=args.start, jobs=args.jobs)
    command = f"enumerate {args.structure}"
    if args.start:
        command += f" --start {args.start}"
    payload = {
        "command": command,
        "seed": None,
        "count": len(families),
        "families": [[fileio.subset_payload(m) for m in fam.members] for fam in families],
    }
    _write(fileio.dumps(payload), args.output)
    return 0


def _cmd_cross_check(args) -> int:
    _validate_format(args, ("json", "text"))
    universe, structure = fileio.load_structure(args.structure)
    covering = _require_covering(structure, "cross-check")
    budget = EnumerationBudget(trials=args.trials, seed=args.seed)
    return _report_exit(cross_check(covering, budget), args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughmatroids",
        description="Covering-based rough sets, definable-set lattices, and rough matroid checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write output to this path instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "text", "dot"),
            default="json",
            help="output format (dot only for lattice; text is not stable)",
        )
        return p

    p = add("neighborhoods", _cmd_neighborhoods, help="neighborhood of every element")
    p.add_argument("structure")

    p = add("approx", _cmd_approx, help="lower/upper approximations of a set")
    p.add_argument("structure")
    p.add_argument("--set", required=True, help="set literal, e.g. '{a,d}'")

    p = add("definable", _cmd_definable, help="definable family, or test one set")
    p.add_argument("structure")
    p.add_argument("--set", help="test this set literal instead of emitting the family")
    p.add_argument("--method", choices=("auto", "scan", "closure"), default="auto")

    p = add("lattice", _cmd_lattice, help="Hasse diagram of the definable-set lattice")
    p.add_argument("structure")

    p = add("check", _cmd_check, help="run an axiom-system check")
    p.add_argument("name", choices=CHECK_NAMES)
    p.add_argument("structure")
    p.add_argument("family")

    p = add("uniform", _cmd_uniform, help="definable sets up to a cardinality bound")
    p.add_argument("structure")
    p.add_argument("--r", type=int, required=True, help="cardinality bound")
    p.add_argument("--strict", action="store_true", help="require 0 < r < n")
    p.add_argument(
        "--proposition",
        action="store_true",
        help="report the uniform-family laws instead of the family",
    )

    p = add("direct-sum", _cmd_direct_sum, help="direct sum of two rough matroids")
    p.add_argument("structure1")
    p.add_argument("family1")
    p.add_argument("structure2")
    p.add_argument("family2")

    p = add("ci3prime", _cmd_ci3prime, help="equal-cardinality exchange axiom check")
    p.add_argument("structure")
    p.add_argument("family")

    p = add("extension-check", _cmd_extension_check, help="one-point extension criterion")
    p.add_argument("structure")
    p.add_argument("--d1", required=True, help="set literal")
    p.add_argument("--d2", required=True, help="set literal")
    p.add_argument("--element", required=True, help="element of d2 - d1 to add")
    p.add_argument("--no-size-check", action="store_true", help="waive the |d1| < |d2| precondition")

    p = add("enumerate", _cmd_enumerate, help="all rough matroids over a covering")
    p.add_argument("structure")
    p.add_argument("--start", type=int, default=0, help="resume from this subfamily index (0..2^|D|)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1 (capped at the CPU count)")
    p.add_argument("--max-family-base", type=int, default=18)

    p = add("cross-check", _cmd_cross_check, help="full law suite for one covering")
    p.add_argument("structure")
    p.add_argument("--seed", type=int, required=True, help="seed for sampled scans")
    p.add_argument("--trials", type=int, default=100)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _emit_warning
        try:
            return args.fn(args)
        except (ValueError, KeyError, OSError) as exc:
            _emit_error(type(exc).__name__, str(exc))
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
