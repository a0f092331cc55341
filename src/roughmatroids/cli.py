"""Command-line front end.

Every subcommand runs down one path.  ``build_parser`` declares, with
each subcommand, its handler and the ``--format`` values it allows.
``main`` parses the arguments, refuses a format the subcommand does not
allow, and calls the handler.  A handler loads its inputs, computes, and
returns one of three results: a ``CheckReport``, DOT text, or a JSON
payload.  ``_render`` turns that result into text and an exit code, and
``main`` writes the text to ``--output`` or stdout.

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
    extension_sides,  # unused here; the benchmark tracer wraps it by this name
    uniform_family,
)
from .core import Covering, Universe, check_duality, lower_approx, upper_approx
from .definable import definable_family, is_definable
from .lattice import build_lattice, export_dot
from .oracle import EnumerationBudget, cross_check, enumerate_rough_matroids
from .report import CheckReport

# ``check matroid`` runs on either structure kind; these are the others.
CHECKS_ON_COVERING = {
    "rough-cov": check_rough_matroid_covering,
    "lower-cov": check_lower_rough_matroid_covering,
    "upper-cov": check_upper_rough_matroid_covering,
    "matroid-cond": check_matroid_condition,
}
CHECKS_ON_RELATION = {
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


def _render(result, fmt: str) -> tuple[str, int]:
    """The text and exit code of a handler's result: a report, DOT text,
    or a JSON payload, which fails when the report it carries does."""
    if isinstance(result, CheckReport):
        return _render_report(result, fmt), 0 if result.passed else 1
    if isinstance(result, str):
        return result, 0
    failed = result.get("report", {}).get("pass") is False
    return fileio.dumps(result), 1 if failed else 0


def _load_covering(path: str, what: str) -> tuple[Universe, Covering]:
    """Read a structure file that must hold a covering."""
    universe, structure = fileio.load_structure(path)
    if not isinstance(structure, Covering):
        raise fileio.InputFormatError(f"{what} requires a covering structure file")
    return universe, structure


def _cmd_neighborhoods(args):
    _, structure = fileio.load_structure(args.structure)
    return fileio.neighborhoods_payload(structure.neighborhoods)


def _cmd_approx(args):
    universe, structure = fileio.load_structure(args.structure)
    nm = structure.neighborhoods
    x = fileio.parse_set_literal(args.set, universe)
    return {
        "universe": list(universe.labels),
        "set": fileio.subset_payload(x),
        "lower": fileio.subset_payload(lower_approx(nm, x)),
        "upper": fileio.subset_payload(upper_approx(nm, x)),
        "duality_holds": check_duality(nm, x),
    }


def _cmd_definable(args):
    universe, structure = fileio.load_structure(args.structure)
    nm = structure.neighborhoods
    if args.set is None:
        return fileio.family_payload(definable_family(nm))
    x = fileio.parse_set_literal(args.set, universe)
    return {
        "universe": list(universe.labels),
        "set": fileio.subset_payload(x),
        "definable": is_definable(nm, x),
    }


def _cmd_lattice(args):
    _, structure = fileio.load_structure(args.structure)
    diagram = build_lattice(definable_family(structure.neighborhoods))
    return export_dot(diagram) if args.format == "dot" else fileio.lattice_payload(diagram)


def _cmd_check(args):
    universe, structure = fileio.load_structure(args.structure)
    family = fileio.load_family(args.family, universe)
    if args.name == "matroid":
        return check_matroid(universe, family)
    covering = isinstance(structure, Covering)
    checks = CHECKS_ON_COVERING if covering else CHECKS_ON_RELATION
    if args.name not in checks:
        kind = "relation" if covering else "covering"
        raise fileio.InputFormatError(f"check {args.name!r} needs a {kind} structure file")
    return checks[args.name](structure, family)


def _cmd_uniform(args):
    _, covering = _load_covering(args.structure, "uniform")
    if args.proposition:
        return check_uniform_proposition(covering, args.r)
    return fileio.family_payload(uniform_family(covering, args.r))


def _cmd_direct_sum(args):
    # both summands are read before either structure kind is checked
    u1, s1 = fileio.load_structure(args.structure1)
    f1 = fileio.load_family(args.family1, u1)
    u2, s2 = fileio.load_structure(args.structure2)
    f2 = fileio.load_family(args.family2, u2)
    if not (isinstance(s1, Covering) and isinstance(s2, Covering)):
        raise fileio.InputFormatError("direct-sum requires a covering structure file")
    covering, family, report = direct_sum(s1, f1, s2, f2)
    return {
        "covering": fileio.covering_payload(covering),
        "family": fileio.family_payload(family),
        "report": fileio.report_payload(report),
    }


def _cmd_ci3prime(args):
    universe, covering = _load_covering(args.structure, "ci3prime")
    return check_ci3_prime(covering, fileio.load_family(args.family, universe))


def _cmd_extension_check(args):
    universe, covering = _load_covering(args.structure, "extension-check")
    d1 = fileio.parse_set_literal(args.d1, universe)
    d2 = fileio.parse_set_literal(args.d2, universe)
    # validated: the neighborhood criterion agrees with the membership test
    blocked = one_point_extension_blocked(covering, d1, d2, args.element)
    return {
        "d1": fileio.subset_payload(d1),
        "d2": fileio.subset_payload(d2),
        "element": args.element,
        "blocked": blocked,
        "neighborhood_criterion": blocked,
    }


def _cmd_enumerate(args):
    _, covering = _load_covering(args.structure, "enumerate")
    budget = EnumerationBudget(max_family_base=args.max_family_base)
    families = enumerate_rough_matroids(covering, budget, start=args.start, jobs=args.jobs)
    command = f"enumerate {args.structure}"
    if args.start:
        command += f" --start {args.start}"
    return {
        "command": command,
        "seed": None,
        "count": len(families),
        "families": [[fileio.subset_payload(m) for m in fam.members] for fam in families],
    }


def _cmd_cross_check(args):
    _, covering = _load_covering(args.structure, "cross-check")
    return cross_check(covering, EnumerationBudget(trials=args.trials, seed=args.seed))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughmatroids",
        description="Covering-based rough sets, definable-set lattices, and rough matroid checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("json",), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, formats=formats)
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

    p = add("lattice", _cmd_lattice, ("json", "dot"), help="Hasse diagram of the definable-set lattice")
    p.add_argument("structure")

    p = add("check", _cmd_check, ("json", "text"), help="run an axiom-system check")
    p.add_argument("name", choices=CHECK_NAMES)
    p.add_argument("structure")
    p.add_argument("family")

    p = add("uniform", _cmd_uniform, ("json", "text"), help="definable sets up to a cardinality bound")
    p.add_argument("structure")
    p.add_argument("--r", type=int, required=True, help="cardinality bound")
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

    p = add("ci3prime", _cmd_ci3prime, ("json", "text"), help="equal-cardinality exchange axiom check")
    p.add_argument("structure")
    p.add_argument("family")

    p = add("extension-check", _cmd_extension_check, help="one-point extension criterion")
    p.add_argument("structure")
    p.add_argument("--d1", required=True, help="set literal")
    p.add_argument("--d2", required=True, help="set literal")
    p.add_argument("--element", required=True, help="element of d2 - d1 to add")

    p = add("enumerate", _cmd_enumerate, help="all rough matroids over a covering")
    p.add_argument("structure")
    p.add_argument("--start", type=int, default=0, help="resume from this subfamily index (0..2^|D|)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1 (capped at the CPU count)")
    p.add_argument("--max-family-base", type=int, default=EnumerationBudget.max_family_base)

    p = add("cross-check", _cmd_cross_check, ("json", "text"), help="full law suite for one covering")
    p.add_argument("structure")
    p.add_argument("--seed", type=int, required=True, help="seed for sampled scans")
    p.add_argument("--trials", type=int, default=EnumerationBudget.trials)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    allowed = args.formats
    if args.command == "uniform" and not args.proposition:
        allowed = ("json",)  # text renders the proposition's report only
    with warnings.catch_warnings():
        warnings.showwarning = _emit_warning
        try:
            if args.format not in allowed:
                raise fileio.InputFormatError(
                    f"format {args.format!r} is not valid here (allowed: {', '.join(allowed)})"
                )
            text, code = _render(args.fn(args), args.format)
            if args.output:
                Path(args.output).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
            return code
        except (ValueError, KeyError, OSError) as exc:
            # str() of a KeyError is the repr of its message
            message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
            _emit_error(type(exc).__name__, message)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
