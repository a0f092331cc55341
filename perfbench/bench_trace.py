"""Spans at the module boundaries, for the traced run only.

The tracer wraps each boundary name in the namespace of the module that
calls it (``oracle`` imports ``build_lattice`` by name, so the
oracle-to-lattice boundary is ``roughmatroids.oracle.build_lattice``), and
restores every original on ``uninstall``.  Timed runs never import this
module.

Every call through a wrapper is one span: name, start, end, parent and the
op it belongs to.  A span's self time is its duration minus the time its
child spans cover.  Per-name totals are kept for every span; the span
records themselves only for the first ``keep`` spans, which bounds memory
on the enumeration workload (two spans per candidate).
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import roughmatroids.axioms as axioms
import roughmatroids.cli as cli
import roughmatroids.constructions as constructions
import roughmatroids.fileio as fileio
import roughmatroids.lattice as lattice
import roughmatroids.oracle as oracle
from roughmatroids.core import Subset

import bench_workloads


def _count_sets(tracer, family):
    tracer.counts["definable.sets_out"] += len(family)


def _count_lattice(tracer, diagram):
    tracer.counts["lattice.nodes"] += len(diagram.nodes)
    tracer.counts["lattice.edges"] += len(diagram.edges)


def _count_check(tracer, report):
    tracer.counts["axioms.check.passed"] += report.passed


def _count_candidate(tracer, report):
    _count_check(tracer, report)
    if tracer.open["oracle.enumerate"]:
        tracer.counts["oracle.enumerate.candidates"] += 1


def _count_found(tracer, families):
    tracer.counts["oracle.enumerate.found"] += len(families)


def _count_bytes(tracer, text):
    tracer.counts["fileio.bytes_out"] += len(text.encode("utf-8"))


# (namespace, attribute, span name, hook run on the result)
BOUNDARIES = (
    (bench_workloads, "cross_check", "oracle.cross_check", None),
    (bench_workloads, "enumerate_rough_matroids", "oracle.enumerate", _count_found),
    (oracle, "definable_family", "definable.definable_family", _count_sets),
    (oracle, "check_closure", "definable.check_closure", None),
    (oracle, "build_lattice", "lattice.build_lattice", _count_lattice),
    (oracle, "check_lattice_laws", "lattice.laws", None),
    (oracle, "check_atomicity", "lattice.laws", None),
    (oracle, "_check_rough_given", "axioms.check", _count_candidate),
    (oracle, "check_ci3_prime", "constructions.check_ci3_prime", None),
    (oracle, "_subfamily", "oracle.subfamily", None),
    (constructions, "definable_family", "definable.definable_family", _count_sets),
    (constructions, "_check_rough_given", "axioms.check", _count_check),
    (constructions, "check_rough_matroid_covering", "axioms.check", _count_check),
    (constructions, "check_matroid", "axioms.check", _count_check),
    (axioms, "definable_family", "definable.definable_family", _count_sets),
    (lattice, "check_closure", "definable.check_closure", None),
    (cli, "main", "cli.main", None),
    (cli, "definable_family", "definable.definable_family", _count_sets),
    (cli, "build_lattice", "lattice.build_lattice", _count_lattice),
    (cli, "export_dot", "lattice.export_dot", None),
    (cli, "check_matroid", "axioms.check", _count_check),
    (cli, "check_ci3_prime", "constructions.check_ci3_prime", None),
    (cli, "check_uniform_proposition", "constructions.other", None),
    (cli, "direct_sum", "constructions.other", None),
    (cli, "one_point_extension_blocked", "constructions.other", None),
    (cli, "extension_sides", "constructions.other", None),
    (cli, "uniform_family", "constructions.other", None),
    (cli, "cross_check", "oracle.cross_check", None),
    (cli, "enumerate_rough_matroids", "oracle.enumerate", _count_found),
    (fileio, "load_structure", "fileio.load", None),
    (fileio, "load_family", "fileio.load", None),
    (fileio, "parse_set_literal", "fileio.load", None),
    (fileio, "dumps", "fileio.dumps", _count_bytes),
    (fileio, "report_payload", "fileio.payload", None),
    (fileio, "family_payload", "fileio.payload", None),
    (fileio, "lattice_payload", "fileio.payload", None),
    (fileio, "neighborhoods_payload", "fileio.payload", None),
    (fileio, "covering_payload", "fileio.payload", None),
)

# The CLI dispatches the checks through these tables, not by name.
CHECK_TABLES = (cli.CHECKS_ON_COVERING, cli.CHECKS_ON_RELATION)


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.stack: list[list] = []  # open spans: [span id, time covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, self s, op)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self.next_id = 0
        self.op: int | None = None
        self._restore: list = []

    def wrap(self, name, fn, hook=None):
        stack, stats, spans, open_ = self.stack, self.stats, self.spans, self.open
        keep = self.keep

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if sid < keep:
                    spans.append((sid, name, start, end, parent, duration - frame[1], self.op))
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _patch(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        for namespace, attr, name, hook in BOUNDARIES:
            self._patch(namespace, attr, self.wrap(name, getattr(namespace, attr), hook))
        for table in CHECK_TABLES:
            for key, fn in list(table.items()):
                if fn is not None:
                    self._restore.append((table, key, fn))
                    table[key] = self.wrap("axioms.check", fn, _count_check)
        self._install_counters()

    def _install_counters(self) -> None:
        counts = self.counts
        post_init, less = Subset.__post_init__, Subset.__lt__

        def counted_post_init(subset):
            counts["core.Subset.created"] += 1
            post_init(subset)

        def counted_lt(a, b):
            counts["core.Subset.lt_calls"] += 1
            return less(a, b)

        self._patch(Subset, "__post_init__", counted_post_init)
        self._patch(Subset, "__lt__", counted_lt)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if n.split(".", 1)[0] == layer)


def installed_originals() -> list:
    """The objects ``install`` replaces, for checking that ``uninstall``
    put every one of them back."""
    out = [getattr(ns, attr) for ns, attr, _, _ in BOUNDARIES]
    out += [fn for table in CHECK_TABLES for fn in table.values()]
    out += [Subset.__post_init__, Subset.__lt__]
    return out


def span_problems(spans: list[tuple], tolerance: float = 1e-9) -> list[str]:
    """Self-test over the kept spans: every self time is non-negative and
    every child lies inside its parent."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, name, start, end, parent, self_s, _op in spans:
        if end < start:
            problems.append(f"span {sid} ({name}) ends before it starts")
        if self_s < -tolerance:
            problems.append(f"span {sid} ({name}) has negative self time {self_s}")
        if parent is not None:
            p = by_id.get(parent)
            if p is None:
                problems.append(f"span {sid} ({name}) has an unknown parent {parent}")
            elif start < p[2] or end > p[3]:
                problems.append(f"span {sid} ({name}) is not inside its parent {parent}")
    return problems
