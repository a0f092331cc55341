"""Hasse diagrams over inclusion, lattice law checks, and DOT export.

A family closed under union and intersection is a lattice under inclusion
with join = union and meet = intersection.  ``build_lattice`` requires that
closure up front (the closure witness rides along in the error), reads the
cover edges off the family's inclusion order (``SetFamily.order``, the
same ``MemberOrder`` the rough-matroid checkers use), and designates the
least and greatest members.  The law checkers scan every pair and
triple and report the first counterexample in canonical order; the
atomicity check is informational and returns the atom list either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, product, starmap
from operator import not_

from .core import Subset
from .definable import SetFamily, check_closure
from .report import AxiomFailure, CheckReport


class NotALatticeError(ValueError):
    """The family is not closed under union/intersection."""

    def __init__(self, report: CheckReport):
        self.report = report
        witness = report.witness or {}
        parts = ", ".join(
            f"{k}={v.notation() if isinstance(v, Subset) else v}" for k, v in witness.items()
        )
        super().__init__(f"family is not a lattice: {report.failed_axiom} fails ({parts})")


@dataclass(frozen=True)
class LatticeDiagram:
    """Nodes, cover edges, and the designated bottom and top.

    ``edges`` holds index pairs (lower, upper) into ``family.members``; each
    pair is a covering pair of inclusion restricted to the family, listed
    bottom-to-top in canonical node order.

    A diagram raises ValueError unless ``bottom`` is the first member and
    lies inside every member, ``top`` is the last and holds every member
    (so an empty family has none), and every edge is a strict inclusion.
    """

    family: SetFamily
    edges: tuple[tuple[int, int], ...]
    bottom: Subset
    top: Subset

    def __post_init__(self):
        mem = self.family.members
        if not mem or (self.bottom, self.top) != (mem[0], mem[-1]) or any(
            self.bottom.bits & ~m.bits or m.bits & ~self.top.bits for m in mem
        ):
            raise ValueError("bottom and top must be the least and greatest members")
        nodes = range(len(mem))
        for i, j in self.edges:
            if i not in nodes or j not in nodes:
                raise ValueError(f"edge ({i}, {j}) names a node outside the family")
            if not mem[i] < mem[j]:
                raise ValueError(f"edge ({i}, {j}) is not a strict inclusion")

    @property
    def nodes(self) -> tuple[Subset, ...]:
        return self.family.members

    def edge_sets(self) -> tuple[tuple[Subset, Subset], ...]:
        mem = self.family.members
        return tuple((mem[i], mem[j]) for i, j in self.edges)


def build_lattice(family: SetFamily) -> LatticeDiagram:
    """Hasse diagram of inclusion over a union/intersection-closed family.

    After the closure gate the edges are the cover pairs of the family's
    inclusion order (``MemberOrder.covers``), the same pairs that
    ``check_closure`` reads its irreducible members from.
    """
    if len(family) == 0:
        raise NotALatticeError(
            CheckReport("closure", passed=False, notes="empty family has no bottom element")
        )
    closure = check_closure(family)
    if not closure.passed:
        raise NotALatticeError(closure)
    # The closure gate makes the total meet and join members, so they are
    # the least and greatest members, first and last in canonical order.
    members = family.members
    return LatticeDiagram(family, family.order.covers, members[0], members[-1])


def _first_law_failure(members, axiom, arity, holds):
    """The first combination of members, in ``product`` order, on which
    ``holds`` fails, as an AxiomFailure; None when it holds on all.

    ``holds`` runs on the member masks; the position of the first failure
    in the verdict stream is decoded back into member indices, most
    significant first, so no index tuple is built per combination.
    """
    verdicts = starmap(holds, product([m.bits for m in members], repeat=arity))
    k = next(compress(count(), map(not_, verdicts)), None)
    if k is None:
        return None
    combo = []
    for _ in range(arity):
        k, i = divmod(k, len(members))
        combo.append(members[i])
    names = ("a", "b", "c")[:arity]
    return AxiomFailure(axiom, dict(zip(names, reversed(combo))))


def check_lattice_laws(diagram: LatticeDiagram) -> CheckReport:
    """Verify idempotence, commutativity, associativity, and absorption of
    join/meet over all pairs and triples of lattice members.

    Each law lists its canonically first counterexample on failure."""
    members = diagram.family.members
    laws = (
        ("P1-idempotence", 1, lambda a: (a | a) == a and (a & a) == a),
        ("P2-commutativity", 2, lambda a, b: (a | b) == (b | a) and (a & b) == (b & a)),
        (
            "P3-associativity",
            3,
            lambda a, b, c: ((a | b) | c) == (a | (b | c)) and ((a & b) & c) == (a & (b & c)),
        ),
        ("P4-absorption", 2, lambda a, b: (a | (a & b)) == a and (a & (a | b)) == a),
    )
    failures = []
    for axiom, arity, holds in laws:
        failure = _first_law_failure(members, axiom, arity, holds)
        if failure is not None:
            failures.append(failure)
    return CheckReport("lattice-laws", passed=not failures, failures=tuple(failures))


def check_atomicity(diagram: LatticeDiagram) -> CheckReport:
    """Report whether every member is the join of the atoms below it.

    Atoms are the covers of the bottom element, which ``LatticeDiagram``
    holds to member 0.  The verdict is informational: a non-atomic
    definable-set lattice is a legitimate finding, not an input error.  The atom list is always included in the
    report details.
    """
    members = diagram.family.members
    atom_idx = sorted(j for i, j in diagram.edges if i == 0)
    atoms = tuple(members[j] for j in atom_idx)
    failures: list[AxiomFailure] = []
    for m in members:
        join = diagram.bottom.bits
        for a in atoms:
            if a.bits & ~m.bits == 0:
                join |= a.bits
        if join != m.bits:
            failures.append(
                AxiomFailure(
                    "atomicity",
                    {"member": m},
                    note="member is not the join of the atoms below it",
                )
            )
            break
    return CheckReport(
        "atomicity",
        passed=not failures,
        failures=tuple(failures),
        details={"atoms": [a.notation() for a in atoms]},
    )


def export_dot(diagram: LatticeDiagram) -> str:
    """Deterministic DOT rendering; identical input gives identical bytes.

    Nodes appear in canonical family order and edges run bottom-to-top.
    """
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, m in enumerate(diagram.nodes):
        label = m.notation().replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in diagram.edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
