"""Hasse diagrams over inclusion, lattice law checks, and DOT export.

A family closed under union and intersection is a lattice under inclusion
with join = union and meet = intersection.  A ``LatticeDiagram`` holds
such a family and nothing else: building one checks the closure (the
closure witness rides along in the error), and the cover edges, bottom
and top are read off the family, the edges from its inclusion order
(``SetFamily.order``, the same ``MemberOrder`` the rough-matroid checkers
use).  The law checkers scan every pair and triple and report the first
counterexample in canonical order; the atomicity check is informational
and returns the atom list either way.
"""

from __future__ import annotations

from itertools import product

from .core import Immutable, LawViolationError, Subset
from .definable import SetFamily, check_closure
from .report import AxiomFailure, CheckReport


class NotALatticeError(ValueError):
    """The family is not closed under union/intersection."""

    def __init__(self, report: CheckReport):
        self.report = report
        failure = report.failures[0]
        parts = ", ".join(
            f"{k}={v.notation() if isinstance(v, Subset) else v}"
            for k, v in failure.witness.items()
        )
        super().__init__(
            f"family is not a lattice: {failure.axiom} fails ({parts or failure.note})"
        )


class LatticeDiagram(Immutable):
    """The Hasse diagram of a union/intersection-closed family.

    The family fixes the rest.  ``edges`` are the cover pairs of its
    inclusion order (``MemberOrder.covers``): index pairs (lower, upper)
    into ``family.members``, listed bottom-to-top in canonical node order.
    The closure makes the total meet and join members, so ``bottom`` and
    ``top`` are the least and greatest members, first and last in
    canonical order.

    A diagram raises NotALatticeError for an empty family and for one that
    fails ``check_closure``, and LawViolationError if a cover edge is not
    a strict inclusion.
    """

    _fields = ("family",)

    def __init__(self, family: SetFamily):
        self.__dict__["family"] = family
        if len(family) == 0:
            failure = AxiomFailure("closure", {}, note="empty family has no bottom element")
            raise NotALatticeError(CheckReport("closure", (failure,)))
        closure = check_closure(family)
        if not closure.passed:
            raise NotALatticeError(closure)
        mem = family.members
        for i, j in self.edges:
            if not mem[i] < mem[j]:
                raise LawViolationError(f"cover edge ({i}, {j}) is not a strict inclusion")

    @property
    def nodes(self) -> tuple[Subset, ...]:
        return self.family.members

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.family.order.covers

    @property
    def bottom(self) -> Subset:
        return self.family.members[0]

    @property
    def top(self) -> Subset:
        return self.family.members[-1]

    def edge_sets(self) -> tuple[tuple[Subset, Subset], ...]:
        mem = self.family.members
        return tuple((mem[i], mem[j]) for i, j in self.edges)


def build_lattice(family: SetFamily) -> LatticeDiagram:
    """Hasse diagram of inclusion over a union/intersection-closed family;
    ``LatticeDiagram`` gates on the closure."""
    return LatticeDiagram(family)


def _first_law_failure(family, axiom, arity, k):
    """The AxiomFailure at position k, in ``product`` order, of the
    combinations of ``arity`` members; None when k is None.

    k is decoded back into member indices, most significant first, so no
    index tuple is built per combination.
    """
    if k is None:
        return None
    combo = []
    for _ in range(arity):
        k, i = divmod(k, len(family))
        combo.append(family.members[i])
    names = ("a", "b", "c")[:arity]
    return AxiomFailure(axiom, dict(zip(names, reversed(combo))))


# Each scan returns the position, in ``product`` order, of the first
# combination of member masks on which its law fails, or None.
def _idempotence(masks):
    return next((k for k, a in enumerate(masks) if (a | a) != a or (a & a) != a), None)


def _commutativity(masks):
    pairs = enumerate(product(masks, repeat=2))
    return next((k for k, (a, b) in pairs if (a | b) != (b | a) or (a & b) != (b & a)), None)


def _associativity(masks):
    m = len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            join, meet = a | b, a & b
            for k, c in enumerate(masks):
                if (join | c) != (a | (b | c)) or (meet & c) != (a & (b & c)):
                    return (i * m + j) * m + k
    return None


def _absorption(masks):
    pairs = enumerate(product(masks, repeat=2))
    return next((k for k, (a, b) in pairs if (a | (a & b)) != a or (a & (a | b)) != a), None)


_LAWS = (
    ("P1-idempotence", 1, _idempotence),
    ("P2-commutativity", 2, _commutativity),
    ("P3-associativity", 3, _associativity),
    ("P4-absorption", 2, _absorption),
)


def check_lattice_laws(diagram: LatticeDiagram) -> CheckReport:
    """Verify idempotence, commutativity, associativity, and absorption of
    join/meet over all pairs and triples of lattice members.

    Each law scans the member masks in ``product`` order with no call per
    combination; associativity, the one scan over triples, computes a | b
    and a & b once per pair (a, b) before its loop over c.  Each law lists
    its canonically first counterexample on failure."""
    family = diagram.family
    failures = []
    for axiom, arity, scan in _LAWS:
        failure = _first_law_failure(family, axiom, arity, scan(family.masks))
        if failure is not None:
            failures.append(failure)
    return CheckReport("lattice-laws", failures=tuple(failures))


def check_atomicity(diagram: LatticeDiagram) -> CheckReport:
    """Report whether every member is the join of the atoms below it.

    Atoms are the covers of the bottom element, which ``LatticeDiagram``
    holds to member 0.  The verdict is informational: a non-atomic
    definable-set lattice is a legitimate finding, not an input error.  The atom list is always included in the
    report details.
    """
    family = diagram.family
    masks = family.masks
    atom_idx = [j for i, j in diagram.edges if i == 0]
    atoms = [masks[j] for j in atom_idx]
    failures: list[AxiomFailure] = []
    for k, m in enumerate(masks):
        join = masks[0]
        for a in atoms:
            if a & ~m == 0:
                join |= a
        if join != m:
            note = "member is not the join of the atoms below it"
            failures.append(AxiomFailure("atomicity", {"member": family.members[k]}, note=note))
            break
    details = {"atoms": [family.members[j].notation() for j in atom_idx]}
    return CheckReport("atomicity", failures=tuple(failures), details=details)


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
