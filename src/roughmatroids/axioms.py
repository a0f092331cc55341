"""Axiom-system checkers with replayable witnesses.

Seven checkers share one reporting discipline: every axiom of the system is
evaluated (no short-circuiting between axioms), each failed axiom is listed
with the canonically smallest witness instantiating its quantifiers, and
replaying a witness against the matching predicate below reproduces the
failure.  Scans iterate families in canonical order, so reports are
deterministic and the first failing instance found is the smallest one.

The six rough-matroid systems (plain, lower and upper, each over a covering
or a relation) run through one kernel, ``_check_rough_given``.  All six are
the same three axioms, the empty set, heredity and exchange, applied to a
set's image under an operator: the identity for the plain systems, the
lower or upper approximation on the neighborhood cells for the others.
The kernel compares images as plain membership masks and builds a
``Subset`` only for a witness.

The approximation-based systems restrict heredity to candidates that are
both included in the independent set and dominated by it under the
approximation operator.  On covering neighborhoods the two conditions
coincide (the lower and upper operators fix every definable set), so this
reading agrees with plain approximation dominance there; on successor
neighborhoods of a relation, where distinct definable sets can share an
approximation, the inclusion is what keeps heredity from collapsing the
family upward.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .core import (
    BinaryRelation,
    Covering,
    NeighborhoodMap,
    Subset,
    Universe,
    canonical_mask_key,
    lower_approx_bits,
    neighborhoods_of_covering,
    successor_neighborhoods,
    upper_approx_bits,
)
from .definable import SetFamily, definable_family
from .report import AxiomFailure, CheckReport

ApproxFn = Callable[[int], int]


def _subsets_canonical(bits: int) -> list[int]:
    """All submasks of ``bits`` in canonical order (including 0 and itself)."""
    subs = [0]
    rest = bits
    while rest:
        low = rest & -rest
        subs += [s | low for s in subs]
        rest &= rest - 1
    return sorted(subs, key=canonical_mask_key)


def augmentation_within(family: SetFamily, i1: Subset, i2: Subset) -> bool:
    """Body of the classical augmentation axiom for one pair: some element
    of i2 - i1 extends i1 inside the family."""
    gap = i2.bits & ~i1.bits
    while gap:
        low = gap & -gap
        if family.contains_bits(i1.bits | low):
            return True
        gap &= gap - 1
    return False


def exchange_within(family: SetFamily, i1: Subset, i2: Subset) -> bool:
    """Body of the rough exchange axiom for one pair: some family member
    lies strictly between i1 and i1 | i2."""
    return approx_exchange_within(family, lambda bits: bits, i1, i2)


def approx_exchange_within(
    family: SetFamily, approx: ApproxFn, i1: Subset, i2: Subset
) -> bool:
    """Body of the approximation exchange axiom: some family member's
    approximation lies strictly between the approximations of i1 and of
    i1 together with i2."""
    a1 = approx(i1.bits)
    hi = a1 | approx(i2.bits)
    images = (approx(m.bits) for m in family)
    return any(a1 & ~am == 0 and am != a1 and am & ~hi == 0 for am in images)


def check_matroid(universe: Universe, family: SetFamily) -> CheckReport:
    """Classical independence axioms: empty set present, heredity over all
    subsets, and augmentation between sets of different cardinality."""
    failures: list[AxiomFailure] = []
    empty = universe.empty()
    if empty not in family:
        failures.append(AxiomFailure("I1", {"missing": empty}))

    def i2_failure() -> AxiomFailure | None:
        for ind in family:
            for sub in _subsets_canonical(ind.bits):
                if not family.contains_bits(sub):
                    return AxiomFailure("I2", {"I": ind, "I'": Subset(universe, sub)})
        return None

    def i3_failure() -> AxiomFailure | None:
        for i1 in family:
            for i2 in family:
                if len(i1) < len(i2) and not augmentation_within(family, i1, i2):
                    return AxiomFailure("I3", {"I1": i1, "I2": i2})
        return None

    for finder in (i2_failure, i3_failure):
        failure = finder()
        if failure is not None:
            failures.append(failure)
    return CheckReport("matroid", passed=not failures, failures=tuple(failures))


def _check_rough_given(
    check: str,
    dfam: SetFamily,
    family: SetFamily,
    tags: tuple[str, str, str],
    include_exchange: bool = True,
    approx: ApproxFn | None = None,
) -> CheckReport:
    """The rough-matroid kernel over a precomputed definable family: the
    family must consist of definable sets, then the empty set, heredity over
    definable subsets and exchange, each on the members' images under
    ``approx`` (the members themselves when it is absent)."""
    inside = family.bitset()
    if family.universe != dfam.universe or not inside <= dfam.bitset():
        stray = next((m for m in family if m not in dfam), None)
        if stray is not None:
            note = "candidate family must consist of definable sets"
            failure = AxiomFailure("definability", {"member": stray}, note=note)
            return CheckReport(check, passed=False, failures=(failure,))
    t1, t2, t3 = tags
    members = family.members
    images = [m.bits if approx is None else approx(m.bits) for m in members]
    failures: list[AxiomFailure] = []
    if 0 not in inside:
        failures.append(AxiomFailure(t1, {"missing": family.universe.empty()}))

    def heredity_failure() -> AxiomFailure | None:
        for ind, image in zip(members, images):
            bits = ind.bits
            for cand in dfam:
                sub = cand.bits
                if (
                    sub & ~bits == 0
                    and sub not in inside
                    and (approx is None or approx(sub) & ~image == 0)
                ):
                    return AxiomFailure(t2, {"I": ind, "I'": cand})
        return None

    def exchange_failure() -> AxiomFailure | None:
        sizes = [image.bit_count() for image in images]
        for i1, a1, s1 in zip(members, images, sizes):
            for i2, a2, s2 in zip(members, images, sizes):
                if s1 < s2:
                    hi = a1 | a2
                    for a in images:
                        if a1 & ~a == 0 and a != a1 and a & ~hi == 0:
                            break
                    else:
                        return AxiomFailure(t3, {"I1": i1, "I2": i2})
        return None

    finders = [heredity_failure]
    if include_exchange:
        finders.append(exchange_failure)
    for finder in finders:
        failure = finder()
        if failure is not None:
            failures.append(failure)
    return CheckReport(check, passed=not failures, failures=tuple(failures))


def _check_on(
    check: str,
    nm: NeighborhoodMap,
    family: SetFamily,
    prefix: str,
    approx_bits: Callable[[tuple[int, ...], int], int] | None = None,
) -> CheckReport:
    """One rough-matroid system over a neighborhood map: axioms tagged
    ``<prefix>I1``..``<prefix>I3``, images under ``approx_bits`` on the
    map's cells."""
    approx = None if approx_bits is None else partial(approx_bits, nm.cell_bits)
    tags = (f"{prefix}I1", f"{prefix}I2", f"{prefix}I3")
    return _check_rough_given(check, definable_family(nm), family, tags, approx=approx)


def check_rough_matroid_covering(covering: Covering, family: SetFamily) -> CheckReport:
    """Rough matroid over a covering: membership in the definable family,
    then the empty set, definable-subset heredity, and exchange."""
    return _check_on("rough-cov", neighborhoods_of_covering(covering), family, "C")


def check_lower_rough_matroid_covering(covering: Covering, family: SetFamily) -> CheckReport:
    nm = neighborhoods_of_covering(covering)
    return _check_on("lower-cov", nm, family, "L", lower_approx_bits)


def check_upper_rough_matroid_covering(covering: Covering, family: SetFamily) -> CheckReport:
    nm = neighborhoods_of_covering(covering)
    return _check_on("upper-cov", nm, family, "U", upper_approx_bits)


def check_lower_rough_matroid_relation(relation: BinaryRelation, family: SetFamily) -> CheckReport:
    nm = successor_neighborhoods(relation)
    return _check_on("lower-rel", nm, family, "L", lower_approx_bits)


def check_upper_rough_matroid_relation(relation: BinaryRelation, family: SetFamily) -> CheckReport:
    nm = successor_neighborhoods(relation)
    return _check_on("upper-rel", nm, family, "U", upper_approx_bits)


def check_matroid_condition(covering: Covering, family: SetFamily) -> CheckReport:
    """Both sides of the matroid criterion for a rough matroid: classical
    matroid-ness on one side, singleton neighborhoods across the family's
    support on the other.  Passes when the sides agree."""
    rough = check_rough_matroid_covering(covering, family)
    if not rough.passed:
        return CheckReport(
            "matroid-cond",
            passed=False,
            failures=(
                AxiomFailure(
                    "precondition",
                    dict(rough.witness or {}),
                    note=f"family is not a rough matroid ({rough.failed_axiom} fails)",
                ),
            ),
        )
    nm = neighborhoods_of_covering(covering)
    support = family.union_all()
    offending = [
        covering.universe.labels[i]
        for i in support.indices()
        if nm.cell_bits[i] != (1 << i)
    ]
    is_matroid = check_matroid(covering.universe, family).passed
    singleton_support = not offending
    agree = is_matroid == singleton_support
    failures = ()
    if not agree:
        witness = {"is_matroid": is_matroid, "singleton_neighborhoods": singleton_support}
        if offending:
            witness["element"] = offending[0]
        failures = (
            AxiomFailure("equivalence", witness, note="the two sides disagree"),
        )
    return CheckReport(
        "matroid-cond",
        passed=agree,
        failures=failures,
        details={
            "is_matroid": is_matroid,
            "singleton_neighborhoods_on_support": singleton_support,
            "support": support.notation(),
        },
    )
