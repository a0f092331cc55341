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

The kernel takes the candidate as ``picked``, a mask over the indices of
the definable family's members, and decides each axiom with whole-mask
operations on the rows of the family's ``MemberOrder`` (``has[e]``: the
members whose image holds element e; ``larger[s]``: those whose image has
more than s elements; ``below[j]``, ``above[j]`` and ``over[x]`` built from
them on first use):

- the empty set is member 0, so it is bit 0 of ``picked``;
- heredity fails at the first picked j with ``below[j] & ~picked``
  non-zero, and the lowest such bit is the missing subset;
- exchange for a picked I1 starts from the picked members with a larger
  image and clears, for each picked member K above I1, the members whose
  image covers K's image less I1's (``over[a_K & ~a_I1]``); what is left
  are the I2 without a member strictly between I1 and I1 together with
  I2, and the lowest bit is the witness.

The members are in canonical order, which ``SetFamily`` enforces, so
ascending bit order is the order in which a member-by-member scan meets
them, and every witness is the one that scan finds.  A ``SetFamily`` is
turned into a mask (or a definability failure) only at the boundary, in
``_check_on`` and ``check_ci3_prime``; enumeration and ``cross_check``
hand their subfamily indices to the kernel directly.

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
from .definable import MemberOrder, SetFamily, definable_family
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


def definability_report(check: str, dfam: SetFamily, family: SetFamily) -> CheckReport:
    """The failed definability precondition, for a family that is not a
    subfamily of ``dfam``: its first member outside the definable family."""
    stray = next(m for m in family if m not in dfam)
    note = "candidate family must consist of definable sets"
    failure = AxiomFailure("definability", {"member": stray}, note=note)
    return CheckReport(check, passed=False, failures=(failure,))


def _check_rough_given(
    check: str,
    order: MemberOrder,
    picked: int,
    tags: tuple[str, str, str],
    include_exchange: bool = True,
) -> CheckReport:
    """The rough-matroid kernel on a candidate given as ``picked``, a mask
    over the member indices of the definable family whose order is
    ``order``: the empty set (member 0), heredity over definable subsets
    and exchange, each on the members' images."""
    t1, t2, t3 = tags
    members, below = order.members, order.below
    failures: list[AxiomFailure] = []
    if not picked & 1:
        failures.append(AxiomFailure(t1, {"missing": members[0]}))
    rest = picked
    while rest:
        low = rest & -rest
        rest ^= low
        j = low.bit_length() - 1
        missing = below[j] & ~picked
        if missing:
            sub = (missing & -missing).bit_length() - 1
            failures.append(AxiomFailure(t2, {"I": members[j], "I'": members[sub]}))
            break
    if include_exchange:
        images, sizes, larger = order.images, order.sizes, order.larger
        over, above = order.over, order.above
        rest = picked
        while rest:
            low = rest & -rest
            rest ^= low
            j1 = low.bit_length() - 1
            # the I2 candidates, less those that some member above I1 serves
            cand = picked & larger[sizes[j1]]
            if not cand:
                continue
            a1 = images[j1]
            ups = above[j1] & picked
            while cand and ups:
                up = ups & -ups
                ups ^= up
                cand &= ~over[images[up.bit_length() - 1] & ~a1]
            if cand:
                j2 = (cand & -cand).bit_length() - 1
                failures.append(AxiomFailure(t3, {"I1": members[j1], "I2": members[j2]}))
                break
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
    dfam = definable_family(nm)
    picked = dfam.index_mask(family)
    if picked is None:
        return definability_report(check, dfam, family)
    if approx_bits is None:
        order = dfam.order
    else:
        images = [approx_bits(nm.cell_bits, m.bits) for m in dfam.members]
        order = MemberOrder(nm.universe.size, dfam.members, images)
    tags = (f"{prefix}I1", f"{prefix}I2", f"{prefix}I3")
    return _check_rough_given(check, order, picked, tags)


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
