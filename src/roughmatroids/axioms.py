"""Axiom-system checkers with replayable witnesses.

Seven checkers share one reporting discipline: every axiom of the system is
evaluated (no short-circuiting between axioms; only the verdict-only runs
of the kernel and of ``check_ci3_prime`` stop at the first failure), each
failed axiom is listed with the canonically smallest witness instantiating
its quantifiers, and replaying a witness against the matching predicate
below reproduces the failure.  Scans iterate families in canonical order,
so reports are deterministic and the first failing instance found is the
smallest one.

The six rough-matroid systems (plain, lower and upper, each over a covering
or a relation) run through one kernel, ``_check_rough_given``.  All six are
the same three axioms, the empty set, heredity and exchange, applied to a
set's image under an operator: the identity for the plain systems, the
lower or upper approximation on the neighborhood cells for the others.
A covering's lower approximation fixes every definable set, as x lies in
N(x), so ``lower-cov`` runs on the family's own order, as the plain ones do.

The kernel takes the candidate as ``picked``, a mask over the indices of
the definable family's members, and decides each axiom with whole-mask
operations on the rows of the family's ``MemberOrder`` (``has[e]``: the
members whose image holds element e; ``larger[s]``: those whose image has
more than s elements; ``below[j]`` and ``over[x]`` built from them on
first use):

- the empty set is member 0, so it is bit 0 of ``picked``;
- heredity fails at the first picked j with ``below[j] & ~picked``
  non-zero, and the lowest such bit is the missing subset;
- exchange for a picked I1 starts from the candidates, the picked
  members with a larger image.  The candidates K in ``over[a_I1]`` are
  those whose image strictly contains I1's, and for each of them it
  clears the members whose image covers K's image less I1's
  (``over[a_K & ~a_I1]``).  What is left are the I2 without a member
  strictly between I1 and I1 together with I2, and the lowest bit is the
  witness.

The members are in canonical order, which ``SetFamily`` enforces, so
ascending bit order is the order in which a member-by-member scan meets
them, and every witness is the one that scan finds.  A ``SetFamily`` is
its int masks, so ``_check_on`` and ``check_ci3_prime`` read a candidate's
masks into its subfamily index (or a definability failure) with
``index_mask``; enumeration and ``cross_check`` hand their subfamily
indices to the kernel directly and, reading only the verdict, have it
stop at the first failure.  ``cross_check``'s CI3' stage reads only the
verdict of ``check_ci3_prime(..., stop_at_first=True)`` too, the third
verdict-only run, which stops at the kernel's CI1 or CI2 failure before
its own walk.  ``Subset`` objects appear only in witnesses.

The kernel's scan records each failed axiom's first witness as member
indices, and one builder turns them into the report.  Verdict-only runs
share their reports: the ``MemberOrder`` keeps one per check name, tags
and first failure in ``verdicts``, so enumeration does not build and drop
a report for every index it rejects.  Reports are read-only for every
caller; nothing in the package writes to one after its checker returns.

The approximation-based systems restrict heredity to candidates that are
both included in the independent set and dominated by it under the
approximation operator.  The lower and upper operators are monotone for
every neighborhood map, so inclusion already gives dominance and heredity
runs over the definable subsets, as in the plain system.  Dominance alone
would differ: the upper operator need not fix a definable set (on
{{a,b},{b,c}} it takes {b} to {a,b,c}), and on successor neighborhoods of
a relation distinct definable sets can share an approximation, so the
inclusion is what keeps heredity from collapsing the family upward.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .core import (
    BinaryRelation,
    Covering,
    NeighborhoodMap,
    Subset,
    Universe,
    bit_indices,
    lower_approx_bits,
    neighborhoods_of_covering,
    require_same_universe,
    successor_neighborhoods,
    upper_approx_bits,
)
from .definable import MemberOrder, SetFamily, definable_family
from .report import AxiomFailure, CheckReport

ApproxFn = Callable[[int], int]


def _first_missing_subset(bits: int, present: frozenset[int]) -> int:
    """The canonically first submask of ``bits`` not in ``present``.  The
    walk is in canonical order (by size, then by ascending index tuple), so
    every submask it passes is a distinct member of ``present``."""
    elements = [1 << i for i in bit_indices(bits)]
    subsets = (sum(c) for k in range(len(elements) + 1) for c in combinations(elements, k))
    return next(sub for sub in subsets if sub not in present)


def augmentation_within(family: SetFamily, i1: Subset, i2: Subset) -> bool:
    """Body of the classical augmentation axiom for one pair: some element
    of i2 - i1 extends i1 inside the family."""
    present = family.bitset()
    return any(i1.bits | 1 << e in present for e in bit_indices(i2.bits & ~i1.bits))


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
    images = map(approx, family.masks)
    return any(a1 & ~am == 0 and am != a1 and am & ~hi == 0 for am in images)


def check_matroid(universe: Universe, family: SetFamily) -> CheckReport:
    """Classical independence axioms: empty set present, heredity over all
    subsets, and augmentation between sets of different cardinality.

    No pair of members is scanned; each member costs work in proportion
    to its own size plus a few rows of ``family.order``:

    - Heredity (I2).  Lemma: the first member that lacks some subset is
      the first member that lacks a subset one element smaller.  If M
      lacks S, walk down from M to S one element at a time; the last set
      on the walk still in the family is a member M' inside M, so M' is M
      or comes before M in canonical order, and M' lacks a subset one
      element smaller.  The witness is that member's canonically first
      missing subset.
    - Augmentation (I3).  Lemma: with ``addable`` the elements e outside
      I1 such that I1 + e is a member, I1 augments from I2 exactly when I2
      holds an element of ``addable``.  So the I2 that I1 fails on are the
      members larger than I1 outside ``reach``, the OR of ``has[e]`` over
      those elements, and the lowest such bit is the pair scan's witness.
      ``addable`` of every member is read off one map built from every
      member's subsets one element smaller.

    A family on another universe raises ``UniverseMismatchError``.
    """
    failures: list[AxiomFailure] = []
    empty = universe.empty()
    require_same_universe(family, empty)
    if empty not in family:
        failures.append(AxiomFailure("I1", {"missing": empty}))
    masks, present = family.masks, family.bitset()
    addable: dict[int, int] = {}
    stuck = None
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            addable[m ^ low] = addable.get(m ^ low, 0) | low
            if stuck is None and m ^ low not in present:
                stuck = m
    if stuck is not None:
        sub = _first_missing_subset(stuck, present)
        witness = {"I": Subset(universe, stuck), "I'": Subset(universe, sub)}
        failures.append(AxiomFailure("I2", witness))
    order = family.order
    has, larger, sizes = order.has, order.larger, order.sizes
    for j, m in enumerate(masks):
        reach = 0
        for e in bit_indices(addable.get(m, 0)):
            reach |= has[e]
        fails = larger[sizes[j]] & ~reach
        if fails:
            i2 = family.members[(fails & -fails).bit_length() - 1]
            failures.append(AxiomFailure("I3", {"I1": family.members[j], "I2": i2}))
            break
    return CheckReport("matroid", failures=tuple(failures))


def definability_report(check: str, dfam: SetFamily, family: SetFamily) -> CheckReport:
    """The failed definability precondition, for a family that is not a
    subfamily of ``dfam``: its first member outside the definable family."""
    stray = Subset(family.universe, next(b for b in family.masks if b not in dfam.bitset()))
    note = "candidate family must consist of definable sets"
    failure = AxiomFailure("definability", {"member": stray}, note=note)
    return CheckReport(check, failures=(failure,))


# The witness keys of the kernel's empty-set, heredity and exchange axioms,
# in the order of its ``tags``; a CI1 failure names member 0 once.
_WITNESS_KEYS = (("missing",), ("I", "I'"), ("I1", "I2"))


def _check_rough_given(
    check: str,
    order: MemberOrder,
    picked: int,
    tags: tuple[str, str, str],
    include_exchange: bool = True,
    *,
    stop_at_first: bool = False,
) -> CheckReport:
    """The rough-matroid kernel on a candidate given as ``picked``, a mask
    over the member indices of the definable family whose order is
    ``order``: the empty set (member 0, the least under ``SetFamily``),
    heredity over definable subsets and exchange, on the members' images.

    The scan records each failed axiom's first witness as a position
    ``(axiom, i, k)``: the axiom's index in ``tags`` and the member
    indices of its witness (``(0, 0, 0)`` for the empty set), and the
    report is built from those.  ``stop_at_first`` stops the scan at the
    first failure, for the verdict-only callers: enumeration,
    ``cross_check``'s CI3' stage, and ``check_ci3_prime(...,
    stop_at_first=True)`` in that stage.  Their reports are shared: looked
    up in ``order.verdicts`` under ``(check, tags, positions)`` (a pass
    under no positions) and built only on a miss, so at most 2 + 2|D|^2
    are kept per check and tags, freed with the family.  Callers must
    treat every report as read-only."""
    members, below = order.members, order.below
    found: list[tuple[int, int, int]] = []
    if not picked & 1:
        found.append((0, 0, 0))
    rest = 0 if stop_at_first and found else picked
    while rest:
        low = rest & -rest
        rest ^= low
        j = low.bit_length() - 1
        missing = below[j] & ~picked
        if missing:
            found.append((1, j, (missing & -missing).bit_length() - 1))
            break
    if include_exchange and not (stop_at_first and found):
        images, sizes, larger = order.images, order.sizes, order.larger
        over = order.over
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
            ups = over[a1] & cand
            while cand and ups:
                up = ups & -ups
                ups ^= up
                cand &= ~over[images[up.bit_length() - 1] & ~a1]
            if cand:
                found.append((2, j1, (cand & -cand).bit_length() - 1))
                break
    if not stop_at_first:
        return _kernel_report(check, members, tags, found)
    key = (check, tags, tuple(found))
    if (report := order.verdicts.get(key)) is None:
        report = order.verdicts[key] = _kernel_report(check, members, tags, found)
    return report


def _kernel_report(check: str, members: tuple[Subset, ...], tags, found) -> CheckReport:
    """The kernel's report on the witness positions its scan found."""
    failures = tuple(
        AxiomFailure(tags[a], dict(zip(_WITNESS_KEYS[a], (members[i], members[k]))))
        for a, i, k in found
    )
    return CheckReport(check, failures=failures)


def _check_on(
    check: str,
    nm: NeighborhoodMap,
    family: SetFamily,
    prefix: str,
    approx_bits: Callable[[tuple[int, ...], int], int] | None = None,
) -> CheckReport:
    """One rough-matroid system over a neighborhood map: axioms tagged
    ``<prefix>I1``..``<prefix>I3``, on the definable family's own order, or
    on an order of its members' images under ``approx_bits``, built per call."""
    dfam = definable_family(nm)
    picked = dfam.index_mask(family)
    if picked is None:
        return definability_report(check, dfam, family)
    if approx_bits is None:
        order = dfam.order
    else:
        order = MemberOrder(dfam, [approx_bits(nm.cell_bits, b) for b in dfam.masks])
    tags = (f"{prefix}I1", f"{prefix}I2", f"{prefix}I3")
    return _check_rough_given(check, order, picked, tags)


def check_rough_matroid_covering(covering: Covering, family: SetFamily) -> CheckReport:
    """Rough matroid over a covering: membership in the definable family,
    then the empty set, definable-subset heredity, and exchange."""
    return _check_on("rough-cov", neighborhoods_of_covering(covering), family, "C")


def check_lower_rough_matroid_covering(covering: Covering, family: SetFamily) -> CheckReport:
    """Lower rough matroid over a covering, on the definable family's own
    order: a definable X is the union of its elements' neighborhoods, so x
    in X gives N(x) inside X, and N(x) inside X gives x in X, as x is in
    N(x).  So lower(X) = X: every member is its own image."""
    return _check_on("lower-cov", neighborhoods_of_covering(covering), family, "L")


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
        note = f"family is not a rough matroid ({rough.failed_axiom} fails)"
        failure = AxiomFailure("precondition", dict(rough.witness), note=note)
        return CheckReport("matroid-cond", failures=(failure,))
    support = family.union_all()
    offending = neighborhoods_of_covering(covering).first_non_singleton(support.bits)
    is_matroid = check_matroid(covering.universe, family).passed
    singleton_support = offending is None
    failures = ()
    if is_matroid != singleton_support:
        witness = {"is_matroid": is_matroid, "singleton_neighborhoods": singleton_support}
        if offending is not None:
            witness["element"] = covering.universe.labels[offending]
        failures = (AxiomFailure("equivalence", witness, note="the two sides disagree"),)
    return CheckReport(
        "matroid-cond",
        failures=failures,
        details={
            "is_matroid": is_matroid,
            "singleton_neighborhoods_on_support": singleton_support,
            "support": support.notation(),
        },
    )
