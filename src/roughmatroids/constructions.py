"""Constructions over rough matroids: uniform families, one-point
extensions, disjoint sums, direct sums, and the equal-cardinality exchange
axiom.

The disjoint sum of two coverings is realised as the union of the two block
lists over the merged universe.  That choice keeps each element's
neighborhood unchanged (blocks from the other side never contain it), which
in turn makes the definable family of the sum exactly the pairwise-union
combination of the component definable families; both facts are part of the
tested law suite.
"""

from __future__ import annotations

from .core import (
    Covering,
    LawViolationError,
    Subset,
    Universe,
    neighborhoods_of_covering,
    require_same_universe,
)
from .axioms import (
    check_matroid,
    check_rough_matroid_covering,
    definability_report,
    _check_rough_given,
)
from .definable import SetFamily, definable_family
from .report import AxiomFailure, CheckReport


def uniform_family(covering: Covering, r: int) -> SetFamily:
    """All definable sets of cardinality at most r, for 1 <= r <= n; at
    r = n that is the whole definable family."""
    n = covering.universe.size
    if not 1 <= r <= n:
        raise ValueError(f"rank bound r={r} outside the range 1 <= r <= {n}")
    dfam = definable_family(neighborhoods_of_covering(covering))
    return SetFamily(covering.universe, tuple(b for b in dfam.masks if b.bit_count() <= r))


def check_uniform_proposition(covering: Covering, r: int) -> CheckReport:
    """Evaluate the uniform-family laws for one covering and bound.

    Checks that singleton neighborhoods everywhere imply the uniform family
    is a rough matroid (a sufficient condition only), and that the uniform
    family is a classical matroid exactly when every element it touches has
    a singleton neighborhood.  The singleton condition over the whole
    universe and over the family's support are both reported.
    """
    nm = neighborhoods_of_covering(covering)
    dfam = definable_family(nm)  # held: uniform_family and the check below reuse it
    family = uniform_family(covering, r)
    singleton_everywhere = nm.first_non_singleton((1 << covering.universe.size) - 1) is None
    singleton_support = nm.first_non_singleton(family.union_all().bits) is None
    rough = check_rough_matroid_covering(covering, family).passed
    matroid = check_matroid(covering.universe, family).passed

    failures: list[AxiomFailure] = []
    if singleton_everywhere and not rough:
        failures.append(
            AxiomFailure(
                "singleton-implies-rough",
                {"r": r},
                note="all neighborhoods are singletons yet the uniform family fails",
            )
        )
    if matroid != singleton_support:
        failures.append(
            AxiomFailure(
                "matroid-iff-singleton-support",
                {"r": r, "is_matroid": matroid, "singleton_support": singleton_support},
            )
        )
    notes = ""
    if rough and not singleton_everywhere:
        notes = "rough matroid without singleton neighborhoods: the condition is sufficient only"
    return CheckReport(
        "uniform",
        failures=tuple(failures),
        notes=notes,
        details={
            "r": r,
            "singleton_neighborhoods_everywhere": singleton_everywhere,
            "singleton_neighborhoods_on_support": singleton_support,
            "is_rough_matroid": rough,
            "is_matroid": matroid,
            "family_size": len(family),
        },
    )


def extension_sides(covering: Covering, d1: Subset, d2: Subset, idx: int) -> tuple[bool, bool]:
    """Both sides of the one-point-extension criterion, unvalidated.

    Returns (blocked, predicted) for the element at universe index ``idx``:
    whether d1 plus it leaves the definable family, and whether some other
    element of d2 - d1 lies in its neighborhood.
    """
    nm = neighborhoods_of_covering(covering)
    dfam = definable_family(nm)
    blocked = d1.bits | (1 << idx) not in dfam.bitset()
    gap = d2.bits & ~d1.bits & ~(1 << idx)
    predicted = gap & nm.cell_bits[idx] != 0
    return blocked, predicted


def one_point_extension_blocked(covering: Covering, d1: Subset, d2: Subset, element: str) -> bool:
    """Whether adding one element of d2 - d1 to d1 leaves the definable
    family.

    Validates that d1 and d2 lie on the covering's universe (raising
    ``UniverseMismatchError`` otherwise) and are definable, and that the
    element lies in d2 - d1.  No cardinality gap between d1 and d2 is
    required, since neither direction of the criterion uses one.
    Both the membership test and the neighborhood criterion are computed,
    and their agreement is asserted.
    """
    dfam = definable_family(neighborhoods_of_covering(covering))
    for name, d in (("d1", d1), ("d2", d2)):
        require_same_universe(covering, d)
        if d not in dfam:
            raise ValueError(f"{name}={d.notation()} is not definable")
    idx = covering.universe.index(element)
    if not (d2.bits >> idx) & 1 or (d1.bits >> idx) & 1:
        raise ValueError(f"element {element!r} must lie in d2 - d1")
    blocked, predicted = extension_sides(covering, d1, d2, idx)
    if blocked != predicted:
        raise LawViolationError(
            "one-point-extension criterion disagreed with the membership test "
            f"for d1={d1.notation()}, d2={d2.notation()}, element={element!r}"
        )
    return blocked


def merge_universes(u1: Universe, u2: Universe) -> Universe:
    overlap = set(u1.labels) & set(u2.labels)
    if overlap:
        raise ValueError(f"universes share labels: {sorted(overlap)}")
    return Universe(u1.labels + u2.labels)


def family_disjoint_sum(f1: SetFamily, f2: SetFamily) -> SetFamily:
    """All pairwise unions of members, over the merged universe."""
    merged = merge_universes(f1.universe, f2.universe)
    offset = f1.universe.size
    return SetFamily(merged, tuple(a | b << offset for a in f1.masks for b in f2.masks))


def covering_disjoint_sum(c1: Covering, c2: Covering) -> Covering:
    """Union of the two block lists over the merged universe."""
    merged = merge_universes(c1.universe, c2.universe)
    offset = c1.universe.size
    blocks = [Subset(merged, b.bits) for b in c1.blocks]
    blocks += [Subset(merged, b.bits << offset) for b in c2.blocks]
    return Covering(merged, tuple(blocks))


def direct_sum(
    c1: Covering, f1: SetFamily, c2: Covering, f2: SetFamily
) -> tuple[Covering, SetFamily, CheckReport]:
    """Direct sum of two rough matroids on label-disjoint universes.

    Each summand must itself be a rough matroid over its covering; the
    summed covering, the pairwise-union family, and the rough-matroid
    verdict on the sum are returned.
    """
    for covering, family, side in ((c1, f1, "first"), (c2, f2, "second")):
        if covering.universe != family.universe:
            raise ValueError(f"{side} summand: covering and family universes differ")
        report = check_rough_matroid_covering(covering, family)
        if not report.passed:
            raise ValueError(
                f"{side} summand is not a rough matroid ({report.failed_axiom} fails)"
            )
    summed_cov = covering_disjoint_sum(c1, c2)
    summed_fam = family_disjoint_sum(f1, f2)
    return summed_cov, summed_fam, check_rough_matroid_covering(summed_cov, summed_fam)


def check_ci3_prime(
    covering: Covering, family: SetFamily, *, stop_at_first: bool = False
) -> CheckReport:
    """Alternative exchange axiom: inside every definable set, the maximal
    family members it contains share one cardinality.

    Verifies the empty set and definable-subset heredity exactly as the
    plain rough-matroid checker does, then the equal-cardinality condition
    in place of the exchange axiom.  The two checkers' verdicts agreeing on
    every input is part of the tested law suite.

    The maximal members inside a definable set d come from
    ``MemberOrder.maximal``, which reads them off the order contract of
    ``SetFamily``; the witness is read off them lowest first.

    Two kinds of d cannot fail and are skipped before the walk: a d that
    is itself picked, which is its own only maximal member, and a d whose
    picked members all have the size of the smallest of them (none of
    them is larger), since members of one size are all maximal.

    ``stop_at_first`` returns at the first failure, witness included: the
    kernel's CI1 or CI2 failure before the walk, or else the CI3' witness,
    so the report is the full one cut to its first failure.  It is the
    third verdict-only run, after enumeration's and the plain kernel's in
    ``cross_check``'s CI3' agreement stage, which sets it too.
    """
    dfam = definable_family(neighborhoods_of_covering(covering))
    picked = dfam.index_mask(family)
    if picked is None:
        return definability_report("ci3prime", dfam, family)
    order = dfam.order
    tags = ("CI1", "CI2", "CI3")
    base = _check_rough_given(
        "ci3prime", order, picked, tags, include_exchange=False, stop_at_first=stop_at_first
    )
    if stop_at_first and not base.passed:
        return base
    failures = list(base.failures)
    members = order.members
    below, larger, sizes = order.below, order.larger, order.sizes
    for d in range(len(members)):
        rest = below[d] & picked
        if not rest or picked >> d & 1:
            continue
        if not rest & larger[sizes[(rest & -rest).bit_length() - 1]]:
            continue
        maximal = order.maximal(rest)[::-1]
        size = sizes[maximal[0]]
        other = next((j for j in maximal if sizes[j] != size), None)
        if other is not None:
            witness = {"D": members[d], "I1": members[maximal[0]], "I2": members[other]}
            failures.append(AxiomFailure("CI3'", witness))
            break
    return CheckReport("ci3prime", failures=tuple(failures))
