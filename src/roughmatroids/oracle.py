"""Brute-force oracles, exhaustive enumeration, and the bundled law suite.

The enumerators here ground the rest of the package: rough matroids are
enumerated by running the real checker over every subfamily of the
definable family, classical matroids by an independent raw-mask
implementation of the three independence axioms that shares no code with
the checker module.  Random structures are generated from explicit seeds
only; every report records the seed it was produced with.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from string import ascii_lowercase

from .core import (
    BinaryRelation,
    Covering,
    SizeBoundError,
    Subset,
    Universe,
    lower_approx_bits,
    neighborhoods_of_covering,
    upper_approx_bits,
)
from .axioms import _check_rough_given
from .constructions import check_ci3_prime
from .definable import (
    SetFamily,
    check_closure,  # unused here; the benchmark tracer wraps it by this name
    definable_family,
    fixpoint_family_lower,
    fixpoint_family_upper,
)
from .lattice import NotALatticeError, build_lattice, check_atomicity, check_lattice_laws
from .report import AxiomFailure, CheckReport

# Scan gates inside cross_check: above these sizes the triple and pair
# scans fall back to seeded sampling.
_TRIPLE_SCAN_LIMIT = 40
_PAIR_SCAN_LIMIT = 64
_SAMPLED_TRIPLES = 4000
_SAMPLED_PAIRS = 2000


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds and reproducibility knobs for the exhaustive operations."""

    max_scan_size: int = 12
    max_family_base: int = 18
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_scan_size < 1 or self.max_family_base < 1 or self.trials < 1:
            raise ValueError("budget bounds must be positive")


def _subfamily(dfam: SetFamily, mask: int) -> SetFamily:
    members = tuple(m for i, m in enumerate(dfam.members) if (mask >> i) & 1)
    return SetFamily(dfam.universe, members)


def _passing_masks(covering: Covering, start: int, stop: int) -> list[int]:
    order = definable_family(neighborhoods_of_covering(covering)).order
    tags = ("CI1", "CI2", "CI3")
    return [
        mask
        for mask in range(start, stop)
        if _check_rough_given("rough-cov", order, mask, tags).passed
    ]


def enumerate_rough_matroids(
    covering: Covering,
    budget: EnumerationBudget | None = None,
    start: int = 0,
    jobs: int = 1,
) -> list[SetFamily]:
    """Every subfamily of the definable family passing the rough-matroid
    check, in ascending subfamily-index order.

    The subfamily index is the bit mask selecting members of the definable
    family in canonical order, so partial runs can resume from ``start``,
    which must lie in ``0..2**|D|``.  The kernel checks each index as a
    mask over the family's member order; a ``SetFamily`` is built only
    for the indices that pass.  With ``jobs`` greater than one the index
    range is split into at most ``jobs`` ranges, scanned by at most
    ``os.cpu_count()`` worker processes and merged back in order.
    """
    budget = budget or EnumerationBudget()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    dfam = definable_family(neighborhoods_of_covering(covering))
    base = len(dfam)
    if base > budget.max_family_base:
        raise SizeBoundError(
            f"definable family has {base} members; enumeration is bounded "
            f"at {budget.max_family_base}"
        )
    total = 1 << base
    if not 0 <= start <= total:
        raise ValueError(f"start must lie in 0..{total} (2^{base}), got {start}")
    if jobs == 1 or total - start < 1024:
        masks = _passing_masks(covering, start, total)
    else:
        step = (total - start + jobs - 1) // jobs
        ranges = [(a, min(a + step, total)) for a in range(start, total, step)]
        workers = min(jobs, len(ranges), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_passing_masks_star, [(covering, a, b) for a, b in ranges])
        masks = [m for chunk in chunks for m in chunk]
    return [_subfamily(dfam, mask) for mask in masks]


def _passing_masks_star(args) -> list[int]:
    return _passing_masks(*args)


def _submasks(bits: int) -> list[int]:
    subs = [0]
    rest = bits
    while rest:
        low = rest & -rest
        subs += [s | low for s in subs]
        rest &= rest - 1
    return subs


def is_matroid_masks(family: frozenset[int] | set[int], n: int) -> bool:
    """Raw-mask implementation of the three independence axioms; kept
    independent of the checker module on purpose."""
    if 0 not in family:
        return False
    for m in family:
        for s in _submasks(m):
            if s not in family:
                return False
    by_size: dict[int, list[int]] = {}
    for m in family:
        by_size.setdefault(m.bit_count(), []).append(m)
    sizes = sorted(by_size)
    for k1 in sizes:
        for k2 in sizes:
            if k1 >= k2:
                continue
            for i1 in by_size[k1]:
                for i2 in by_size[k2]:
                    gap = i2 & ~i1
                    ok = False
                    while gap:
                        low = gap & -gap
                        if (i1 | low) in family:
                            ok = True
                            break
                        gap &= gap - 1
                    if not ok:
                        return False
    return True


def classical_matroids(n: int) -> set[frozenset[int]]:
    """All classical matroids on n labelled elements, as families of
    membership masks.  Exhaustive over every subset family, so only
    sensible for n up to 4."""
    if n > 4:
        raise SizeBoundError("classical matroid enumeration is bounded at n = 4")
    subsets = list(range(1 << n))
    out: set[frozenset[int]] = set()
    for fammask in range(1 << len(subsets)):
        family = frozenset(s for i, s in enumerate(subsets) if (fammask >> i) & 1)
        if is_matroid_masks(family, n):
            out.add(family)
    return out


def _default_labels(n: int) -> tuple[str, ...]:
    if n <= len(ascii_lowercase):
        return tuple(ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(1, n + 1))


def random_covering(n: int, density: float, seed: int) -> Covering:
    """A valid random covering; deterministic for a fixed seed.

    Blocks draw each element with the given density; empty draws get one
    random element, and uncovered elements are patched with singletons.
    """
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = random.Random(seed)
    universe = Universe(_default_labels(n))
    nblocks = rng.randint(1, max(2, n))
    seen: set[int] = set()
    blocks: list[int] = []
    for _ in range(nblocks):
        bits = 0
        for i in range(n):
            if rng.random() < density:
                bits |= 1 << i
        if bits == 0:
            bits = 1 << rng.randrange(n)
        if bits not in seen:
            seen.add(bits)
            blocks.append(bits)
    covered = 0
    for b in blocks:
        covered |= b
    for i in range(n):
        patch = 1 << i
        if not (covered >> i) & 1 and patch not in seen:
            seen.add(patch)
            blocks.append(patch)
            covered |= patch
    return Covering(universe, tuple(Subset(universe, b) for b in blocks))


def random_relation(n: int, density: float, seed: int) -> BinaryRelation:
    """A random binary relation; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    universe = Universe(_default_labels(n))
    pairs = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.random() < density
    )
    return BinaryRelation(universe, pairs)


def _sample_distinct(rng: random.Random, upper: int, count: int) -> list[int]:
    if upper <= count:
        return list(range(upper))
    picked: set[int] = set()
    while len(picked) < count:
        picked.add(rng.randrange(upper))
    return sorted(picked)


def _sample_family_masks(rng: random.Random, base: int, count: int) -> list[int]:
    if base <= 20 and (1 << base) <= count:
        return list(range(1 << base))
    picked: set[int] = set()
    while len(picked) < count:
        picked.add(rng.getrandbits(base))
    return sorted(picked)


def cross_check(covering: Covering, budget: EnumerationBudget | None = None) -> CheckReport:
    """Run the full law suite for one covering and aggregate the verdicts.

    Covers operator duality over every subset, closure of the definable
    family, the fixpoint characterisations of definability, the lattice
    laws, the one-point-extension criterion (with and without the
    cardinality gap), and agreement of the two exchange axiomatisations on
    sampled subfamilies.  Atomicity of the definable-set lattice is
    reported informationally and never fails the suite.  Scans above the
    internal size gates fall back to sampling seeded from the budget.
    """
    budget = budget or EnumerationBudget()
    n = covering.universe.size
    if n > budget.max_scan_size:
        raise SizeBoundError(
            f"cross-check needs full subset scans; {n} exceeds the budget "
            f"bound of {budget.max_scan_size}"
        )
    rng = random.Random(budget.seed)
    nm = neighborhoods_of_covering(covering)
    cells = nm.cell_bits
    full = (1 << n) - 1
    failures: list[AxiomFailure] = []
    details: dict = {"seed": budget.seed, "universe_size": n}

    duality_ok = True
    for xbits in range(1 << n):
        if lower_approx_bits(cells, xbits ^ full) != upper_approx_bits(cells, xbits) ^ full:
            duality_ok = False
            failures.append(AxiomFailure("duality", {"X": Subset(covering.universe, xbits)}))
            break
    details["duality"] = "pass" if duality_ok else "fail"

    dfam = definable_family(nm)
    details["definable_family_size"] = len(dfam)
    # build_lattice gates on check_closure, so its failures are the closure's
    try:
        diagram = build_lattice(dfam)
    except NotALatticeError as exc:
        diagram = None
        failures.extend(exc.report.failures)
    details["closure"] = "pass" if diagram is not None else "fail"

    dbits = dfam.bitset()
    fix_lower = fixpoint_family_lower(nm).bitset()
    fix_upper = fixpoint_family_upper(nm).bitset()
    fix_ok = fix_lower == dbits
    if not fix_ok:
        odd = min(fix_lower ^ dbits)
        failures.append(
            AxiomFailure("fixpoint-lower", {"X": Subset(covering.universe, odd)})
        )
    details["fixpoint_lower_equality"] = "pass" if fix_ok else "fail"
    # By duality the upper fixpoints are exactly the complements of the
    # definable sets; they coincide with the definable family itself only
    # when that family is complement-closed, so that coincidence is
    # reported as a finding rather than enforced as a law.
    upper_dual_ok = fix_upper == {b ^ full for b in dbits}
    if not upper_dual_ok:
        odd = min(fix_upper ^ {b ^ full for b in dbits})
        failures.append(
            AxiomFailure("fixpoint-upper-duality", {"X": Subset(covering.universe, odd)})
        )
    details["fixpoint_upper_duality"] = "pass" if upper_dual_ok else "fail"
    details["upper_fixpoints_equal_definable"] = (
        "holds" if fix_upper == dbits else "fails"
    )
    if fix_upper != dbits:
        details["upper_fixpoint_witness"] = Subset(
            covering.universe, min(fix_upper ^ dbits)
        ).notation()
    fix_ok = fix_ok and upper_dual_ok

    if diagram is not None:
        if len(dfam) <= _TRIPLE_SCAN_LIMIT:
            laws = check_lattice_laws(diagram)
            laws_ok = laws.passed
            if not laws.passed:
                failures.extend(laws.failures)
            details["lattice_laws"] = "pass (exhaustive)" if laws_ok else "fail"
        else:
            laws_ok = True
            mem = dfam.members
            for _ in range(_SAMPLED_TRIPLES):
                a, b, c = (rng.choice(mem).bits for _ in range(3))
                if ((a | b) | c) != (a | (b | c)) or (a | (a & b)) != a:
                    laws_ok = False
                    failures.append(AxiomFailure("lattice-laws", {}, note="sampled triple failed"))
                    break
            details["lattice_laws"] = "pass (sampled)" if laws_ok else "fail"
        atom = check_atomicity(diagram)
        details["atomicity"] = "holds" if atom.passed else "fails"
        details["atoms"] = atom.details["atoms"]
        if not atom.passed:
            details["atomicity_witness"] = atom.witness["member"].notation()

    ext_ok = True
    gap_respected = True
    mem = dfam.members
    npairs = len(mem) * len(mem)
    if len(mem) <= _PAIR_SCAN_LIMIT:
        pairs = ((d1, d2) for d1 in mem for d2 in mem if d1.bits != d2.bits)
        details["extension_scan"] = "exhaustive"
    else:
        sampled = _sample_distinct(rng, npairs, _SAMPLED_PAIRS)
        pairs = (
            (mem[k // len(mem)], mem[k % len(mem)])
            for k in sampled
            if mem[k // len(mem)].bits != mem[k % len(mem)].bits
        )
        details["extension_scan"] = "sampled"
    for d1, d2 in pairs:
        gap_bits = d2.bits & ~d1.bits
        rest = gap_bits
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            blocked = not dfam.contains_bits(d1.bits | (1 << i))
            predicted = gap_bits & ~(1 << i) & cells[i] != 0
            if blocked != predicted:
                gap_respected = False
                if len(d1) < len(d2):
                    ext_ok = False
                    failures.append(
                        AxiomFailure(
                            "extension-biconditional",
                            {"D1": d1, "D2": d2, "d": covering.universe.labels[i]},
                        )
                    )
                break
        if not ext_ok:
            break
    details["extension_biconditional"] = "pass" if ext_ok else "fail"
    details["extension_biconditional_without_size_gap"] = (
        "holds" if gap_respected else "fails"
    )

    agree_ok = True
    sample_masks = _sample_family_masks(rng, len(dfam), budget.trials)
    for mask in sample_masks:
        plain = _check_rough_given("rough-cov", dfam.order, mask, ("CI1", "CI2", "CI3"))
        prime = check_ci3_prime(covering, _subfamily(dfam, mask))
        if plain.passed != prime.passed:
            agree_ok = False
            failures.append(
                AxiomFailure(
                    "ci3prime-agreement",
                    {"subfamily_index": mask},
                    note="the two exchange axiomatisations disagreed",
                )
            )
            break
    details["ci3prime_agreement"] = "pass" if agree_ok else "fail"
    details["ci3prime_samples"] = len(sample_masks)

    passed = duality_ok and diagram is not None and laws_ok and fix_ok and ext_ok and agree_ok
    return CheckReport("cross-check", passed=passed, failures=tuple(failures), details=details)
