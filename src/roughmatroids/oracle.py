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
import struct
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress
from operator import eq, or_
from string import ascii_lowercase
from typing import Collection, Sequence

from .core import (
    SCAN_LIMIT,
    BinaryRelation,
    Covering,
    SizeBoundError,
    Subset,
    Universe,
    bit_indices,
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
)
from .lattice import NotALatticeError, build_lattice, check_atomicity, check_lattice_laws
from .report import AxiomFailure, CheckReport

# Scan gates inside cross_check: past the first it raises SizeBoundError,
# above the others the triple and pair scans fall back to seeded sampling.
_SUBSET_SCAN_LIMIT = 12
_TRIPLE_SCAN_LIMIT = 40
_PAIR_SCAN_LIMIT = 64
_SAMPLED_TRIPLES = 4000
_SAMPLED_PAIRS = 2000
# Most sampled subfamilies one cross_check may draw.
MAX_TRIALS = 1 << 16


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds and reproducibility knobs for the exhaustive operations.

    ``max_family_base`` (the most definable sets ``enumerate`` scans every
    subfamily of) is capped at ``core.SCAN_LIMIT``, so no budget admits a
    scan of more than 2^SCAN_LIMIT indices.  ``cross_check``'s bound of 12
    elements is a module constant, not a budget field.
    """

    max_family_base: int = 18
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_family_base < 1 or self.trials < 1:
            raise ValueError("budget bounds must be positive")
        if (base := self.max_family_base) > SCAN_LIMIT:
            raise ValueError(f"max_family_base must be at most {SCAN_LIMIT}, got {base}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")


def _subfamily(dfam: SetFamily, mask: int) -> SetFamily:
    return dfam.subfamily(mask)


def _passing_masks(dfam: SetFamily, indices: range) -> list[int]:
    order = dfam.order
    tags = ("CI1", "CI2", "CI3")
    return [
        mask
        for mask in indices
        if _check_rough_given("rough-cov", order, mask, tags, stop_at_first=True).passed
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
    mask over the family's member order and, since only its verdict is
    read, stops at the first failed axiom; a ``SetFamily`` is built only
    for the indices that pass.  Workers number ``min(jobs, os.cpu_count())``:
    with one, or under 1,024 indices, the scan runs here; else the range is
    split once, one contiguous range per worker process over this family.
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
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or total - start < 1024:
        masks = _passing_masks(dfam, range(start, total))
    else:
        step = (total - start + workers - 1) // workers
        ranges = [range(a, min(a + step, total)) for a in range(start, total, step)]
        # imported here, so that a run without workers never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            chunks = pool.map(partial(_passing_masks, dfam), ranges)
        masks = [m for chunk in chunks for m in chunk]
    return [_subfamily(dfam, mask) for mask in masks]


def _submasks(bits: int) -> list[int]:
    subs = [0]
    rest = bits
    while rest:
        low = rest & -rest
        subs += [s | low for s in subs]
        rest &= rest - 1
    return subs


def is_matroid_masks(family: frozenset[int] | set[int]) -> bool:
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
    membership masks.  Exhaustive over every family, whose members are its
    index's set bits, so only sensible for n up to 4."""
    if n > 4:
        raise SizeBoundError("classical matroid enumeration is bounded at n = 4")
    out: set[frozenset[int]] = set()
    for fammask in range(1 << (1 << n)):
        family = frozenset(bit_indices(fammask))
        if is_matroid_masks(family):
            out.add(family)
    return out


def _default_labels(n: int) -> tuple[str, ...]:
    if n <= len(ascii_lowercase):
        return tuple(ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(1, n + 1))


def random_covering(n: int, density: float, seed: int) -> Covering:
    """A valid random covering; deterministic for a fixed seed.

    Blocks draw each element with the given density; empty draws get one
    random element, a repeated draw is kept once, and uncovered elements
    are patched with singletons.
    """
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = random.Random(seed)
    universe = Universe(_default_labels(n))
    draws: list[int] = []
    for _ in range(rng.randint(1, max(2, n))):
        bits = 0
        for i in range(n):
            if rng.random() < density:
                bits |= 1 << i
        draws.append(bits or 1 << rng.randrange(n))
    covered = reduce(or_, draws)
    # an uncovered element's singleton was never drawn, so each patch is a new block
    blocks = [*dict.fromkeys(draws), *(1 << i for i in range(n) if not covered >> i & 1)]
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
    """The ``count`` distinct indices below ``upper`` that one
    ``rng.randrange(upper)`` at a time picks, sorted, for count < upper <
    2^32.  randrange draws as choice does, and a draw adds at most one
    index, so a batch of as many draws as indices are missing never draws
    past where one draw at a time would stop."""
    picked: set[int] = set()
    while len(picked) < count:
        picked.update(_choice_indices(rng, upper, count - len(picked)))
    return sorted(picked)


def _choice_indices(rng: random.Random, n: int, count: int) -> list[int]:
    """The indices that ``count`` calls of ``rng.choice`` on a sequence of
    length n pick, drawn in batches and leaving rng in the same state.

    ``choice`` makes attempts of one 32-bit word each: it keeps the top
    ``n.bit_length()`` bits and rejects values of n or more.
    ``getrandbits(32 * m)`` returns the next m words with the first in the
    low bits, so a batch of as many words as indices are still needed
    never draws a word that ``choice`` would not have drawn.  n is below
    2^32: cross_check's 12-element bound keeps it at most 2^24.
    """
    shift = 32 - n.bit_length()
    limit = n << shift  # w >> shift < n exactly when w < limit
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += [w >> shift for w in struct.unpack(f"<{need}I", raw) if w < limit]
    return out


def _union_table(seeds: Sequence[int]) -> list[int]:
    """f(x) for every mask x below 2^len(seeds), indexed by x, for a map f
    with f(empty) = 0 and f(X | Y) = f(X) | f(Y), given seeds[j] = f({j}):
    each seed doubles the table, the new half holding x | {j}."""
    table = [0]
    for seed in seeds:
        table += [x | seed for x in table]
    return table


def _approximation_tables(cells: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The lower and the upper approximation of every subset, indexed by
    its mask, each doubled by ``_union_table`` from n seeds of its own
    function (see ``cross_check``); from the seeds full - lower(full - {j})
    it gives U[Y] = full - lower(full - Y), so lower(X) = full ^ U[full ^ X]."""
    n = len(cells)
    full = (1 << n) - 1
    comps = _union_table([full ^ lower_approx_bits(cells, full ^ 1 << j) for j in range(n)])
    ups = _union_table([upper_approx_bits(cells, 1 << j) for j in range(n)])
    return [full ^ u for u in reversed(comps)], ups


def _triple_laws_hold(a: int, b: int, c: int) -> bool:
    return ((a | b) | c) == (a | (b | c)) and (a | (a & b)) == a


def _extension_scan(
    family: SetFamily, cells: tuple[int, ...], indices: Sequence[int]
) -> tuple[bool, AxiomFailure | None]:
    """The one-point-extension criterion on the member pairs (i, j) =
    divmod(k, |D|) of the pair indices k, in their order: for each element
    e of the gap D2 - D1 (D1 member i, D2 member j), D1 plus e leaves the
    family exactly when e's neighborhood meets the gap less e.

    A pair (i, i) has an empty gap and agrees.  The addable elements are
    one mask per member.  The predicted ones of a gap are
    ``gap & others[gap]``: ``others[x]`` holds the elements e whose
    neighborhood meets x less e, doubled from the seeds upper({j}) - {j},
    so e need not lie in N(e).  A pair's mismatches are one XOR; the
    lowest is the first a walk over the gap meets.  Returns whether all
    pairs agreed, and the failure at the first pair with |D1| < |D2| that
    did not, where the scan stops.
    """
    masks = family.masks
    size = len(masks)
    present = family.bitset()
    full = (1 << len(cells)) - 1
    others = _union_table([upper_approx_bits(cells, 1 << j) & ~(1 << j) for j in range(len(cells))])
    addable = [sum(1 << e for e in bit_indices(full & ~x) if x | 1 << e in present) for x in masks]
    agreed = True
    for k in indices:
        i, j = divmod(k, size)
        gap = masks[j] & ~masks[i]
        wrong = (gap & ~addable[i]) ^ (gap & others[gap])
        if wrong:
            agreed = False
            if masks[i].bit_count() < masks[j].bit_count():
                d = family.universe.labels[(wrong & -wrong).bit_length() - 1]
                witness = {"D1": family.members[i], "D2": family.members[j], "d": d}
                return agreed, AxiomFailure("extension-biconditional", witness)
    return agreed, None


def _sample_family_masks(rng: random.Random, base: int, count: int) -> list[int]:
    if 1 << base <= count:
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
    sampled subfamilies, where only the verdicts are read, so both the
    plain kernel and ``check_ci3_prime(..., stop_at_first=True)`` stop at
    the first failure.  Atomicity of the definable-set lattice is reported
    informationally and never fails the suite.  A universe of more than
    12 elements raises ``SizeBoundError``; scans above the other fixed
    size gates fall back to sampling seeded from the budget.

    On covering input four stages check theorems.  A covering's
    neighborhood map is the successor map of a preorder (x before y when y
    lies in N(x)), and a set is definable exactly when it is a down-set of
    that preorder, that is, when it holds N(x) for each of its elements x:

    - closure: down-sets are closed under union and intersection;
    - lower-fixpoint equality: the lower approximation of X is the set of
      x with N(x) inside X, and X is fixed exactly when it is a down-set;
    - upper-fixpoint duality: the upper approximation is dual to the
      lower one, so its fixpoints are the complements of the down-sets;
    - extension biconditional: for e in D2 - D1, D1 + e is definable
      exactly when N(e) - e lies inside D1, and N(e) lies inside D2, so
      D1 + e is blocked exactly when N(e) meets D2 - D1 - e.

    They stay as differential checks between two implementations: the
    union-closure route that builds the definable family against the
    approximation table and the neighborhood cells.

    The duality scan and the two fixpoint sets read one table of each
    approximation over every subset, both doubled by ``_union_table`` from
    n seeds of its own function: upper from the singletons by upper(X | Y)
    = upper(X) | upper(Y), lower from the sets less one element by
    lower(X & Y) = lower(X) & lower(Y), through complements.  Neither table
    is built from the other, so duality still compares two routes on all
    2^n subsets.  The extension stage walks the pair indices (all |D|^2, or
    the sampled ones) and compares, per pair, the gap elements that cannot
    be added to D1 with those the neighborhoods predict (``_extension_scan``).
    """
    budget = budget or EnumerationBudget()
    n = covering.universe.size
    if n > _SUBSET_SCAN_LIMIT:
        raise SizeBoundError(
            f"cross-check needs full subset scans; {n} exceeds the scan "
            f"bound of {_SUBSET_SCAN_LIMIT}"
        )
    rng = random.Random(budget.seed)
    nm = neighborhoods_of_covering(covering)
    cells = nm.cell_bits
    full = (1 << n) - 1
    failures: list[AxiomFailure] = []
    details: dict = {"seed": budget.seed, "universe_size": n}

    def stage(key: str, found: Sequence[AxiomFailure], passed: str = "pass") -> None:
        """Record one stage: its failures, and its verdict under ``key``."""
        failures.extend(found)
        details[key] = "fail" if found else passed

    def least(axiom: str, sets: Collection[int]) -> list[AxiomFailure]:
        """The failure of ``axiom`` at the least of ``sets``, if any."""
        return [AxiomFailure(axiom, {"X": Subset(covering.universe, min(sets))})] if sets else []

    subsets = range(1 << n)
    lows, ups = _approximation_tables(cells)
    stage("duality", least("duality", [x for x in subsets if lows[x ^ full] != ups[x] ^ full]))

    dfam = definable_family(nm)
    details["definable_family_size"] = len(dfam)
    # build_lattice gates on check_closure, so its failures are the closure's
    try:
        diagram, closure = build_lattice(dfam), ()
    except NotALatticeError as exc:
        diagram, closure = None, exc.report.failures
    stage("closure", closure)

    dbits = dfam.bitset()
    fix_lower = frozenset(compress(subsets, map(eq, lows, subsets)))
    fix_upper = frozenset(compress(subsets, map(eq, ups, subsets)))
    stage("fixpoint_lower_equality", least("fixpoint-lower", fix_lower ^ dbits))
    # By duality the upper fixpoints are exactly the complements of the
    # definable sets; they coincide with the definable family itself only
    # when that family is complement-closed, so that coincidence is
    # reported as a finding rather than enforced as a law.
    complements = {b ^ full for b in dbits}
    stage("fixpoint_upper_duality", least("fixpoint-upper-duality", fix_upper ^ complements))
    stray = fix_upper ^ dbits
    details["upper_fixpoints_equal_definable"] = "fails" if stray else "holds"
    if stray:
        details["upper_fixpoint_witness"] = Subset(covering.universe, min(stray)).notation()

    if diagram is not None:
        if len(dfam) <= _TRIPLE_SCAN_LIMIT:
            stage("lattice_laws", check_lattice_laws(diagram).failures, "pass (exhaustive)")
        else:
            # The indices rng.choice(dfam.members) picks one at a time.  All
            # triples are drawn up front: no triple of ints fails these laws,
            # so a check that stopped drawing at a failure draws them all too.
            masks = dfam.masks
            picks = [masks[i] for i in _choice_indices(rng, len(masks), 3 * _SAMPLED_TRIPLES)]
            laws_ok = all(map(_triple_laws_hold, picks[0::3], picks[1::3], picks[2::3]))
            failed = AxiomFailure("lattice-laws", {}, note="sampled triple failed")
            stage("lattice_laws", () if laws_ok else (failed,), "pass (sampled)")
        atom = check_atomicity(diagram)
        details["atomicity"] = "holds" if atom.passed else "fails"
        details["atoms"] = atom.details["atoms"]
        if not atom.passed:
            details["atomicity_witness"] = atom.witness["member"].notation()

    size = len(dfam)
    if size <= _PAIR_SCAN_LIMIT:
        indices: Sequence[int] = range(size * size)
        details["extension_scan"] = "exhaustive"
    else:
        indices = _sample_distinct(rng, size * size, _SAMPLED_PAIRS)
        details["extension_scan"] = "sampled"
    gap_respected, ext_failure = _extension_scan(dfam, cells, indices)
    stage("extension_biconditional", [ext_failure] if ext_failure else [])
    details["extension_biconditional_without_size_gap"] = (
        "holds" if gap_respected else "fails"
    )

    disagreement = []
    sample_masks = _sample_family_masks(rng, len(dfam), budget.trials)
    for mask in sample_masks:
        plain = _check_rough_given(
            "rough-cov", dfam.order, mask, ("CI1", "CI2", "CI3"), stop_at_first=True
        )
        prime = check_ci3_prime(covering, _subfamily(dfam, mask), stop_at_first=True)
        if plain.passed != prime.passed:
            note = "the two exchange axiomatisations disagreed"
            disagreement = [AxiomFailure("ci3prime-agreement", {"subfamily_index": mask}, note=note)]
            break
    stage("ci3prime_agreement", disagreement)
    details["ci3prime_samples"] = len(sample_masks)

    return CheckReport("cross-check", failures=tuple(failures), details=details)
