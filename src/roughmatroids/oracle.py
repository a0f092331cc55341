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
from functools import partial
from itertools import compress, repeat
from operator import eq
from string import ascii_lowercase
from typing import Collection, Iterable, Sequence

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

# Scan gates inside cross_check: above these sizes the triple and pair
# scans fall back to seeded sampling.
_TRIPLE_SCAN_LIMIT = 40
_PAIR_SCAN_LIMIT = 64
_SAMPLED_TRIPLES = 4000
_SAMPLED_PAIRS = 2000
# Most sampled subfamilies one cross_check may draw.
MAX_TRIALS = 1 << 16


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds and reproducibility knobs for the exhaustive operations.

    ``max_scan_size`` (the most elements ``cross_check`` scans every subset
    of) and ``max_family_base`` (the most definable sets ``enumerate``
    scans every subfamily of) are both capped at ``core.SCAN_LIMIT``, so
    no budget admits a scan of more than 2^SCAN_LIMIT indices.
    """

    max_scan_size: int = 12
    max_family_base: int = 18
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_scan_size < 1 or self.max_family_base < 1 or self.trials < 1:
            raise ValueError("budget bounds must be positive")
        for name in ("max_scan_size", "max_family_base"):
            if getattr(self, name) > SCAN_LIMIT:
                raise ValueError(
                    f"{name} must be at most {SCAN_LIMIT}, got {getattr(self, name)}"
                )
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")


def _subfamily(dfam: SetFamily, mask: int) -> SetFamily:
    return dfam.subfamily(mask)


def _passing_masks(covering: Covering, indices: range) -> list[int]:
    order = definable_family(neighborhoods_of_covering(covering)).order
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
    for the indices that pass.  With ``jobs`` greater than one the index
    range is split into at most ``jobs`` ranges, which the serial scan runs
    over in at most ``os.cpu_count()`` worker processes, merged in order.
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
        masks = _passing_masks(covering, range(start, total))
    else:
        step = (total - start + jobs - 1) // jobs
        ranges = [range(a, min(a + step, total)) for a in range(start, total, step)]
        workers = min(jobs, len(ranges), os.cpu_count() or 1)
        # imported here, so that a run without workers never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(partial(_passing_masks, covering), ranges)
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
        if upper >> 32:
            picked.add(rng.randrange(upper))
        else:
            # randrange draws as choice does, and a draw adds at most one
            # index, so a batch of as many draws as indices are missing
            # never draws past where one draw at a time would stop
            picked.update(_choice_indices(rng, upper, count - len(picked)))
    return sorted(picked)


def _choice_indices(rng: random.Random, n: int, count: int) -> list[int]:
    """The indices that ``count`` calls of ``rng.choice`` on a sequence of
    length n pick, drawn in batches and leaving rng in the same state.

    ``choice`` makes attempts of one 32-bit word each: it keeps the top
    ``n.bit_length()`` bits and rejects values of n or more.
    ``getrandbits(32 * m)`` returns the next m words with the first in the
    low bits, so a batch of as many words as indices are still needed
    never draws a word that ``choice`` would not have drawn.  n must be
    below 2^32.
    """
    shift = 32 - n.bit_length()
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += [r for w in struct.unpack(f"<{need}I", raw) if (r := w >> shift) < n]
    return out


def _triple_laws_hold(a: int, b: int, c: int) -> bool:
    return ((a | b) | c) == (a | (b | c)) and (a | (a & b)) == a


def _extension_scan(
    family: SetFamily, cells: tuple[int, ...], pairs: Iterable[tuple[int, int]]
) -> tuple[bool, AxiomFailure | None]:
    """The one-point-extension criterion on member pairs (i, j): for each
    element e of the gap D2 - D1 (D1 member i, D2 member j), D1 plus e
    leaves the family exactly when e's neighborhood meets the gap less e.

    The elements that can be added to each member, and the predicted ones
    of each distinct gap, are masks computed once, so a pair's mismatches
    are one XOR; the lowest is the first a walk over the gap meets.
    Returns whether all pairs agreed, and the failure at the first pair
    with |D1| < |D2| that did not, where the scan stops.
    """
    masks = family.masks
    present = family.bitset()
    full = (1 << len(cells)) - 1
    agreed = True
    addable: dict[int, int] = {}
    predicted: dict[int, int] = {}
    for i, j in pairs:
        gap = masks[j] & ~masks[i]
        if i not in addable:
            x = masks[i]
            addable[i] = sum(1 << e for e in bit_indices(full & ~x) if x | 1 << e in present)
        if gap not in predicted:
            predicted[gap] = sum(1 << e for e in bit_indices(gap) if gap & ~(1 << e) & cells[e])
        wrong = (gap & ~addable[i]) ^ predicted[gap]
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
    informationally and never fails the suite.  Scans above the internal
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

    Both approximations of every subset are computed once, into one table
    that the duality scan and the two fixpoint sets read.  The extension
    criterion compares, per pair, the gap elements that cannot be added to
    D1 with those the neighborhoods predict, as masks (``_extension_scan``).
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

    def stage(key: str, found: Sequence[AxiomFailure], passed: str = "pass") -> None:
        """Record one stage: its failures, and its verdict under ``key``."""
        failures.extend(found)
        details[key] = "fail" if found else passed

    def least(axiom: str, sets: Collection[int]) -> list[AxiomFailure]:
        """The failure of ``axiom`` at the least of ``sets``, if any."""
        return [AxiomFailure(axiom, {"X": Subset(covering.universe, min(sets))})] if sets else []

    # One table of both approximations serves duality and the fixpoints.
    subsets = range(1 << n)
    lows = [lower_approx_bits(cells, x) for x in subsets]
    ups = [upper_approx_bits(cells, x) for x in subsets]
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
        indices: Iterable[int] = range(size * size)
        details["extension_scan"] = "exhaustive"
    else:
        indices = _sample_distinct(rng, size * size, _SAMPLED_PAIRS)
        details["extension_scan"] = "sampled"
    pairs = ((i, j) for i, j in map(divmod, indices, repeat(size)) if i != j)
    gap_respected, ext_failure = _extension_scan(dfam, cells, pairs)
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
