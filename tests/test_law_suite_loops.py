"""Differential tests for the law suite's loops on member masks.

Each loop is compared with a copy, kept here, of the loop it replaced:

- the sampled lattice-law triples, drawn one ``rng.choice`` at a time,
  and the sampled extension pairs, one ``rng.randrange`` at a time, alone
  and inside ``cross_check`` up to the sampler that follows each;
- the subfamily selection through the validating ``SetFamily``
  constructor;
- the lattice-law scan, one index tuple per combination;
- the CI3' maximality test of each member inside a definable set against
  every member above it, and the top-down walk over every definable set
  that replaced it before the walk skipped the sets that cannot fail;
- the neighborhood map, rebuilt from the blocks on every call;
- the extension criterion walked one gap element at a time, with one
  membership test per element;
- the closure gate that combined every pair of members, kept in
  ``support`` as ``pair_scan_closure``.

The replacements must give the same values, the same witnesses and, for
the draws, leave the generator in the same state.  The lattice-law scans
are also run on stand-in masks whose ``|`` or ``&`` is wrong on one pair,
since Python ints never fail the laws.  The approximation tables, doubled
from n seeds each, are compared with the per-subset definitions.
"""

from __future__ import annotations

import pickle
import random
from itertools import product
from types import SimpleNamespace

import pytest

from roughmatroids import (
    Covering,
    EnumerationBudget,
    SetFamily,
    Subset,
    Universe,
    check_ci3_prime,
    cross_check,
    definable_family,
    neighborhoods_of_covering,
    random_covering,
)
from roughmatroids import definable, oracle
from roughmatroids.axioms import _check_rough_given, definability_report
from roughmatroids.core import NeighborhoodMap, lower_approx_bits, upper_approx_bits
from roughmatroids.definable import _closure_bits, check_closure
from roughmatroids.lattice import _LAWS, _first_law_failure
from roughmatroids.oracle import (
    _SAMPLED_PAIRS,
    _SAMPLED_TRIPLES,
    _approximation_tables,
    _choice_indices,
    _extension_scan,
    _sample_distinct,
    _union_table,
)
from roughmatroids.report import AxiomFailure, CheckReport
from support import hex_covering, pair_scan_closure, preorder_coverings, small_neighborhood_maps
from test_crosscheck_identity import _cases, _lawsuite_cases
from test_report_identity import _coverings

DRAW_SIZES = (1, 2, 3, 41, 320, 1 << 20)


# --- the loops as they were ---------------------------------------------------


def choice_triples(rng, mem, count):
    """The sampled triples, one ``rng.choice`` per member."""
    return [tuple(rng.choice(mem) for _ in range(3)) for _ in range(count)]


def one_at_a_time_distinct(rng, upper, count):
    """The sampled extension pairs, one ``rng.randrange`` per draw."""
    if upper <= count:
        return list(range(upper))
    picked = set()
    while len(picked) < count:
        picked.add(rng.randrange(upper))
    return sorted(picked)


def validated_subfamily(dfam, mask):
    """The selected members, through the validating constructor."""
    masks = tuple(b for i, b in enumerate(dfam.masks) if mask >> i & 1)
    return SetFamily(dfam.universe, masks)


# The lattice laws over pairs and triples, one call per combination of
# member masks.
LAW_HOLDS = {
    "P2-commutativity": lambda a, b: (a | b) == (b | a) and (a & b) == (b & a),
    "P3-associativity": lambda a, b, c: ((a | b) | c) == (a | (b | c))
    and ((a & b) & c) == (a & (b & c)),
    "P4-absorption": lambda a, b: (a | (a & b)) == a and (a & (a | b)) == a,
}


def scan_first_law_failure(members, axiom, arity, holds):
    for combo in product(range(len(members)), repeat=arity):
        if not holds(*(members[i].bits for i in combo)):
            names = ("a", "b", "c")[:arity]
            return AxiomFailure(axiom, dict(zip(names, (members[i] for i in combo))))
    return None


def above_ci3_prime(covering, family):
    """CI3' with each member inside d tested against the members above it."""
    dfam = definable_family(neighborhoods_of_covering(covering))
    picked = dfam.index_mask(family)
    if picked is None:
        return definability_report("ci3prime", dfam, family)
    order = dfam.order
    base = _check_rough_given(
        "ci3prime", order, picked, ("CI1", "CI2", "CI3"), include_exchange=False
    )
    failures = list(base.failures)
    members = order.members
    for d in range(len(members)):
        inside = order.below[d] & picked
        maximal = []
        rest = inside
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if not order.over[order.images[j]] & order.larger[order.sizes[j]] & inside:
                maximal.append(j)
        size = order.sizes[maximal[0]] if maximal else 0
        other = next((j for j in maximal if order.sizes[j] != size), None)
        if other is not None:
            witness = {"D": members[d], "I1": members[maximal[0]], "I2": members[other]}
            failures.append(AxiomFailure("CI3'", witness))
            break
    return CheckReport("ci3prime", failures=tuple(failures))


def topdown_ci3_prime(covering, family):
    """CI3' with the maximal members of every definable set found by the
    top-down walk, no set skipped."""
    dfam = definable_family(neighborhoods_of_covering(covering))
    picked = dfam.index_mask(family)
    if picked is None:
        return definability_report("ci3prime", dfam, family)
    order = dfam.order
    base = _check_rough_given(
        "ci3prime", order, picked, ("CI1", "CI2", "CI3"), include_exchange=False
    )
    failures = list(base.failures)
    members = order.members
    below = order.below
    for d in range(len(members)):
        maximal = []
        rest = below[d] & picked
        while rest:
            j = rest.bit_length() - 1
            maximal.append(j)
            rest &= ~below[j]
        maximal.reverse()
        size = order.sizes[maximal[0]] if maximal else 0
        other = next((j for j in maximal if order.sizes[j] != size), None)
        if other is not None:
            witness = {"D": members[d], "I1": members[maximal[0]], "I2": members[other]}
            failures.append(AxiomFailure("CI3'", witness))
            break
    return CheckReport("ci3prime", failures=tuple(failures))


def walk_extension_scan(family, cells, pairs):
    """The extension criterion, one membership test per gap element."""
    mem = family.members
    gap_respected = True
    for i, j in pairs:
        d1, d2 = mem[i], mem[j]
        gap_bits = d2.bits & ~d1.bits
        rest = gap_bits
        while rest:
            e = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            blocked = d1.bits | (1 << e) not in family.bitset()
            predicted = gap_bits & ~(1 << e) & cells[e] != 0
            if blocked != predicted:
                gap_respected = False
                if len(d1) < len(d2):
                    d = family.universe.labels[e]
                    witness = {"D1": d1, "D2": d2, "d": d}
                    return gap_respected, AxiomFailure("extension-biconditional", witness)
                break
    return gap_respected, None


def blocks_neighborhoods(covering):
    u = covering.universe
    full = (1 << u.size) - 1
    cells = []
    for i in range(u.size):
        bits = full
        for blk in covering.blocks:
            if (blk.bits >> i) & 1:
                bits &= blk.bits
        cells.append(bits)
    return NeighborhoodMap(u, tuple(cells))


# --- sampled triples ------------------------------------------------------------


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_batched_draw_matches_rng_choice(n):
    seq = range(n)
    for seed in range(200):
        count = 1 + seed * 7 % 90
        batched, single = random.Random(seed), random.Random(seed)
        assert _choice_indices(batched, n, count) == [single.choice(seq) for _ in range(count)]
        assert batched.getstate() == single.getstate()


@pytest.mark.parametrize("n", (41, 320))
def test_a_whole_sampled_triple_stage_draws_alike(n):
    mem = tuple(range(n))
    for seed in range(3):
        batched, single = random.Random(seed), random.Random(seed)
        picks = _choice_indices(batched, n, 3 * _SAMPLED_TRIPLES)
        triples = list(zip(picks[0::3], picks[1::3], picks[2::3]))
        assert triples == choice_triples(single, mem, _SAMPLED_TRIPLES)
        assert batched.getstate() == single.getstate()


def test_cross_check_leaves_the_generator_where_choice_draws_left_it(monkeypatch):
    # Each sampler after the triples starts where one draw at a time left
    # the generator: the pair draws after the triples, and the agreement
    # samples after the pairs.
    states = []

    def recording(sample):
        def recorded(rng, *args):
            states.append(rng.getstate())
            return sample(rng, *args)

        return recorded

    for name in ("_sample_distinct", "_sample_family_masks"):
        monkeypatch.setattr(oracle, name, recording(getattr(oracle, name)))
    sampled = paired = 0
    for seed, covering in list(_cases()) + list(_lawsuite_cases()):
        mem = definable_family(neighborhoods_of_covering(covering)).members
        states.clear()
        cross_check(covering, EnumerationBudget(seed=seed))
        single = random.Random(seed)
        expected = []
        if len(mem) > oracle._TRIPLE_SCAN_LIMIT:
            choice_triples(single, mem, _SAMPLED_TRIPLES)
            sampled += 1
        if len(mem) > oracle._PAIR_SCAN_LIMIT:
            expected.append(single.getstate())
            one_at_a_time_distinct(single, len(mem) ** 2, _SAMPLED_PAIRS)
            paired += 1
        expected.append(single.getstate())
        assert states == expected
    assert sampled >= 5 and paired >= 10


@pytest.mark.parametrize("upper", (65 * 65, 320 * 320, 4096 * 4096, (1 << 32) - 1))
def test_batched_pair_draw_matches_one_draw_at_a_time(upper):
    for seed in range(5):
        batched, single = random.Random(seed), random.Random(seed)
        assert _sample_distinct(batched, upper, _SAMPLED_PAIRS) == one_at_a_time_distinct(
            single, upper, _SAMPLED_PAIRS
        )
        assert batched.getstate() == single.getstate()


# --- lattice-law scan -----------------------------------------------------------

CONTRIVED = (
    ("one", 1, lambda a: a % 5 != 3),
    ("two", 2, lambda a, b: (a ^ b) % 7 != 2),
    ("three", 3, lambda a, b, c: (a + 2 * b + 3 * c) % 11 != 4),
    ("never", 3, lambda a, b, c: ((a | b) | c) == (a | (b | c))),
)


def first_position(masks, arity, holds):
    """The position, in ``product`` order, of the first failing combination."""
    combos = product(masks, repeat=arity)
    return next((k for k, combo in enumerate(combos) if not holds(*combo)), None)


def test_law_scan_names_the_same_first_failure():
    universe = Universe(tuple("abcde"))
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        bits = {rng.getrandbits(5) for _ in range(rng.randint(1, 12))}
        family = SetFamily.from_bits(universe, bits)
        for axiom, arity, holds in CONTRIVED:
            k = first_position(family.masks, arity, holds)
            new = _first_law_failure(family, axiom, arity, k)
            assert new == scan_first_law_failure(family.members, axiom, arity, holds)
            outcomes.add((axiom, new is None))
        # ints never fail the lattice laws
        assert all(scan(family.masks) is None for *_, scan in _LAWS)
    # every contrived law both fails somewhere and holds somewhere
    assert outcomes >= {(axiom, False) for axiom, *_ in CONTRIVED[:3]}
    assert {(axiom, True) for axiom, *_ in CONTRIVED} <= outcomes


def miscomputing(op, pair):
    """A stand-in int type whose ``op`` ("or" or "and") is wrong on the one
    ordered pair of values ``pair``.  Results keep the type, so a wrong
    value travels through the nested expressions of a law."""

    class Mask(int):
        def __or__(self, other):
            return Mask(self.wrong("or", other, int(self) | int(other)))

        def __and__(self, other):
            return Mask(self.wrong("and", other, int(self) & int(other)))

        def wrong(self, name, other, value):
            return value ^ 1 << 9 if (name, int(self), int(other)) == (op, *pair) else value

    return Mask


def test_law_scans_name_the_scalar_first_failure_on_a_wrong_operation():
    # Python ints never fail the laws, so only a stand-in whose | or & is
    # wrong on one pair can show a hoisted scan naming another combination.
    universe = Universe(tuple("abcde"))
    rng = random.Random(13)
    outcomes = set()
    for _ in range(80):
        bits = {rng.getrandbits(5) for _ in range(rng.randint(2, 9))}
        family = SetFamily.from_bits(universe, bits)
        op = rng.choice(("or", "and"))
        pair = (rng.choice(family.masks), rng.choice(family.masks))
        masks = tuple(map(miscomputing(op, pair), family.masks))
        members = [SimpleNamespace(bits=m) for m in masks]
        for axiom, arity, scan in _LAWS[1:]:
            new = _first_law_failure(family, axiom, arity, scan(masks))
            old = scan_first_law_failure(members, axiom, arity, LAW_HOLDS[axiom])
            assert (new is None) == (old is None)
            if new is not None:
                assert {k: v.bits for k, v in new.witness.items()} == {
                    k: v.bits for k, v in old.witness.items()
                }
            outcomes.add((axiom, new is None))
    # each of P2, P3 and P4 both fails somewhere and holds somewhere
    assert outcomes == {(axiom, verdict) for axiom, *_ in _LAWS[1:] for verdict in (True, False)}


# --- subfamilies ------------------------------------------------------------------


def test_subfamily_equals_the_validated_selection():
    rng = random.Random(2)
    for covering in [hex_covering()] + [c for _, c in _lawsuite_cases()][:3]:
        dfam = definable_family(neighborhoods_of_covering(covering))
        masks = [0, 1, (1 << len(dfam)) - 1] + [rng.getrandbits(len(dfam)) for _ in range(200)]
        for mask in masks:
            family = dfam.subfamily(mask)
            assert family == validated_subfamily(dfam, mask)
            assert family.bitset() == validated_subfamily(dfam, mask).bitset()
            assert dfam.index_mask(family) == mask


# --- CI3' -----------------------------------------------------------------------


def test_ci3_prime_walk_matches_on_every_hex_subfamily():
    covering = hex_covering()
    dfam = definable_family(neighborhoods_of_covering(covering))
    verdicts = set()
    for mask in range(1 << len(dfam)):
        family = dfam.subfamily(mask)
        new = check_ci3_prime(covering, family)
        assert new == topdown_ci3_prime(covering, family), mask
        assert new == above_ci3_prime(covering, family), mask
        verdicts.add(new.failures[-1].axiom if new.failures else None)
    assert {None, "CI3'"} <= verdicts


def test_ci3_prime_walk_matches_on_seeded_coverings():
    rng = random.Random(5)
    tested = 0
    for seed in range(60):
        covering = random_covering(5 + seed % 2, 0.35, seed)
        dfam = definable_family(neighborhoods_of_covering(covering))
        if len(dfam) <= 10:
            masks = range(1 << len(dfam))
        else:
            masks = [rng.getrandbits(len(dfam)) for _ in range(300)]
        for mask in masks:
            family = dfam.subfamily(mask)
            new = check_ci3_prime(covering, family)
            assert new == topdown_ci3_prime(covering, family)
            assert new == above_ci3_prime(covering, family)
            tested += 1
    assert tested > 10_000


# --- neighborhoods --------------------------------------------------------------


def test_neighborhood_map_equals_the_block_intersections():
    shapes = [(n, density, seed) for n in (5, 9, 16) for density, seed in ((0.2, 1), (0.7, 2))]
    coverings = _coverings() + [random_covering(*shape) for shape in shapes]
    # 1,024 labels: seeded blocks of 2 to 60 elements, each element left
    # uncovered paired with its successor
    rng = random.Random(7)
    with pytest.warns(UserWarning):
        wide = Universe(tuple(f"x{i}" for i in range(1024)))
    blocks = {sum(1 << i for i in rng.sample(range(1024), rng.randrange(2, 60))) for _ in range(300)}
    covered = sum(1 << i for i in range(1024) if any(b >> i & 1 for b in blocks))
    blocks |= {3 << i if i < 1023 else 3 << 1022 for i in range(1024) if not covered >> i & 1}
    coverings.append(Covering(wide, tuple(Subset(wide, b) for b in blocks)))
    for covering in coverings:
        assert covering.neighborhoods == blocks_neighborhoods(covering)
    cells = coverings[-1].neighborhoods.cell_bits
    assert 0 < sum(cell != 1 << i for i, cell in enumerate(cells)) < 1024


def test_neighborhood_map_is_built_once_per_covering():
    for covering in _coverings():
        first = neighborhoods_of_covering(covering)
        assert neighborhoods_of_covering(covering) is first
        assert covering.neighborhoods is first


def test_neighborhood_map_survives_pickling():
    for covering in _coverings():
        fresh = pickle.loads(pickle.dumps(covering))
        assert fresh == covering and hash(fresh) == hash(covering)
        built = covering.neighborhoods
        copy = pickle.loads(pickle.dumps(covering))
        assert copy == covering == fresh and hash(copy) == hash(covering)
        # the map travels with the covering, and one built after the
        # round trip is the same map
        assert vars(copy)["neighborhoods"] == built
        assert fresh.neighborhoods == built


# --- extension criterion ----------------------------------------------------------


def off_diagonal_pairs(indices, size):
    """The pairs the scan once received: each index decoded, (i, i) dropped."""
    return [(i, j) for i, j in (divmod(k, size) for k in indices) if i != j]


def assert_scan_matches(family, cells, indices):
    """``_extension_scan`` on the indices against the walk over their pairs."""
    new = _extension_scan(family, cells, indices)
    assert new == walk_extension_scan(family, cells, off_diagonal_pairs(indices, len(family)))
    return new


def test_extension_scan_matches_on_every_small_neighborhood_map():
    for covering in preorder_coverings():
        nm = neighborhoods_of_covering(covering)
        dfam = definable_family(nm)
        # every index, the diagonal included, as cross_check passes them
        assert_scan_matches(dfam, nm.cell_bits, range(len(dfam) ** 2))


def test_extension_scan_matches_on_seeded_lawsuite_sized_coverings():
    shapes = set()
    cases = [(s, random_covering(8 + s % 4, 0.3, s)) for s in range(12)]
    for seed, covering in cases + list(_lawsuite_cases()):
        nm = neighborhoods_of_covering(covering)
        dfam = definable_family(nm)
        size = len(dfam)
        if size <= oracle._PAIR_SCAN_LIMIT:
            indices = range(size * size)
        else:
            # the unfiltered draw, diagonal indices and all
            indices = _sample_distinct(random.Random(seed), size * size, _SAMPLED_PAIRS)
        assert_scan_matches(dfam, nm.cell_bits, indices)
        shapes.add(size <= oracle._PAIR_SCAN_LIMIT)
    assert shapes == {True, False}


def test_extension_scan_matches_where_the_criterion_fails():
    # Stand-in families: arbitrary member sets, not the definable family of
    # the neighborhoods, so blocked and predicted can disagree.
    rng = random.Random(11)
    outcomes = set()
    diagonal_only = 0
    for seed in range(300):
        n = 3 + seed % 4
        universe = Universe(tuple("abcdef"[:n]))
        cells = neighborhoods_of_covering(random_covering(n, 0.4, seed)).cell_bits
        bits = {rng.getrandbits(n) for _ in range(rng.randint(2, 3 * n))}
        family = SetFamily.from_bits(universe, bits)
        size = len(family)
        indices = list(range(size * size))
        rng.shuffle(indices)
        new = assert_scan_matches(family, cells, indices)
        outcomes.add((new[0], new[1] is None))
        if new != (True, None):
            # a pair (i, i) has an empty gap, so the diagonal alone agrees
            diagonal = [i * size + i for i in range(size)]
            assert _extension_scan(family, cells, diagonal) == (True, None)
            diagonal_only += 1
    # the witness, and a disagreement only on pairs without the size gap
    assert {(False, False), (False, True), (True, True)} <= outcomes
    assert diagonal_only > 0


# --- closure gate -------------------------------------------------------------------


def closed(bits, combine):
    out = set(bits)
    grown = True
    while grown:
        new = {combine(x, y) for x in out for y in out} - out
        grown = bool(new)
        out |= new
    return out


def test_closure_gate_matches_the_pair_scan_on_seeded_families():
    rng = random.Random(3)
    shapes = set()
    for _ in range(2400):
        n = rng.randint(1, 6)
        universe = Universe(tuple("abcdef"[:n]))
        bits = {rng.getrandbits(n) for _ in range(rng.randint(1, 10))}
        mode = rng.randrange(5)
        if mode in (1, 3):
            bits = closed(bits, int.__or__)
        if mode in (2, 3):
            bits = closed(bits, int.__and__)
        if mode == 3 and rng.random() < 0.3:
            bits = closed(bits, int.__or__)
        if mode == 4 and len(bits) > 1:
            # one member short of closed under both
            bits = closed(closed(bits, int.__or__), int.__and__)
            bits.discard(rng.choice(sorted(bits)))
        family = SetFamily.from_bits(universe, bits)
        new = check_closure(family)
        assert new == pair_scan_closure(family)
        shapes.add(tuple(f.axiom for f in new.failures))
    assert shapes == {
        (),
        ("union-closure",),
        ("intersection-closure",),
        ("union-closure", "intersection-closure"),
    }


def test_closure_gate_matches_the_pair_scan_on_small_definable_families():
    # keyed by universe and masks, since the meet spans of check_closure
    # start from the universe
    families = {}
    for covering in preorder_coverings():
        family = definable_family(neighborhoods_of_covering(covering))
        families[family.universe, family.bitset()] = family
    for n in (1, 2, 3, 4):
        universe = Universe(tuple("abcd"[:n]))
        # every relation: its successor map is any n-tuple of subsets
        for cells in product(range(1 << n), repeat=n):
            masks = frozenset(_closure_bits(cells))
            if (universe, masks) not in families:
                families[universe, masks] = SetFamily.from_bits(universe, masks)
    verdicts = set()
    for family in families.values():
        new = check_closure(family)
        assert new == pair_scan_closure(family)
        verdicts.add(new.passed)
    assert verdicts == {True, False}


# --- approximation tables ---------------------------------------------------------


def test_doubled_tables_equal_the_per_subset_definitions():
    cases = [nm.cell_bits for nm in small_neighborhood_maps()]
    cases += [neighborhoods_of_covering(c).cell_bits for _, c in _lawsuite_cases()]
    for cells in cases:
        n = len(cells)
        subsets = range(1 << n)
        lows, ups = _approximation_tables(cells)
        assert lows == [lower_approx_bits(cells, x) for x in subsets]
        assert ups == [upper_approx_bits(cells, x) for x in subsets]
        # the seeds of the extension scan's table of predictions
        others = _union_table([upper_approx_bits(cells, 1 << j) & ~(1 << j) for j in range(n)])
        assert others == [
            sum(1 << e for e, cell in enumerate(cells) if cell & x & ~(1 << e)) for x in subsets
        ]
    # relation maps, where some e lies outside N(e), are among them
    assert any(not cell >> e & 1 for cells in cases for e, cell in enumerate(cells))


def test_cross_check_seeds_its_tables_without_per_subset_scans(monkeypatch):
    calls = {"lower": 0, "upper": 0}

    def counted(name, approx):
        def count(cells, x):
            calls[name] += 1
            return approx(cells, x)

        return count

    def refused(*args):
        raise AssertionError("cross_check rescanned the fixpoints")

    monkeypatch.setattr(oracle, "lower_approx_bits", counted("lower", oracle.lower_approx_bits))
    monkeypatch.setattr(oracle, "upper_approx_bits", counted("upper", oracle.upper_approx_bits))
    for name in ("fixpoint_family_lower", "fixpoint_family_upper", "_fixpoint_family"):
        monkeypatch.setattr(definable, name, refused)
    for seed, covering in [(0, hex_covering())] + list(_lawsuite_cases())[:2]:
        calls.update(lower=0, upper=0)
        cross_check(covering, EnumerationBudget(seed=seed))
        n = covering.universe.size
        # n seeds for each table, and n more upper seeds for the extension
        # scan's predictions
        assert calls == {"lower": n, "upper": 2 * n}
