"""Differential tests for the law suite's loops on member masks.

Each loop is compared with a copy, kept here, of the loop it replaced:

- the sampled lattice-law triples, drawn one ``rng.choice`` at a time,
  alone and inside ``cross_check`` up to the sampler that follows them;
- the lattice-law scan, one index tuple per combination;
- the CI3' maximality test of each member inside a definable set against
  every member above it;
- the neighborhood map, rebuilt from the blocks on every call.

The replacements must give the same values, the same witnesses and, for
the draws, leave the generator in the same state.
"""

from __future__ import annotations

import pickle
import random
from itertools import product

import pytest

from roughmatroids import (
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
from roughmatroids import oracle
from roughmatroids.axioms import _check_rough_given, definability_report
from roughmatroids.core import NeighborhoodMap
from roughmatroids.lattice import _first_law_failure
from roughmatroids.oracle import _SAMPLED_TRIPLES, _choice_indices, _subfamily
from roughmatroids.report import AxiomFailure, CheckReport
from test_crosscheck_identity import _cases
from test_member_order import hex_covering
from test_report_identity import _coverings

DRAW_SIZES = (1, 2, 3, 41, 320, 1 << 20)


# --- the loops as they were ---------------------------------------------------


def choice_triples(rng, mem, count):
    """The sampled triples, one ``rng.choice`` per member."""
    return [tuple(rng.choice(mem) for _ in range(3)) for _ in range(count)]


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
            if not order.above[j] & inside:
                maximal.append(j)
        size = order.sizes[maximal[0]] if maximal else 0
        other = next((j for j in maximal if order.sizes[j] != size), None)
        if other is not None:
            witness = {"D": members[d], "I1": members[maximal[0]], "I2": members[other]}
            failures.append(AxiomFailure("CI3'", witness))
            break
    return CheckReport("ci3prime", passed=not failures, failures=tuple(failures))


def blocks_neighborhoods(covering):
    u = covering.universe
    full = (1 << u.size) - 1
    cells = []
    for i in range(u.size):
        bits = full
        for blk in covering.blocks:
            if (blk.bits >> i) & 1:
                bits &= blk.bits
        cells.append(Subset(u, bits))
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
    # the stage after the triples starts with one of these two samplers
    states = []

    def recording(sample):
        def recorded(rng, *args):
            states.append(rng.getstate())
            return sample(rng, *args)

        return recorded

    for name in ("_sample_distinct", "_sample_family_masks"):
        monkeypatch.setattr(oracle, name, recording(getattr(oracle, name)))
    sampled = 0
    for seed, covering in _cases():
        mem = definable_family(neighborhoods_of_covering(covering)).members
        states.clear()
        cross_check(covering, EnumerationBudget(seed=seed))
        single = random.Random(seed)
        if len(mem) > oracle._TRIPLE_SCAN_LIMIT:
            choice_triples(single, mem, _SAMPLED_TRIPLES)
            sampled += 1
        assert states[0] == single.getstate()
    assert sampled >= 5


# --- lattice-law scan -----------------------------------------------------------

CONTRIVED = (
    ("one", 1, lambda a: a % 5 != 3),
    ("two", 2, lambda a, b: (a ^ b) % 7 != 2),
    ("three", 3, lambda a, b, c: (a + 2 * b + 3 * c) % 11 != 4),
    ("never", 3, lambda a, b, c: ((a | b) | c) == (a | (b | c))),
)


def test_law_scan_names_the_same_first_failure():
    universe = Universe(tuple("abcde"))
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        bits = {rng.getrandbits(5) for _ in range(rng.randint(1, 12))}
        members = SetFamily.from_bits(universe, bits).members
        for axiom, arity, holds in CONTRIVED:
            new = _first_law_failure(members, axiom, arity, holds)
            assert new == scan_first_law_failure(members, axiom, arity, holds)
            outcomes.add((axiom, new is None))
    # every contrived law both fails somewhere and holds somewhere
    assert outcomes >= {(axiom, False) for axiom, *_ in CONTRIVED[:3]}
    assert {(axiom, True) for axiom, *_ in CONTRIVED} <= outcomes


# --- CI3' -----------------------------------------------------------------------


def test_ci3_prime_walk_matches_on_every_hex_subfamily():
    covering = hex_covering()
    dfam = definable_family(neighborhoods_of_covering(covering))
    verdicts = set()
    for mask in range(1 << len(dfam)):
        family = _subfamily(dfam, mask)
        new = check_ci3_prime(covering, family)
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
            family = _subfamily(dfam, mask)
            assert check_ci3_prime(covering, family) == above_ci3_prime(covering, family)
            tested += 1
    assert tested > 10_000


# --- neighborhoods --------------------------------------------------------------


def test_neighborhood_map_equals_the_block_intersections():
    for covering in _coverings():
        assert covering.neighborhoods == blocks_neighborhoods(covering)


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
