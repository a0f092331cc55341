"""The reports that verdict-only kernel runs share, and how long the
orders that hold them live.

A verdict-only run of ``_check_rough_given`` (``stop_at_first``) looks
its report up in ``order.verdicts`` under the check name, the tags and the
positions of the first witness, and builds it only on a miss; a full run
builds a fresh report and leaves the dict alone.  An order lives no
longer than its definable family, which lives only while a caller holds
it, and ``SetFamily.index_mask`` reads a family's masks in one lookup each.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
import weakref
from collections import Counter

import pytest

from roughmatroids import (
    SetFamily,
    Universe,
    UniverseMismatchError,
    check_ci3_prime,
    check_lower_rough_matroid_relation,
    check_rough_matroid_covering,
    check_upper_rough_matroid_covering,
    definable_family,
    enumerate_rough_matroids,
    neighborhoods_of_covering,
    random_relation,
)
from roughmatroids import definable
from roughmatroids.axioms import _check_rough_given
from roughmatroids.report import AxiomFailure, CheckReport

from support import hex_covering, seeded_coverings

TAGS = ("CI1", "CI2", "CI3")
# {e, f}: the hex member whose definable subsets {e} and {f} precede it
J = 5


def hex_dfam():
    covering = hex_covering()
    return covering, definable_family(neighborhoods_of_covering(covering))


def verdict(order, mask, tags=TAGS):
    return _check_rough_given("rough-cov", order, mask, tags, stop_at_first=True)


class TestSharedReports:
    def test_same_first_failure_returns_the_same_report(self):
        _, dfam = hex_dfam()
        order = dfam.order
        # neither holds the empty set (bit 0): both fail CI1 at member 0
        first, second = verdict(order, 0b10), verdict(order, 0b100)
        assert first.failed_axiom == "CI1"
        assert second is first
        # {} and a member without its smaller definable subsets fail CI2 on
        # that member, whatever else is picked above it
        assert verdict(order, 1 | 1 << J).failed_axiom == "CI2"
        assert verdict(order, 1 | 1 << J | 1 << len(dfam) - 1) is verdict(order, 1 | 1 << J)
        assert verdict(order, 1).passed
        assert verdict(order, 1) is verdict(order, 1)

    def test_check_names_and_tags_are_kept_apart(self):
        # cross_check runs rough-cov and ci3prime on the same order, with
        # the same tags, on each sampled index
        covering, dfam = hex_dfam()
        order = dfam.order
        for mask in (0b10, 1 | 1 << J, 1):
            plain = verdict(order, mask)
            prime = check_ci3_prime(covering, dfam.subfamily(mask), stop_at_first=True)
            tagged = verdict(order, mask, tags=("X1", "X2", "X3"))
            assert plain.check == "rough-cov"
            assert prime == CheckReport("ci3prime", plain.failures)
            assert tagged.failures == tuple(
                AxiomFailure("X" + f.axiom[2:], f.witness) for f in plain.failures
            )
            assert verdict(order, mask) is plain

    def test_full_runs_leave_the_dict_alone(self):
        _, dfam = hex_dfam()
        order = dfam.order
        before = dict(order.verdicts)
        reports = [_check_rough_given("rough-cov", order, m, TAGS) for m in range(0, 1 << 16, 7)]
        assert order.verdicts == before
        # each full run builds its own report, equal but not shared
        again = _check_rough_given("rough-cov", order, 0, TAGS)
        assert again == reports[0] and again is not reports[0]

    def test_enumeration_keeps_at_most_two_plus_two_d_squared_per_check(self):
        seeded = seeded_coverings(40, sizes=range(9, 15), seeds=1000, widths=(5, 6, 7))
        for covering in [hex_covering(), *seeded]:
            dfam = definable_family(neighborhoods_of_covering(covering))
            enumerate_rough_matroids(covering)
            check_ci3_prime(covering, dfam.subfamily(0b11), stop_at_first=True)
            kept = Counter((check, tags) for check, tags, _ in dfam.order.verdicts)
            assert kept[("rough-cov", TAGS)] > 1
            assert max(kept.values()) <= 2 + 2 * len(dfam) ** 2

    def test_a_checked_family_still_pickles(self):
        covering, dfam = hex_dfam()
        family = dfam.subfamily(0b111)
        check_ci3_prime(covering, family, stop_at_first=True)
        for mask in range(64):
            verdict(dfam.order, mask)
        assert dfam.order.verdicts
        for fam in (dfam, family):
            back = pickle.loads(pickle.dumps(fam))
            assert back == fam and back.masks == fam.masks
            assert "order" not in vars(back)


class TestLifetime:
    def test_checks_leave_no_order_alive_once_collected(self, monkeypatch):
        # only the covering and the relation are held: their neighborhood
        # maps keep no definable family, so no order outlives its check
        covering = hex_covering()
        relation = random_relation(6, 0.35, 1)
        alive = []
        init = definable.MemberOrder.__init__

        def recording(self, family, images=None):
            alive.append(weakref.ref(self))
            init(self, family, images)

        monkeypatch.setattr(definable.MemberOrder, "__init__", recording)
        empty_set = SetFamily(covering.universe, (0,))
        assert check_rough_matroid_covering(covering, empty_set).passed
        assert check_upper_rough_matroid_covering(covering, empty_set).passed
        assert check_lower_rough_matroid_relation(relation, empty_set).passed
        enumerate_rough_matroids(covering)
        assert len(alive) >= 3
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []


class TestIndexMask:
    def test_members_map_to_their_bits(self):
        _, dfam = hex_dfam()
        for mask in (0, 1, 0b1011, (1 << 16) - 1):
            assert dfam.index_mask(dfam.subfamily(mask)) == mask

    def test_a_non_member_gives_none(self):
        _, dfam = hex_dfam()
        stray = next(b for b in range(64) if b not in dfam.bitset())
        assert dfam.index_mask(SetFamily(dfam.universe, (0, stray))) is None

    def test_the_universe_is_checked_first(self):
        _, dfam = hex_dfam()
        other = Universe(tuple("abcdefg"))
        # a non-member on another universe raises rather than giving None
        with pytest.raises(UniverseMismatchError):
            dfam.index_mask(SetFamily(other, (1 << 6,)))

    def test_member_bits_stay_within_their_bound(self):
        # the discrete 16-element covering: |D| = 2^16, so a table of every
        # member's bit would take 256 MiB
        u = Universe(tuple(f"x{i}" for i in range(16)))
        dfam = SetFamily(u, tuple(range(1 << 16)))
        top = dfam.masks[-300:]
        tracemalloc.start()
        try:
            for _ in range(2):
                got = dfam.index_mask(SetFamily(u, top))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == sum(1 << i for i in range(len(dfam) - 300, len(dfam)))
        assert len(dfam._member_bits) <= definable._MEMBER_BITS // len(dfam)
        assert peak < 16 << 20
