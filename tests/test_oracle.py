"""Enumeration oracles, random generators, and the bundled law suite."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from roughmatroids import (
    Covering,
    EnumerationBudget,
    SetFamily,
    SizeBoundError,
    Universe,
    check_rough_matroid_covering,
    classical_matroids,
    cross_check,
    definable_family,
    enumerate_rough_matroids,
    neighborhoods_of_covering,
    random_covering,
    random_relation,
)
from roughmatroids import oracle
from roughmatroids.oracle import _subfamily, is_matroid_masks


def ten_set_covering():
    # neighborhoods {a}, {a,b}, {a,c}, {d}: ten definable sets, so 1024
    # subfamily indices, the smallest range the scan splits across workers
    u = Universe(("a", "b", "c", "d"))
    return Covering.from_labels(u, [["a", "b"], ["a", "c"], ["d"]])


class TestEnumerationBudget:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_scan_size=0)
        with pytest.raises(ValueError):
            EnumerationBudget(trials=0)


class TestEnumerateRoughMatroids:
    def test_chain_covering_count_frozen(self, chain_covering):
        # regression value computed by this enumerator over all 32
        # subfamilies of the five definable sets; reproduce with:
        #   roughmatroids enumerate tests/fixtures/cov_chain3.json
        families = enumerate_rough_matroids(chain_covering)
        assert len(families) == 6
        as_label_sets = {
            frozenset(frozenset(m.members()) for m in fam) for fam in families
        }
        e, b, ab, bc, abc = (
            frozenset(),
            frozenset("b"),
            frozenset("ab"),
            frozenset("bc"),
            frozenset("abc"),
        )
        assert as_label_sets == {
            frozenset({e}),
            frozenset({e, b}),
            frozenset({e, b, ab}),
            frozenset({e, b, bc}),
            frozenset({e, b, ab, bc}),
            frozenset({e, b, ab, bc, abc}),
        }

    def test_matches_frozen_fixture(self, chain_covering):
        # fixture produced by the command recorded inside it
        import json
        from pathlib import Path

        fixture = json.loads(
            (Path(__file__).parent / "fixtures" / "enumeration_chain3.json").read_text()
        )
        families = enumerate_rough_matroids(chain_covering)
        assert fixture["count"] == len(families)
        assert fixture["families"] == [
            [list(m.members()) for m in fam.members] for fam in families
        ]

    def test_whole_definable_family_is_enumerated(self, chain_covering):
        dfam = definable_family(neighborhoods_of_covering(chain_covering))
        families = enumerate_rough_matroids(chain_covering)
        assert dfam in families

    def test_every_listed_family_passes(self, chain_covering):
        for fam in enumerate_rough_matroids(chain_covering):
            assert check_rough_matroid_covering(chain_covering, fam).passed

    def test_omitted_subfamilies_fail(self, chain_covering):
        dfam = definable_family(neighborhoods_of_covering(chain_covering))
        listed = {fam.bitset() for fam in enumerate_rough_matroids(chain_covering)}
        for mask in range(1 << len(dfam)):
            family = _subfamily(dfam, mask)
            if family.bitset() not in listed:
                assert not check_rough_matroid_covering(chain_covering, family).passed

    def test_resume_by_index(self, chain_covering):
        full = enumerate_rough_matroids(chain_covering)
        head = enumerate_rough_matroids(chain_covering, start=0)
        tail = enumerate_rough_matroids(chain_covering, start=16)
        assert head == full
        assert [f for f in full if f in tail] == tail

    def test_parallel_matches_sequential(self, monkeypatch):
        # 1024 subfamily indices are enough to split across the real pool
        started = []

        class WatchedPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", WatchedPool)
        covering = ten_set_covering()
        seq = enumerate_rough_matroids(covering, jobs=1)
        par = enumerate_rough_matroids(covering, jobs=2)
        assert started == [min(2, os.cpu_count() or 1)]
        assert seq == par

    def test_start_must_lie_in_the_index_range(self, chain_covering):
        # five definable sets: indices 0..32, where 32 is the empty tail
        assert enumerate_rough_matroids(chain_covering, start=32) == []
        for start in (-3, -1, 33, 1 << 40):
            with pytest.raises(ValueError, match="start"):
                enumerate_rough_matroids(chain_covering, start=start)

    def test_jobs_must_be_positive(self, chain_covering):
        for jobs in (0, -2):
            with pytest.raises(ValueError, match="jobs"):
                enumerate_rough_matroids(chain_covering, jobs=jobs)

    def test_worker_count_is_capped(self, monkeypatch):
        # an in-process stand-in for the pool records the worker count it
        # was asked for; no process is started
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        covering = ten_set_covering()
        serial = enumerate_rough_matroids(covering)
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", RecordingPool)
        for cpus, jobs, workers in ((2, 8, 2), (64, 3, 3), (None, 4, 1), (64, 5000, 64)):
            monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
            assert enumerate_rough_matroids(covering, jobs=jobs) == serial
            assert asked[-1] == workers
        # 5000 jobs over 1024 indices leave 1024 one-index ranges
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2000)
        enumerate_rough_matroids(covering, jobs=5000)
        assert asked[-1] == 1024

    def test_budget_enforced(self, hex_covering):
        with pytest.raises(SizeBoundError):
            enumerate_rough_matroids(hex_covering, EnumerationBudget(max_family_base=8))

    def test_matches_classical_enumeration_on_full_powerset(self):
        # with singleton neighborhoods every subset is definable, so the
        # rough enumeration must equal the independent classical one
        for n in (1, 2, 3):
            u = Universe(tuple("abc"[:n]))
            covering = Covering.from_labels(u, [[lab] for lab in u.labels])
            rough = {
                frozenset(m.bits for m in fam)
                for fam in enumerate_rough_matroids(covering)
            }
            classical = classical_matroids(n)
            assert rough == classical

    def test_classical_counts(self):
        assert len(classical_matroids(1)) == 2
        assert len(classical_matroids(2)) == 5

    def test_is_matroid_masks_examples(self):
        assert is_matroid_masks({0b00, 0b01, 0b10}, 2)
        assert not is_matroid_masks({0b01}, 2)  # missing the empty set
        assert not is_matroid_masks({0b00, 0b11}, 2)  # heredity fails


class TestRandomGenerators:
    def test_covering_deterministic(self):
        a = random_covering(6, 0.4, 7)
        b = random_covering(6, 0.4, 7)
        assert a == b
        assert a != random_covering(6, 0.4, 8)

    def test_covering_single_element(self):
        covering = random_covering(1, 0.01, 3)
        assert [b.members() for b in covering.blocks] == [("a",)]

    def test_covering_valid_across_seeds(self):
        for seed in range(50):
            covering = random_covering(1 + seed % 9, 0.05 + (seed % 10) / 12, seed)
            union = 0
            for blk in covering.blocks:
                assert blk.bits != 0
                union |= blk.bits
            assert union == (1 << covering.universe.size) - 1

    def test_covering_validates_arguments(self):
        with pytest.raises(ValueError):
            random_covering(0, 0.5, 1)
        with pytest.raises(ValueError):
            random_covering(3, 0.0, 1)

    def test_relation_deterministic(self):
        assert random_relation(5, 0.3, 11) == random_relation(5, 0.3, 11)

    def test_relation_density_extremes(self):
        empty = random_relation(4, 0.0, 1)
        assert not empty.pairs
        total = random_relation(4, 1.0, 1)
        assert len(total.pairs) == 16


class TestCrossCheck:
    def test_hex_covering_all_laws(self, hex_covering):
        report = cross_check(hex_covering, EnumerationBudget(seed=3))
        assert report.passed
        assert report.details["duality"] == "pass"
        assert report.details["closure"] == "pass"
        assert report.details["fixpoint_lower_equality"] == "pass"
        assert report.details["fixpoint_upper_duality"] == "pass"
        assert report.details["upper_fixpoints_equal_definable"] == "holds"
        assert report.details["atomicity"] == "holds"
        assert report.details["extension_biconditional"] == "pass"
        assert report.details["ci3prime_agreement"] == "pass"
        assert report.details["seed"] == 3

    def test_chain_covering_reports_findings(self, chain_covering):
        report = cross_check(chain_covering, EnumerationBudget(seed=0))
        assert report.passed  # findings are informational
        assert report.details["atomicity"] == "fails"
        assert report.details["upper_fixpoints_equal_definable"] == "fails"
        assert report.details["upper_fixpoint_witness"] == "{a}"

    def test_singleton_partition(self):
        u = Universe(("a", "b", "c"))
        covering = Covering.from_labels(u, [["a"], ["b"], ["c"]])
        report = cross_check(covering, EnumerationBudget(seed=1))
        assert report.passed
        assert report.details["atomicity"] == "holds"
        assert report.details["upper_fixpoints_equal_definable"] == "holds"

    def test_budget_bound(self):
        covering = random_covering(13, 0.3, 1)
        with pytest.raises(SizeBoundError):
            cross_check(covering, EnumerationBudget(max_scan_size=12))

    def test_hundred_random_coverings(self):
        for seed in range(100):
            covering = random_covering(1 + seed % 8, 0.15 + (seed % 6) / 8, seed)
            report = cross_check(covering, EnumerationBudget(seed=seed, trials=12))
            assert report.passed, (seed, report.failures)

    def test_closure_is_checked_once(self, hex_covering, monkeypatch):
        # build_lattice gates on check_closure; cross_check takes its closure
        # verdict from that gate instead of scanning the family a second time
        from roughmatroids import lattice

        calls = []
        original = lattice.check_closure
        for module in (lattice, oracle):
            monkeypatch.setattr(module, "check_closure", lambda f: calls.append(f) or original(f))
        assert cross_check(hex_covering, EnumerationBudget(seed=3, trials=5)).passed
        assert len(calls) == 1

    def test_unclosed_family_reports_the_closure_failure(self, monkeypatch):
        # a stand-in family missing {a, b}: the gate's failure is reported,
        # no lattice is built, and the suite fails
        u = Universe(("a", "b", "c"))
        covering = Covering.from_labels(u, [["a"], ["b"], ["c"]])
        unclosed = SetFamily.from_labels(u, [[], ["a"], ["b"]])
        monkeypatch.setattr(oracle, "definable_family", lambda nm: unclosed)
        report = cross_check(covering, EnumerationBudget(seed=3, trials=5))
        assert not report.passed
        assert report.details["closure"] == "fail"
        assert "lattice_laws" not in report.details and "atomicity" not in report.details
        assert report.failures[0].axiom == "union-closure"
        assert report.failures[0].witness["missing"] == u.subset(["a", "b"])
