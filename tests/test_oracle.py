"""Enumeration oracles, random generators, and the bundled law suite."""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

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
from roughmatroids import cli, oracle
from roughmatroids.oracle import is_matroid_masks
from test_crosscheck_identity import _lawsuite_cases


class RecordingPool:
    """An in-process stand-in for the process pool: it records the worker
    count and the index ranges it was given and starts no process.  The
    scan function goes through a pickle round trip, as it would on its way
    to a worker."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.ranges = []
        self.started.append(self)

    @classmethod
    def install(cls, monkeypatch):
        monkeypatch.setattr(cls, "started", [], raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", cls)
        return cls.started

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        fn = pickle.loads(pickle.dumps(fn))
        self.ranges = list(items)
        return [fn(item) for item in self.ranges]


def ten_set_covering():
    # neighborhoods {a}, {a,b}, {a,c}, {d}: ten definable sets, so 1024
    # subfamily indices, the smallest range the scan splits across workers
    u = Universe(("a", "b", "c", "d"))
    return Covering.from_labels(u, [["a", "b"], ["a", "c"], ["d"]])


class TestEnumerationBudget:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_family_base=0)
        with pytest.raises(ValueError):
            EnumerationBudget(trials=0)

    def test_scan_bounds_stop_at_the_scan_limit(self):
        limit = oracle.SCAN_LIMIT
        assert EnumerationBudget(max_family_base=limit).max_family_base == 20
        with pytest.raises(ValueError, match="max_family_base must be at most 20, got 21"):
            EnumerationBudget(max_family_base=limit + 1)
        # cross_check's subset-scan bound is fixed, not a budget field
        with pytest.raises(TypeError):
            EnumerationBudget(max_scan_size=12)

    def test_trials_are_bounded(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(oracle, "_sample_family_masks", refuse)
        assert EnumerationBudget().trials == 100
        assert EnumerationBudget(trials=oracle.MAX_TRIALS).trials == 1 << 16
        with pytest.raises(ValueError, match="at most 65536"):
            EnumerationBudget(trials=oracle.MAX_TRIALS + 1)

    def test_a_sample_at_least_as_large_as_the_family_takes_every_mask(self):
        rng = random.Random(0)
        assert oracle._sample_family_masks(rng, 3, 8) == list(range(8))
        assert oracle._sample_family_masks(rng, 3, 100) == list(range(8))
        assert len(oracle._sample_family_masks(rng, 40, 100)) == 100


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
            family = dfam.subfamily(mask)
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", WatchedPool)
        covering = ten_set_covering()
        seq = enumerate_rough_matroids(covering, jobs=1)
        par = enumerate_rough_matroids(covering, jobs=2)
        # a one-CPU host has one worker, so it scans without a pool
        assert started == ([2] if (os.cpu_count() or 1) > 1 else [])
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
        asked = RecordingPool.install(monkeypatch)
        covering = ten_set_covering()
        serial = enumerate_rough_matroids(covering)
        for cpus, jobs, pools in ((2, 8, [2]), (64, 3, [3]), (None, 4, []), (64, 5000, [64])):
            asked.clear()
            monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
            assert enumerate_rough_matroids(covering, jobs=jobs) == serial
            assert [pool.max_workers for pool in asked] == pools
        # 2000 workers over 1024 indices leave 1024 one-index ranges
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2000)
        enumerate_rough_matroids(covering, jobs=5000)
        assert asked[-1].max_workers == 1024

    def test_index_range_is_split_once_per_worker(self, monkeypatch):
        asked = RecordingPool.install(monkeypatch)
        covering = ten_set_covering()
        serial = enumerate_rough_matroids(covering)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        assert enumerate_rough_matroids(covering, jobs=10**6) == serial
        assert [pool.ranges for pool in asked] == [[range(0, 512), range(512, 1024)]]
        assert asked[0].max_workers == 2

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_scans_without_a_pool(self, monkeypatch, cpus):
        asked = RecordingPool.install(monkeypatch)
        covering = ten_set_covering()
        serial = enumerate_rough_matroids(covering)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        assert enumerate_rough_matroids(covering, jobs=4) == serial
        assert asked == []

    def test_cli_jobs_beyond_the_cpus_prints_the_serial_output(self, monkeypatch, capsys):
        hex_path = str(Path(__file__).parent / "fixtures" / "cov_hex.json")
        assert cli.main(["enumerate", hex_path, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        asked = RecordingPool.install(monkeypatch)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        assert cli.main(["enumerate", hex_path, "--jobs", "1000000"]) == 0
        assert capsys.readouterr().out == serial
        assert [len(pool.ranges) for pool in asked] == [2]

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

    def test_classical_enumeration_is_bounded(self):
        with pytest.raises(SizeBoundError, match="n = 4"):
            classical_matroids(5)

    def test_is_matroid_masks_examples(self):
        assert is_matroid_masks({0b00, 0b01, 0b10})
        assert not is_matroid_masks({0b01})  # missing the empty set
        assert not is_matroid_masks({0b00, 0b11})  # heredity fails


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

    def test_relation_validates_arguments(self):
        for n, density in ((0, 0.5), (3, -0.1), (3, 1.5)):
            with pytest.raises(ValueError):
                random_relation(n, density, 1)

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

    def test_fixed_scan_bound(self, monkeypatch):
        # Twelve elements give at most 2^12 definable sets, and pairs are
        # sampled above 64, so every bound the pair sampler gets exceeds the
        # 2,000 indices it keeps and lies below 2^32, as its one draw path needs.
        uppers = []
        sample = oracle._sample_distinct

        def recorded(rng, upper, count):
            uppers.append(upper)
            return sample(rng, upper, count)

        monkeypatch.setattr(oracle, "_sample_distinct", recorded)
        u = Universe(tuple(f"x{i}" for i in range(12)))
        discrete = Covering.from_labels(u, [[x] for x in u.labels])
        report = cross_check(discrete)
        assert report.passed and report.details["definable_family_size"] == 4096
        assert report.details["extension_scan"] == "sampled"
        for seed, covering in _lawsuite_cases():
            cross_check(covering, EnumerationBudget(seed=seed))
        assert uppers[0] == 1 << 24 and len(uppers) > 1
        assert all(2000 < upper < 1 << 32 for upper in uppers)
        message = "cross-check needs full subset scans; 13 exceeds the scan bound of 12"
        with pytest.raises(SizeBoundError) as exc:
            cross_check(random_covering(13, 0.3, 1))
        assert str(exc.value) == message

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
