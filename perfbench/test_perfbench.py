"""Tests of the benchmark itself: short runs, seeded generators, output
checks and the tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return bw.load_reference()


def cycle(name, seed, refs):
    workload = bw.build(name, seed, refs)
    workload.close()
    return [(op.key, op.sizes) for op in workload.ops]


@pytest.mark.parametrize("name", bw.WORKLOADS)
def test_tiny_run_is_correct(name, refs):
    _, tally, metrics, details = run.timed_run(
        bw, name, seed=3, seconds=0.0, refs=refs, import_reps=1, max_ops=2, setup_reps=1
    )
    assert tally.errors == []
    assert tally.attempted == 3
    assert details["samples"] == 2
    assert [k for k in metrics] == [k for k, _ in run.END_TO_END]
    assert all(value > 0 for value, _ in metrics.values())
    # Scaling to the run's fastest host speed never makes an op slower.
    assert metrics["op_p50_ms"][0] <= details["unscaled"]["op_p50_ms"]
    assert details["host_slowdown"] >= 1.0


def test_passes_follow_the_run_length_alone(refs):
    _, tally, _, details = run.timed_run(
        bw, "enumerate", seed=3, seconds=2 * bw.PASS_SECONDS["enumerate"], refs=refs,
        import_reps=1, max_ops=3, setup_reps=1
    )
    assert tally.errors == []
    assert details["passes"] == 2
    assert details["calls"] == 6
    assert details["samples"] == 3


def test_quantile_weights_the_order_statistics():
    values = [float(v) for v in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0)
    assert run.quantile([7.0] * 30, 0.9) == pytest.approx(7.0)
    assert 89 < run.quantile(values, 0.9) < 93
    assert run.betainc(2, 3, 0.4) == pytest.approx(0.5248)


def cells(name, ops):
    """The size cell of every op: (n, band) for lawsuite, the |D| band for
    enumerate, n for the generated cli inputs."""
    def band(bands, d):
        b = bw.band_index(bands, d)
        return -1 if b is None else b

    if name == "lawsuite":
        return sorted((s["n"], band(bw.LAW_BANDS, s["d"])) for _, s in ops)
    if name == "enumerate":
        return sorted(band(bw.ENUM_BANDS, s["d"]) for _, s in ops)
    return sorted(s.get("n", 0) for _, s in ops)


@pytest.mark.parametrize("name", bw.WORKLOADS)
def test_generators_are_seeded_and_stratified(name, refs):
    first = cycle(name, 11, refs)
    assert cycle(name, 11, refs) == first
    other = cycle(name, 12, refs)
    assert other != first
    assert cells(name, other) == cells(name, first)


def test_wrong_reference_digest_is_a_failed_op(refs):
    first = bw.build("enumerate", 5, refs).ops[0]
    bad = copy.deepcopy(refs)
    bad["enumerate"][first.key][1] = "0" * 64
    _, tally, _, _ = run.timed_run(
        bw, "enumerate", seed=5, seconds=0.0, refs=bad, import_reps=1, max_ops=1, setup_reps=1
    )
    # The warm-up op and the one measured op are both the tampered one.
    assert tally.attempted == 2
    assert len(tally.errors) == 2
    assert "differ from the reference" in tally.errors[0]


def test_spans_nest_and_self_times_add_up():
    tracer = bench_trace.Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap("inner", lambda: [leaf_traced() for _ in range(3)])
    leaf_traced = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert bench_trace.span_problems(tracer.spans) == []
    assert tracer.calls("leaf") == 3
    assert all(s[5] >= 0 for s in tracer.spans)
    total = tracer.stats["outer"][1]
    assert sum(s[2] for s in tracer.stats.values()) == pytest.approx(total)
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["leaf"][4] == by_name["inner"][0]
    assert by_name["inner"][4] == by_name["outer"][0]


def test_self_test_catches_a_child_outside_its_parent():
    spans = [(0, "outer", 0.0, 1.0, None, 0.5, 0), (1, "inner", 0.5, 1.5, 0, 1.0, 0)]
    assert bench_trace.span_problems(spans)


def test_install_traces_every_layer_and_uninstall_restores():
    before = bench_trace.installed_originals()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        covering = bw.random_covering(8, bw.LAW_DENSITY, 1)
        bw.cross_check(covering, bw.EnumerationBudget(seed=1, trials=5))
        bw.enumerate_rough_matroids(bw.discrete_covering(2))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(bench_trace.installed_originals(), before))
    for name in (
        "oracle.cross_check",
        "oracle.enumerate",
        "oracle.subfamily",
        "definable.definable_family",
        "definable.check_closure",
        "lattice.build_lattice",
        "lattice.laws",
        "axioms.check",
        "constructions.check_ci3_prime",
    ):
        assert tracer.calls(name) > 0, name
    assert tracer.counts["core.Subset.lt_calls"] > 0
    assert tracer.counts["oracle.enumerate.candidates"] == 1 << 4
    assert bench_trace.span_problems(tracer.spans) == []
