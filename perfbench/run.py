"""Benchmark entry point: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload lawsuite --seed 1 --seconds 40 --trace 0

The op loop is closed: each op starts when the previous one has finished
and been checked.  ``--trace 0`` makes whole passes over the workload's
cycle, as many as ``--seconds`` allows at the workload's nominal pass
length (at least one), and prints the end-to-end metrics.  ``--trace 1`` runs
the first TRACE_OPS ops of the cycle untraced, then the same ops with spans
at every module boundary, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it holds the run's
details (op sizes, sample counts, failed-op ratio, metadata).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
PROBE_LOOPS = 20_000
IMPORT_REPS = 5
CLI_START_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import roughmatroids.cli; "
                "print(time.perf_counter() - t)")
# The traced run covers this prefix of the cycle, twice; the interleaved
# order keeps every prefix's mix close to the whole cycle's.
TRACE_OPS = 40

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("lawsuite", "enumerate", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision() -> str | None:
    """Read from the checkout's own .git, if it has one; never searches
    parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_lines() -> dict:
    files = sorted((SRC / "roughmatroids").glob("*.py"))
    counts = {f.stem: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    counts["total"] = sum(counts.values())
    return counts


def betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by Lentz's method on
    its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta) / a
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of the order statistics,
    so that one value crossing the q-th rank moves the estimate a little,
    not by the gap between neighbours."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def run_op(op, call=None):
    """Time one op and check its output; returns (seconds, error or None)."""
    call = call or op.call
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, f"{op.key}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    err = op.check(out)
    return elapsed, None if err is None else f"{op.key}: {err}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, err) -> None:
        self.attempted += 1
        if err is not None:
            self.errors.append(err)


def setup(bw, name, seed, refs, reps, tally):
    """Build the inputs and run one warm-up op, ``reps`` times; returns the
    last workload and, per repetition, its time and the probe time around
    it."""
    times = []
    workload = None
    for _ in range(reps):
        if workload is not None:
            workload.close()
        before = probe()
        start = time.perf_counter()
        workload = bw.build(name, seed, refs)
        _, err = run_op(workload.ops[0])
        times.append((time.perf_counter() - start, (before + probe()) / 2))
        tally.add(err)
    return workload, times


def probe() -> float:
    """Time a fixed loop of about a millisecond of plain Python: how fast
    the host runs this process just now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc ^= (i * 2654435761) & 0xFFFF
    return time.perf_counter() - start


def summary(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_p90_ms": quantile(lat, 0.9) * 1e3,
    }


def timed_run(bw, name, seed, seconds, refs, import_reps=IMPORT_REPS, setup_reps=SETUP_REPS,
              max_ops=None):
    """Set-up, then whole passes over the cycle (its first ``max_ops`` ops,
    if given).

    The probe runs before and after every timed step.  A step's time is
    scaled by the fastest probe of the run over the mean of the two probes
    around it: the time it would have taken had the host run this process
    at its best speed of the run.  An op's latency is the fastest of its
    scaled calls, one per pass; set-up is the median of scaled imports plus
    the median of scaled set-ups.  The unscaled figures go to the details."""
    tally = Tally()
    imports = fresh_imports(bw, import_reps)
    workload, setups = setup(bw, name, seed, refs, setup_reps, tally)
    passes = max(1, int(seconds // bw.PASS_SECONDS[name]))
    try:
        ops = workload.ops[:max_ops]
        calls = []
        for _ in range(passes):
            for j, op in enumerate(ops):
                before = probe()
                elapsed, err = run_op(op)
                calls.append((j, elapsed, (before + probe()) / 2))
                tally.add(err)
    finally:
        workload.close()
    fastest = min(around for *_, around in calls + imports + setups)

    def setup_s(scale):
        return sum(statistics.median(t * scale(around) for t, around in steps)
                   for steps in (imports, setups))

    best = [math.inf] * len(ops)
    unscaled = [math.inf] * len(ops)
    for j, elapsed, around in calls:
        best[j] = min(best[j], elapsed * fastest / around)
        unscaled[j] = min(unscaled[j], elapsed)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s(lambda around: fastest / around),
        **summary(best),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    details = {
        "samples": len(best),
        "passes": passes,
        "calls": len(calls),
        "calls_per_s": len(calls) / sum(elapsed for _, elapsed, _ in calls),
        "unscaled": summary(unscaled),
        "host_slowdown": statistics.median(around for _, _, around in calls) / fastest,
        "setup_unscaled_s": setup_s(lambda _around: 1.0),
        "setup_reps_s": [t for t, _ in setups],
        "import_reps_s": [t for t, _ in imports],
        "cycle_len": len(workload.ops),
        "op_ms": {op.key: t * 1e3 for op, t in zip(ops, best)},
    }
    return workload, tally, {k: (metrics[k], u) for k, u in END_TO_END}, details


def median_wall(argv, reps) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fresh_imports(bw, reps: int) -> list[tuple[float, float]]:
    """Times to import roughmatroids.cli (and with it every module) in a
    fresh interpreter, each with the probe time around it."""
    times = []
    for _ in range(reps):
        before = probe()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=bw.cli_env(), cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        times.append((float(out), (before + probe()) / 2))
    return times


def cli_start_costs(bw) -> dict:
    """Bare interpreter start and the package import, each the median of a
    few fresh interpreters."""
    return {
        "cli.interpreter_start_s": median_wall([sys.executable, "-c", "pass"], CLI_START_REPS),
        "cli.import_s": statistics.median(t for t, _ in fresh_imports(bw, CLI_START_REPS)),
    }


def jobs2_speedup(bw, reps: int = 3) -> float:
    """Hex enumeration wall time with 1 worker over 2 workers (= nproc),
    each the median of ``reps`` alternating runs."""
    covering = bw.hex_covering()
    walls = {1: [], 2: []}
    for _ in range(reps):
        for jobs in (1, 2):
            start = time.perf_counter()
            bw.enumerate_rough_matroids(covering, jobs=jobs)
            walls[jobs].append(time.perf_counter() - start)
    return statistics.median(walls[1]) / statistics.median(walls[2])


# Span names start with their layer; "bench" is the benchmark's own op code.
SHARE_LAYERS = ("definable", "lattice", "axioms", "constructions", "oracle", "fileio", "cli", "bench")

PER_LAYER = (
    ("core.Subset.created", "count"),
    ("core.Subset.lt_calls", "count"),
    ("definable.definable_family.calls", "count"),
    ("definable.definable_family.self_s", "s"),
    ("definable.sets_out", "count"),
    ("definable.check_closure.self_s", "s"),
    ("lattice.build_lattice.self_s", "s"),
    ("lattice.nodes", "count"),
    ("lattice.edges", "count"),
    ("lattice.laws.self_s", "s"),
    ("axioms.check.calls", "count"),
    ("axioms.check.self_s", "s"),
    ("axioms.check.pass_ratio", "ratio"),
    ("constructions.check_ci3_prime.calls", "count"),
    ("constructions.check_ci3_prime.self_s", "s"),
    ("oracle.cross_check.self_s", "s"),
    ("oracle.enumerate.self_s", "s"),
    ("oracle.subfamily.self_s", "s"),
    ("oracle.enumerate.candidates", "count"),
    ("oracle.enumerate.found", "count"),
    ("oracle.enumerate.yield_ratio", "ratio"),
    ("oracle.enumerate.jobs2_speedup", "ratio"),
    ("fileio.load.self_s", "s"),
    ("fileio.dumps.self_s", "s"),
    ("fileio.bytes_out", "bytes"),
    ("cli.interpreter_start_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"share.{layer}", "ratio") for layer in SHARE_LAYERS) + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def ratio(num: float, den: float) -> float:
    """A ratio whose base is zero reads 0: the layer did no work."""
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, extra: dict) -> dict:
    c, t = tracer.counts, tracer
    values = {
        "core.Subset.created": c["core.Subset.created"],
        "core.Subset.lt_calls": c["core.Subset.lt_calls"],
        "definable.definable_family.calls": t.calls("definable.definable_family"),
        "definable.definable_family.self_s": t.self_s("definable.definable_family"),
        "definable.sets_out": c["definable.sets_out"],
        "definable.check_closure.self_s": t.self_s("definable.check_closure"),
        "lattice.build_lattice.self_s": t.self_s("lattice.build_lattice"),
        "lattice.nodes": c["lattice.nodes"],
        "lattice.edges": c["lattice.edges"],
        "lattice.laws.self_s": t.self_s("lattice.laws"),
        "axioms.check.calls": t.calls("axioms.check"),
        "axioms.check.self_s": t.self_s("axioms.check"),
        "axioms.check.pass_ratio": ratio(c["axioms.check.passed"], t.calls("axioms.check")),
        "constructions.check_ci3_prime.calls": t.calls("constructions.check_ci3_prime"),
        "constructions.check_ci3_prime.self_s": t.self_s("constructions.check_ci3_prime"),
        "oracle.cross_check.self_s": t.self_s("oracle.cross_check"),
        "oracle.enumerate.self_s": t.self_s("oracle.enumerate"),
        "oracle.subfamily.self_s": t.self_s("oracle.subfamily"),
        "oracle.enumerate.candidates": c["oracle.enumerate.candidates"],
        "oracle.enumerate.found": c["oracle.enumerate.found"],
        "oracle.enumerate.yield_ratio": ratio(
            c["oracle.enumerate.found"], c["oracle.enumerate.candidates"]
        ),
        "oracle.enumerate.jobs2_speedup": extra.get("oracle.enumerate.jobs2_speedup", 0.0),
        "fileio.load.self_s": t.self_s("fileio.load"),
        "fileio.dumps.self_s": t.self_s("fileio.dumps"),
        "fileio.bytes_out": c["fileio.bytes_out"],
        "cli.interpreter_start_s": extra.get("cli.interpreter_start_s", 0.0),
        "cli.import_s": extra.get("cli.import_s", 0.0),
        "cli.main.self_s": t.self_s("cli.main"),
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.spans": tracer.next_id,
    }
    for layer in SHARE_LAYERS:
        values[f"share.{layer}"] = ratio(tracer.layer_self_s(layer), traced_wall)
    return {k: (values[k], u) for k, u in PER_LAYER}


def traced_run(bw, name, seed, refs):
    import bench_trace

    tally = Tally()
    workload, setups = setup(bw, name, seed, refs, 1, tally)
    extra = {}
    try:
        if name == "enumerate":
            extra["oracle.enumerate.jobs2_speedup"] = jobs2_speedup(bw)
        if name == "cli":
            extra.update(cli_start_costs(bw))
        ops = workload.ops[:TRACE_OPS]
        with bw.in_root():
            untraced_wall = 0.0
            for op in ops:
                elapsed, err = run_op(op, op.layer_call)
                untraced_wall += elapsed
                tally.add(err)
            tracer = bench_trace.Tracer()
            try:
                tracer.install()
                traced_wall = 0.0
                for i, op in enumerate(ops):
                    tracer.op = i
                    root = tracer.wrap("bench.op", op.layer_call or op.call)
                    elapsed, err = run_op(op, root)
                    traced_wall += elapsed
                    tally.add(err)
            finally:
                tracer.uninstall()
    finally:
        workload.close()
    problems = bench_trace.span_problems(tracer.spans)
    metrics = layer_metrics(tracer, traced_wall, untraced_wall, extra)
    details = {
        "setup_s": [t for t, _ in setups],
        "cycle_len": len(workload.ops),
        "traced_ops": len(ops),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "kept_spans": len(tracer.spans),
        "self_test_problems": problems[:10],
        "span_names": {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                       for n, s in sorted(tracer.stats.items())},
    }
    return workload, tally, metrics, details


def metadata(load_before) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughmatroids" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'roughmatroids'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = list(os.getloadavg())
    import roughmatroids
    import bench_workloads as bw
    if Path(roughmatroids.__file__).resolve().parent != (SRC / "roughmatroids").resolve():
        print(f"perfbench: imported roughmatroids from {roughmatroids.__file__}", file=sys.stderr)
        return 2
    refs = bw.load_reference()
    if args.trace:
        workload, tally, metrics, details = traced_run(bw, args.workload, args.seed, refs)
    else:
        workload, tally, metrics, details = timed_run(
            bw, args.workload, args.seed, args.seconds, refs
        )
    failed = len(tally.errors)
    self_test_ok = not details.get("self_test_problems")
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": failed,
        "failed_op_ratio": failed / tally.attempted,
        "errors": tally.errors[:10],
        "ops": [{"key": op.key, **op.sizes} for op in workload.ops],
        "meta": metadata(load_before),
    })
    print(json.dumps(details))
    result = {
        "correct": failed == 0 and self_test_ok,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
