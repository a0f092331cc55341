"""Seeded workloads, their operations and the checks on every output.

Every workload draws its inputs from a fixed, finite input space (a range
of generator seeds per universe size).  ``record.py`` ran every input of
that space whose definable family falls in a size band and stored its size
and reference output in ``reference.json``.  A benchmark seed draws, for
each size cell, a fixed number of those inputs; so any seed carries a
comparable load, and every op it can draw has a reference.  The input is
rebuilt from its generator seed and its size checked again, so a change to
the generators shows as failed ops too.

An op is one library call (``lawsuite``, ``enumerate``) or one CLI
subprocess (``cli``).  Its timed part is the call alone; building the input
happens in set-up and checking the output happens after the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from roughmatroids import cli
from roughmatroids.core import (
    Covering,
    Subset,
    Universe,
    neighborhoods_of_covering,
    successor_neighborhoods,
)
from roughmatroids.definable import definable_family
from roughmatroids.fileio import (
    covering_payload,
    dumps,
    family_payload,
    load_structure,
    report_payload,
)
from roughmatroids.oracle import (
    EnumerationBudget,
    classical_matroids,
    cross_check,
    enumerate_rough_matroids,
    random_covering,
    random_relation,
)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FIXTURES = "tests/fixtures"
WORK_DIR = ".perfbench_work"

WORKLOADS = ("lawsuite", "enumerate", "cli")

# The nominal length of one pass over each cycle, in seconds.  A timed run
# makes --seconds / PASS_SECONDS passes (at least one), so the number of
# calls per input depends on the run length alone, never on measured speed.
PASS_SECONDS = {"lawsuite": 20, "enumerate": 20, "cli": 8}

# lawsuite: cross_check on random_covering(n, 0.3, s).  The three |D|
# bands 16-64, 65-160 and 161-320 are each split in two, and every
# (n, sub-band) cell gets a fixed quota, because the op cost grows with
# both n (2^n subset scans) and |D| (the cubic Hasse-diagram build).  The
# cycle holds 59 ops, about 17 s.
LAW_DENSITY = 0.3
LAW_SIZES = (8, 9, 10, 11)
LAW_SEEDS = 200
LAW_BANDS = ((16, 40), (41, 64), (65, 112), (113, 160), (161, 240), (241, 320))
LAW_QUOTAS = {
    8: (3, 3, 3, 3, 2, 1),
    9: (3, 3, 3, 3, 2, 1),
    10: (3, 3, 3, 3, 2, 1),
    # Only 7 of the 200 n = 11 coverings have |D| <= 40.
    11: (2, 3, 3, 3, 2, 1),
}

# enumerate: enumerate_rough_matroids on random_covering(n, 0.3, s) with
# n = 5-7.  The cost is 2^|D| candidate checks, so the bands 8-10, 11-12
# and 13-14 are split by |D| where the space allows (|D| = 11 is rare).
# With the hex op and the three discrete ops the cycle holds 92 ops; the
# quotas put the median op in the middle of the 11-12 cell and the 90th
# percentile in the middle of the |D| = 14 cell, not on a cell edge, and
# keep one pass near 14 s.
ENUM_DENSITY = 0.3
ENUM_SIZES = (5, 6, 7)
ENUM_SEEDS = 1500
ENUM_BANDS = ((8, 9), (10, 10), (11, 12), (13, 13), (14, 14))
ENUM_QUOTAS = (15, 15, 36, 8, 14)
DISCRETE_SIZES = (1, 2, 3)
HEX_FIXTURE = f"{FIXTURES}/cov_hex.json"

# cli: `definable` on one generated covering per n = 14-16 (the closure
# route), and the two relation checks on one generated relation.
CLI_DEF_SIZES = (14, 15, 16)
CLI_DEF_DENSITY = 0.3
CLI_DEF_BAND = (1024, 4096)
CLI_REL_SIZE = 6
CLI_REL_DENSITY = 0.3
CLI_REL_BAND = (3, 8)
CLI_SEEDS = 60
NEAR_DISCRETE_SIZE = 14
REL_CHECKS = ("lower-rel", "upper-rel")

# Every fixture command form: all 11 subcommands (``definable --set`` and
# ``uniform --proposition`` as forms of their own, 13 in all) and all 7
# check names.  Labels are the reference keys.
CLI_FIXED = (
    ("neighborhoods", ["neighborhoods", "cov_hex.json"]),
    ("approx", ["approx", "cov_hex.json", "--set", "{b,d,f}"]),
    ("definable", ["definable", "cov_hex.json"]),
    ("definable-set", ["definable", "cov_hex.json", "--set", "{a}"]),
    ("lattice-dot", ["lattice", "cov_hex.json", "--format", "dot"]),
    ("lattice-json", ["lattice", "cov_mixed4.json"]),
    ("check-matroid", ["check", "matroid", "cov_mixed4.json", "fam_missing_empty.json"]),
    ("check-rough-cov", ["check", "rough-cov", "cov_hex.json", "fam_hex_pass.json"]),
    ("check-rough-cov-fail", ["check", "rough-cov", "cov_hex.json", "fam_hex_fail.json"]),
    ("check-lower-cov", ["check", "lower-cov", "cov_mixed4.json", "fam_mixed4_pass.json"]),
    ("check-upper-cov", ["check", "upper-cov", "cov_mixed4.json", "fam_mixed4_fail.json"]),
    ("check-lower-rel", ["check", "lower-rel", "rel_4pt.json", "fam_rel4.json"]),
    ("check-upper-rel", ["check", "upper-rel", "rel_4pt_reflexive.json", "fam_rel4.json"]),
    ("check-matroid-cond", ["check", "matroid-cond", "cov_mixed4.json", "fam_mixed4_pass.json"]),
    ("uniform", ["uniform", "cov_hex.json", "--r", "2"]),
    ("uniform-proposition", ["uniform", "cov_mixed4.json", "--r", "1", "--proposition"]),
    (
        "direct-sum",
        ["direct-sum", "cov_sum_left.json", "fam_sum_left.json",
         "cov_sum_right.json", "fam_sum_right.json"],
    ),
    ("ci3prime", ["ci3prime", "cov_mixed4.json", "fam_mixed4_fail.json"]),
    (
        "extension-check",
        ["extension-check", "cov_hex.json", "--d1", "{e}", "--d2", "{a,d,f}", "--element", "a"],
    ),
    ("enumerate", ["enumerate", "cov_chain3.json"]),
    ("cross-check", ["cross-check", "cov_hex.json", "--seed", "7"]),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def definable_size(covering: Covering) -> int:
    return len(definable_family(neighborhoods_of_covering(covering)))


def relation_definable(relation):
    return definable_family(successor_neighborhoods(relation))


def band_index(bands, d: int) -> int | None:
    for i, (lo, hi) in enumerate(bands):
        if lo <= d <= hi:
            return i
    return None


def parse_key(key: str) -> tuple[int, ...]:
    return tuple(int(part) for part in key.split(":") if part.isdigit())


def spread_order(groups: list[list]) -> list:
    """Interleave the groups so that every prefix of the result holds each
    group in about its share of the whole; a run that stops part-way
    through a cycle then still sees the intended mix."""
    keyed = []
    for g, items in enumerate(groups):
        for k, item in enumerate(items):
            keyed.append(((k + 0.5) / len(items), g, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def draw_cells(seed: int, keys: dict, cell_of, quotas: dict) -> dict:
    """For each cell, ``quotas[cell]`` keys from the recorded keys of that
    cell, in a seeded order; ``keys`` maps key -> recorded |D|.  The cell's
    keys are sorted by |D| and split into ``quotas[cell]`` equal strata, and
    each stratum gives one key, so every seed spans the cell's |D| range in
    the same way."""
    by_cell = defaultdict(list)
    for key in sorted(keys, key=lambda k: (keys[k], parse_key(k))):
        by_cell[cell_of(key, keys[key])].append(key)
    rng = random.Random(seed)
    drawn = {}
    for cell, q in sorted(quotas.items()):
        if not q:
            continue
        items = by_cell[cell]
        if len(items) < q:
            raise ValueError(f"cell {cell} holds {len(items)} inputs, fewer than its quota {q}")
        picks = [items[rng.randrange(len(items) * j // q, len(items) * (j + 1) // q)]
                 for j in range(q)]
        rng.shuffle(picks)
        drawn[cell] = picks
    return drawn


@dataclass
class Op:
    """One operation: ``call`` does the timed work, ``check`` turns its
    output into an error message (None when the output is correct).
    ``layer_call`` is the in-process form the traced run uses, if any."""

    key: str
    sizes: dict
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    layer_call: Callable[[], Any] | None = None


@dataclass
class Workload:
    ops: list[Op]
    work_dir: Path | None = None

    def close(self) -> None:
        if self.work_dir is not None:
            remove_work_dir(self.work_dir)


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()  # only succeeds once no other run uses it


def size_checked(check, actual: int, recorded: int):
    """Wrap ``check`` so that an input rebuilt with another |D| than the
    recorded one fails every time it is run."""
    if actual == recorded:
        return check
    return lambda _out: f"input has |D| = {actual}, the reference has {recorded}"


# --- lawsuite -------------------------------------------------------------


def law_report_digest(report) -> str:
    return sha256(dumps(report_payload(report)).encode("utf-8"))


def law_op(key: str, recorded_d: int, expected: str) -> Op:
    n, s = parse_key(key)
    covering = random_covering(n, LAW_DENSITY, s)
    d = definable_size(covering)

    def call():
        return cross_check(covering, EnumerationBudget(seed=s))

    def check(report):
        if not report.passed:
            return "law suite failed"
        if law_report_digest(report) != expected:
            return "report digest differs from the reference"
        return None

    sizes = {"n": n, "blocks": len(covering.blocks), "d": d}
    return Op(key, sizes, call, size_checked(check, d, recorded_d))


def law_cell(key: str, d: int):
    return parse_key(key)[0], band_index(LAW_BANDS, d)


def build_lawsuite(seed: int, refs: dict) -> Workload:
    table = refs["lawsuite"]
    quotas = {(n, b): q for n, qs in LAW_QUOTAS.items() for b, q in enumerate(qs)}
    cells = draw_cells(seed, {k: v[0] for k, v in table.items()}, law_cell, quotas)
    groups = [[law_op(key, *table[key]) for key in keys] for keys in cells.values()]
    return Workload(spread_order(groups))


# --- enumerate ------------------------------------------------------------


def masks_digest(families) -> str:
    masks = [[m.bits for m in fam.members] for fam in families]
    return sha256(json.dumps(masks).encode("utf-8"))


def enum_op(key: str, covering: Covering, recorded_d: int, expected: str) -> Op:
    d = definable_size(covering)

    def call():
        return enumerate_rough_matroids(covering, jobs=1)

    def check(families):
        if masks_digest(families) != expected:
            return "found masks differ from the reference"
        return None

    sizes = {"n": covering.universe.size, "blocks": len(covering.blocks), "d": d}
    return Op(key, sizes, call, size_checked(check, d, recorded_d))


def discrete_covering(n: int) -> Covering:
    universe = Universe(tuple("abcdefgh"[:n]))
    return Covering(universe, tuple(Subset(universe, 1 << i) for i in range(n)))


def discrete_op(n: int) -> Op:
    """Rough matroids on the discrete covering are exactly the classical
    matroids; the raw-mask oracle shares no code with the checkers."""
    covering = discrete_covering(n)
    classical = classical_matroids(n)

    def call():
        return enumerate_rough_matroids(covering, jobs=1)

    def check(families):
        got = {frozenset(m.bits for m in fam.members) for fam in families}
        if len(got) != len(families) or got != classical:
            return "differs from the classical matroids"
        return None

    return Op(f"discrete:{n}", {"n": n, "blocks": n, "d": 1 << n}, call, check)


def hex_covering() -> Covering:
    _, covering = load_structure(ROOT / HEX_FIXTURE)
    return covering


def build_enumerate(seed: int, refs: dict) -> Workload:
    table = refs["enumerate"]
    drawable = {k: v[0] for k, v in table.items() if k != "hex"}
    cells = draw_cells(seed, drawable, lambda _k, d: band_index(ENUM_BANDS, d),
                       dict(enumerate(ENUM_QUOTAS)))
    groups = []
    for keys in cells.values():
        ops = []
        for key in keys:
            n, s = parse_key(key)
            ops.append(enum_op(key, random_covering(n, ENUM_DENSITY, s), *table[key]))
        groups.append(ops)
    groups.append([enum_op("hex", hex_covering(), *table["hex"])])
    groups.append([discrete_op(n) for n in DISCRETE_SIZES])
    return Workload(spread_order(groups))


# --- cli ------------------------------------------------------------------


def near_discrete_covering(n: int) -> Covering:
    """Singletons everywhere except one two-element block: 2^(n-1)
    definable sets, which the CLI builds by the closure route."""
    universe = Universe(tuple(f"x{i}" for i in range(1, n + 1)))
    blocks = [Subset(universe, 1 << i) for i in range(n - 2)]
    blocks.append(Subset(universe, 3 << (n - 2)))
    return Covering(universe, tuple(blocks))


def relation_payload(relation) -> dict:
    labels = relation.universe.labels
    return {
        "universe": list(labels),
        "relation": [[labels[x], labels[y]] for x, y in sorted(relation.pairs)],
    }


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "roughmatroids.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, sha256(proc.stdout)


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, sha256(out.getvalue().encode("utf-8"))


@contextlib.contextmanager
def in_root():
    """CLI arguments are paths relative to the checkout root, and the
    ``enumerate`` output echoes them, so in-process calls run from there."""
    before = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(before)


def cli_op(key: str, argv: list[str], expected: list, sizes: dict, env: dict) -> Op:
    """``expected`` is the recorded [exit code, stdout sha256, (|D|)]."""
    def check(result):
        code, digest = result
        if [code, digest] != expected[:2]:
            return f"exit {code} / stdout digest differ from the reference"
        return None

    if len(expected) > 2:
        check = size_checked(check, sizes["d"], expected[2])
    return Op(
        key,
        sizes,
        lambda: run_cli_subprocess(argv, env),
        check,
        layer_call=lambda: run_cli_inprocess(argv),
    )


def fixture_argv(args: list[str]) -> list[str]:
    return [f"{FIXTURES}/{a}" if a.endswith(".json") else a for a in args]


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def build_cli(seed: int, refs: dict) -> Workload:
    table = refs["cli"]
    env = cli_env()
    work = ROOT / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    rel = work.relative_to(ROOT).as_posix()
    rng = random.Random(seed)
    fixed = [cli_op(label, fixture_argv(args), table[label], {}, env) for label, args in CLI_FIXED]

    generated = []
    for n in CLI_DEF_SIZES:
        key = rng.choice(sorted((k for k in table if k.startswith(f"definable:{n}:")), key=parse_key))
        covering = random_covering(n, CLI_DEF_DENSITY, parse_key(key)[1])
        write_json(work / f"cov{n}.json", covering_payload(covering))
        sizes = {"n": n, "blocks": len(covering.blocks), "d": definable_size(covering)}
        generated.append(cli_op(key, ["definable", f"{rel}/cov{n}.json"], table[key], sizes, env))

    covering = near_discrete_covering(NEAR_DISCRETE_SIZE)
    write_json(work / "near_discrete.json", covering_payload(covering))
    key = f"definable:near-discrete:{NEAR_DISCRETE_SIZE}"
    sizes = {"n": NEAR_DISCRETE_SIZE, "blocks": len(covering.blocks), "d": definable_size(covering)}
    generated.append(cli_op(key, ["definable", f"{rel}/near_discrete.json"], table[key], sizes, env))

    rel_keys = sorted((k for k in table if k.startswith(f"check-{REL_CHECKS[0]}:")), key=parse_key)
    s = parse_key(rng.choice(rel_keys))[0]
    relation = random_relation(CLI_REL_SIZE, CLI_REL_DENSITY, s)
    family = relation_definable(relation)
    write_json(work / "rel.json", relation_payload(relation))
    write_json(work / "rel_family.json", family_payload(family))
    sizes = {"n": CLI_REL_SIZE, "pairs": len(relation.pairs), "d": len(family)}
    for name in REL_CHECKS:
        key = f"check-{name}:{s}"
        argv = ["check", name, f"{rel}/rel.json", f"{rel}/rel_family.json"]
        generated.append(cli_op(key, argv, table[key], sizes, env))
    return Workload(spread_order([fixed, generated]), work_dir=work)


BUILDERS = {"lawsuite": build_lawsuite, "enumerate": build_enumerate, "cli": build_cli}


def build(name: str, seed: int, refs: dict) -> Workload:
    return BUILDERS[name](seed, refs)
