"""Record the reference outputs of every input the workloads can draw.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: for ``lawsuite`` the |D| and the
sha256 of each cross-check report as the CLI would print it, for
``enumerate`` the |D| and the sha256 of the found families' member masks,
and for ``cli`` the exit code and the sha256 of standard output of every
command (and the |D| of generated inputs).  Run it only to re-baseline on
purpose: the benchmark counts every op whose output differs as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_workloads as bw  # noqa: E402


def record_lawsuite() -> dict:
    out = {}
    for n in bw.LAW_SIZES:
        for s in range(bw.LAW_SEEDS):
            covering = bw.random_covering(n, bw.LAW_DENSITY, s)
            d = bw.definable_size(covering)
            if bw.band_index(bw.LAW_BANDS, d) is None:
                continue
            report = bw.cross_check(covering, bw.EnumerationBudget(seed=s))
            if not report.passed:
                raise SystemExit(f"law suite fails on n={n} s={s}")
            out[f"{n}:{s}"] = [d, bw.law_report_digest(report)]
    return out


def record_enumerate() -> dict:
    hexc = bw.hex_covering()
    out = {"hex": [bw.definable_size(hexc), bw.masks_digest(bw.enumerate_rough_matroids(hexc))]}
    for n in bw.ENUM_SIZES:
        for s in range(bw.ENUM_SEEDS):
            covering = bw.random_covering(n, bw.ENUM_DENSITY, s)
            d = bw.definable_size(covering)
            if bw.band_index(bw.ENUM_BANDS, d) is None:
                continue
            out[f"{n}:{s}"] = [d, bw.masks_digest(bw.enumerate_rough_matroids(covering))]
    return out


def record_cli() -> dict:
    env = bw.cli_env()
    work = ROOT / bw.WORK_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    rel = work.relative_to(ROOT).as_posix()

    def run(argv, *extra):
        return [*bw.run_cli_subprocess(argv, env), *extra]

    out = {}
    try:
        for label, args in bw.CLI_FIXED:
            out[label] = run(bw.fixture_argv(args))
        for n in bw.CLI_DEF_SIZES:
            for s in range(bw.CLI_SEEDS):
                covering = bw.random_covering(n, bw.CLI_DEF_DENSITY, s)
                d = bw.definable_size(covering)
                if not bw.CLI_DEF_BAND[0] <= d <= bw.CLI_DEF_BAND[1]:
                    continue
                bw.write_json(work / "cov.json", bw.covering_payload(covering))
                out[f"definable:{n}:{s}"] = run(["definable", f"{rel}/cov.json"], d)
        near = bw.near_discrete_covering(bw.NEAR_DISCRETE_SIZE)
        bw.write_json(work / "near.json", bw.covering_payload(near))
        out[f"definable:near-discrete:{bw.NEAR_DISCRETE_SIZE}"] = run(
            ["definable", f"{rel}/near.json"], bw.definable_size(near)
        )
        for s in range(bw.CLI_SEEDS):
            relation = bw.random_relation(bw.CLI_REL_SIZE, bw.CLI_REL_DENSITY, s)
            family = bw.relation_definable(relation)
            if not bw.CLI_REL_BAND[0] <= len(family) <= bw.CLI_REL_BAND[1]:
                continue
            bw.write_json(work / "rel.json", bw.relation_payload(relation))
            bw.write_json(work / "fam.json", bw.family_payload(family))
            for name in bw.REL_CHECKS:
                out[f"check-{name}:{s}"] = run(
                    ["check", name, f"{rel}/rel.json", f"{rel}/fam.json"], len(family)
                )
    finally:
        bw.remove_work_dir(work)
    return out


def main() -> int:
    refs = {
        "lawsuite": record_lawsuite(),
        "enumerate": record_enumerate(),
        "cli": record_cli(),
    }
    # One entry per line keeps the file diffable.
    lines = ["{"]
    for i, (workload, table) in enumerate(refs.items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        items = list(table.items())
        for j, (key, value) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f"    {json.dumps(key)}: {json.dumps(value)}{comma}")
        lines.append("  }" + ("," if i < len(refs) - 1 else ""))
    lines.append("}")
    bw.REFERENCE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for workload, table in refs.items():
        print(f"{workload}: {len(table)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
