"""Run every workload, each in its own process, and print one table.

    python3 perfbench/run_all.py --seed 1 --seconds 40            # end-to-end
    python3 perfbench/run_all.py --seed 1 --seconds 40 --trace 1  # per-layer

Prints each metric by name and unit for each workload, plus the sample
count and the failed-op ratio.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lawsuite", "enumerate", "cli")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=HERE.parent, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    all_ok = True
    for workload in WORKLOADS:
        details, result = run_one(workload, args.seed, args.seconds, args.trace)
        all_ok = all_ok and result["correct"]
        print(f"== {workload}  seed={args.seed}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed_op_ratio={details['failed_op_ratio']:.4f}"
              + (f"  samples={details['samples']}" if "samples" in details else ""))
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
        for err in details["errors"]:
            print(f"  failed: {err}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
