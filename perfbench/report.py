"""Run every workload once and print each run's report. From the repository root:

    python3 perfbench/report.py [--seed N] [--seconds N] [--trace 0|1]

Prints, per workload, every metric by name and unit, the seed runs attempted
and failed, and the detail line; exits non-zero if any run failed or any
output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok &= json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
