"""noisyfed benchmark: one workload through the real CLI, in a pinned child process.

Run from the repository root:

    python3 perfbench/run.py --workload reference --seed 0 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics. Gated (in ``BENCHMARK.json``):

- ``wall_s``: the median over the run's CLI invocations of one whole
  invocation: config load, set-up, every seed run, the bound report and the
  file writes;
- ``setup_s``: the median ``experiment.build_task`` call (data, smoothness
  constant, partition), timed in slices between invocations;
- ``peak_rss_mb``: peak resident memory of the child process.

Both timings are adjusted for host speed: each measured time is scaled by
``worker.PROBE_REF_S`` over the time of a fixed probe loop
(``worker.host_probe``) measured just before and after it. The host this
was tuned on, a shared 2-vCPU VM, changes speed by about 1.5x for seconds to
minutes; the probe is code the program cannot change, so the adjusted
figures move with the program and not with the host. Reported alongside,
without a bound: the raw ``raw_wall_s.min``, ``raw_wall_s.p50`` and
``raw_setup_s.p50``, ``probe_s.p50``, ``rounds_per_s`` (rounds completed
over the summed per-seed simulation time), ``run_s.p50`` and ``run_s.p90``
(per-seed simulation time, from a hook on ``experiment.run_one_seed``; p90
only once ten samples lie beyond it) and ``failed_frac``.

``--trace 1`` prints the per-layer metrics from a traced run (see
``tracing.py``). The lines before the last are the readable report and a
``detail`` JSON line with sample counts and the environment. The last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts seed runs and ``failed`` those whose outputs failed
the check. ``python3 perfbench/report.py`` runs every workload.

This script starts one child per run (``worker.py``) with BLAS/OpenMP and
noisyfed pinned to one thread and ``NOISYFED_BACKEND`` unset, and measures
the child's peak resident memory. Workloads are a closed loop: one CLI
invocation at a time, from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
REPORT_UNITS = {"raw_wall_s.min": "s", "raw_wall_s.p50": "s", "raw_setup_s.p50": "s",
                "probe_s.p50": "s", "rounds_per_s": "1/s", "run_s.p50": "s", "run_s.p90": "s"}


def child_env() -> dict:
    env = dict(os.environ, **workloads.THREAD_ENV)
    env.pop("NOISYFED_BACKEND", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args) -> tuple[dict, float]:
    """Run the worker; returns its result and its peak RSS in MiB."""
    (ROOT / workloads.WORK_DIR).mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / workloads.WORK_DIR)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return json.loads(proc.stdout.strip().splitlines()[-1]), peak_mib


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("need --seed >= 0 and --seconds >= 1")

    load_start = os.getloadavg()
    try:
        child, peak_mib = run_child(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import tracing

        units = {m: tracing.unit_of(m) for m in tracing.PER_LAYER}
    else:
        child["metrics"]["peak_rss_mb"] = peak_mib
        units = END_TO_END_UNITS
    metrics = {m: {"value": child["metrics"][m], "unit": unit} for m, unit in units.items()}

    attempted, failed = child["attempted"], child["failed"]
    env = dict(child["env"], nproc=os.cpu_count(), threads=workloads.THREAD_ENV,
               loadavg_start=load_start, loadavg_end=os.getloadavg())
    detail = dict(child["detail"], **child["report"], workload=args.workload, seed=args.seed,
                  trace=args.trace,
                  failed_frac=failed / attempted if attempted else None,
                  problems=child["problems"], environment=env)

    for name, m in metrics.items():
        print(f"{args.workload:<15s} {name:<36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in child["report"].items():
        shown = "not measured: too few samples, or its hook is missing" if value is None \
            else f"{value:>16.6g} {REPORT_UNITS[name]}"
        print(f"{args.workload:<15s} {name:<36s} {shown} (no bound)")
    print(f"{args.workload:<15s} seed runs attempted={attempted} failed={failed} "
          f"failed_frac={detail['failed_frac']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(child["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
