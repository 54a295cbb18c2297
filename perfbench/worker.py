"""The child process of the benchmark: one workload, in-process, then one JSON line.

``run.py`` starts this with the thread counts pinned. It imports noisyfed
from the repository's ``src``, runs one untimed warm-up invocation of
``noisyfed.cli.main``, and then either

- ``--trace 0``: invokes the CLI in a closed loop for ``--seconds``, timing
  each invocation, ``host_probe`` on either side of it and, through the one
  hook ``tracing.SEED_RUN_HOOKS``, each seed run (``experiment.run_one_seed``),
  and times ``experiment.build_task`` (set-up) between invocations; or
- ``--trace 1``: alternates untraced and traced invocations for
  ``--seconds`` (at least two traced ones), reporting per-layer metrics.

Every invocation's outputs are checked (see ``checks.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
MIN_INVOCATIONS = 3
MIN_TRACED = 2
# set-up is timed in slices after every invocation, so its samples span the run
SETUP_SLICE_S = 0.3
SETUP_MIN_REPEATS = 3
# On a shared 2-vCPU VM the CPU speed swings by about 1.5x for seconds to
# minutes at a time: a fixed numpy/Python loop timed in 25 ms pieces for 20 s
# read 17.8 ms at its fastest, 25.6 ms at the median, 27.3 ms at p90, and
# whole 38 s runs fall in slow periods. Raw times of ten runs then spread by
# up to 0.37 (quartile distance over median), and the median set-up time of
# one set of ten runs was 16% above the set before it. So the gated timings
# are adjusted for host speed: each measured time is scaled by PROBE_REF_S
# over the time of ``host_probe`` measured on either side of it. They read
# as seconds on a host where the probe takes PROBE_REF_S, its median on
# that VM.
PROBE_REF_S = 1.05e-3
PROBE_REPEATS = 10


def host_probe() -> float:
    """Median seconds of a fixed loop that does not touch noisyfed: the host's current speed.

    It mixes the kinds of work the workloads spend time on: small numpy calls
    (64x64 matrix-vector products and ``tanh``), interpreter work (a Python
    loop) and passes over a 2 MB matrix, as a full-data gradient makes. The
    last part tracks slowdowns of memory and the shared cache, which the
    first two miss: over 200 s of ``sweep_r`` invocations, adjusting by the
    first two alone left a spread of 0.13-0.17 between 20 s windows, and by
    the matrix passes alone 0.05.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, x0 = rng.standard_normal((64, 64)), rng.standard_normal(64)
    big, y = rng.standard_normal((4000, 60)), rng.standard_normal(4000)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        x = x0
        for _ in range(200):
            x = np.tanh(a @ x)
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(4):
            r = big @ x0[:60] - y
            float(r @ r)
            big.T @ r
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail_percentile(samples, q: float, beyond: int = 10):
    """Nearest-rank q-th percentile, or None unless ``beyond`` samples rank above it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


class Session:
    """Runs the CLI on one workload config and checks what it writes."""

    def __init__(self, workload: str, seed: int, workdir: Path, expected: dict | None):
        self.workload, self.seed, self.expected = workload, seed, expected
        config = workdir / "config.json"
        config.write_text(workloads.config_text(workload, seed))
        self.config_path = str(config)
        self.outdir = workdir / "out"
        self.outdir.mkdir()
        self.argv = workloads.cli_argv(workload, self.config_path, str(self.outdir / workload))
        self.first_outputs = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def invoke(self):
        """One CLI invocation: (wall seconds, outputs including stdout)."""
        import noisyfed.cli

        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = noisyfed.cli.main(self.argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"noisyfed {' '.join(self.argv)} exited with {code}")
        files = checks.read_outputs(self.outdir)
        files["<stdout>"] = buf.getvalue().encode()
        return wall, files

    def check(self, files, counted: bool = True) -> None:
        problems = checks.check(self.workload, self.seed, files, self.expected)
        if self.first_outputs is None:
            self.first_outputs = files
        elif files != self.first_outputs:
            for found in problems.values():
                found.append("outputs differ from the first invocation")
        bad = {rid: found for rid, found in problems.items() if found}
        for rid, found in bad.items():
            if len(self.problems) < 5:
                self.problems.append(f"{rid}: {'; '.join(found)}")
        if counted:
            self.attempted += len(problems)
            self.failed += len(bad)


def _keep_going(start: float, seconds: float, per_iteration: float, done: int,
                minimum: int) -> bool:
    if done < minimum:
        return True
    return time.perf_counter() - start + per_iteration <= seconds


def timed(session: Session, seconds: float) -> dict:
    from noisyfed import config, experiment

    cfg = config.load_config(session.config_path)

    def time_setup():
        samples = []
        while len(samples) < SETUP_MIN_REPEATS or sum(samples) < SETUP_SLICE_S:
            t0 = time.perf_counter()
            experiment.build_task(cfg)
            samples.append(time.perf_counter() - t0)
        return samples

    def adjusted(t, probe):
        return t * PROBE_REF_S / probe

    walls, setup, probes, laps = [], [], [], []
    adjusted_walls, adjusted_setup = [], []
    seeds = tracing.Tracer()
    with tracing.installed(seeds, tracing.SEED_RUN_HOOKS) as missing:
        start = before = time.perf_counter()
        probe = host_probe()
        while _keep_going(start, seconds, statistics.median(laps or [0.0]), len(walls),
                          MIN_INVOCATIONS):
            wall, files = session.invoke()
            after_wall = host_probe()
            session.check(files)
            samples = time_setup()
            after_setup = host_probe()

            walls.append(wall)
            probes.append((probe + after_wall) / 2)
            adjusted_walls.append(adjusted(wall, probes[-1]))
            setup.extend(samples)
            adjusted_setup.extend(adjusted(t, (after_wall + after_setup) / 2) for t in samples)
            probe = after_setup
            laps.append(time.perf_counter() - before)
            before = time.perf_counter()

    run_s = seeds.durations("experiment.run_one_seed")
    return {
        "metrics": {
            "wall_s": statistics.median(adjusted_walls),
            "setup_s": statistics.median(adjusted_setup),
        },
        "report": {
            "raw_wall_s.min": min(walls),
            "raw_wall_s.p50": statistics.median(walls),
            "raw_setup_s.p50": statistics.median(setup),
            "probe_s.p50": statistics.median(probes),
            "rounds_per_s": seeds.counts["fedavg.rounds"] / sum(run_s) if run_s else None,
            "run_s.p50": statistics.median(run_s) if run_s else None,
            "run_s.p90": tail_percentile(run_s, 0.9),
        },
        "detail": {
            "invocations": len(walls),
            "setup_samples": len(setup),
            "run_s.samples": len(run_s),
            "hooks_missing": missing,
        },
    }


def _traced_invocation(session: Session):
    """(wall seconds, tracer, missing hook targets) of one traced invocation."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        wall, files = session.invoke()
    session.check(files)
    return wall, tracer, missing


def traced(session: Session, seconds: float) -> dict:
    untraced_walls, traced_walls, excess = [], [], []
    per_invocation, first_counts = [], None
    repeat_ok = True
    start = time.perf_counter()
    while _keep_going(start, seconds,
                      statistics.median(untraced_walls or [0.0])
                      + statistics.median(traced_walls or [0.0]),
                      len(traced_walls), MIN_TRACED):
        # alternate which side runs first, so drift does not bias the overhead
        traced_first = len(traced_walls) % 2 == 1
        if traced_first:
            wall, tracer, missing = _traced_invocation(session)
        untraced_wall, files = session.invoke()
        session.check(files)
        untraced_walls.append(untraced_wall)
        if not traced_first:
            wall, tracer, missing = _traced_invocation(session)
        traced_walls.append(wall)

        summary = tracer.summary()
        values = tracing.layer_values(tracer, summary)
        per_invocation.append(values)
        # the spans' self times against the untraced invocation beside this one:
        # the excess is the tracing overhead as the per-layer times carry it
        self_total = sum(rec["self_s"] for rec in summary.values())
        excess.append(self_total - untraced_wall)
        counts = {m: v for m, v in values.items() if tracing.unit_of(m) != "s"}
        if first_counts is None:
            first_counts = counts
        repeat_ok &= counts == first_counts

    metrics = {}
    for metric in per_invocation[0]:
        if tracing.unit_of(metric) == "s":
            metrics[metric] = statistics.median(v[metric] for v in per_invocation)
        else:
            metrics[metric] = first_counts[metric]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    metrics["trace.self_minus_untraced_s"] = statistics.median(excess)
    metrics["trace.hooks_missing"] = len(missing)
    if not repeat_ok:
        session.problems.append("exact counts differ between traced invocations")
    return {
        "metrics": metrics,
        "detail": {
            "traced_invocations": len(traced_walls),
            "untraced_wall_s": statistics.median(untraced_walls),
            "traced_wall_s": statistics.median(traced_walls),
            "hooks_missing": missing,
            "counts_repeat": repeat_ok,
        },
    }


def environment() -> dict:
    import numpy
    import noisyfed

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "noisyfed_backend": noisyfed.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import noisyfed

    if src not in Path(noisyfed.__file__).resolve().parents:
        print(f"noisyfed imported from {noisyfed.__file__}, not from {src}", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed, Path(args.workdir), checks.load_expected())
    _, warm = session.invoke()
    session.check(warm, counted=False)
    result = (traced if args.trace else timed)(session, args.seconds)
    print(json.dumps({
        "metrics": result["metrics"],
        "report": result.get("report", {}),
        "detail": result["detail"],
        "attempted": session.attempted,
        "failed": session.failed,
        "correct": session.failed == 0 and not session.problems,
        "problems": session.problems,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
