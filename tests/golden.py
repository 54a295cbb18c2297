"""Golden outputs: every file and the stdout of a fixed set of CLI invocations.

The cases are the three benchmark workloads at workload seeds 0 and 7, each from
``perfbench/workloads.py``'s ``config_text`` and ``cli_argv``; ``noisyfed bounds``
with and without ``--csv`` on ``configs/v5a_snr_control.json``; ``noisyfed sweep
--axis E`` on ``configs/v5a_sweep.json``; ``noisyfed bounds``, and ``noisyfed run
--seed-override 1``, at a pinned rate on the config ``PINNED_BOUNDS``; and sgd-mode
``run``s of the configs ``SGD`` (mse) and ``SGD_SOFTMAX``, the CLI paths with no
preset. They run in one child process with ``workloads.THREAD_ENV`` (one BLAS
thread), each in its own directory, and with every RuntimeWarning an error, as the
tests' own policy in ``pyproject.toml`` has it: a numpy warning on a pinned path
fails the cases, with the child's stderr.

``tests/golden/<case>/`` holds what each case wrote, file by file, and its stdout as
``stdout.txt``; ``tests/golden/environment.json`` holds the numpy and BLAS that wrote
them. After a deliberate change of the outputs, rewrite them from the repository root
with

    python3 tests/golden.py
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENVIRONMENT = GOLDEN / "environment.json"
STDOUT = "stdout.txt"
REL_TOL = 1e-9

# noisy SGD with both channels on, T spanning more than one streams.choices call
SGD = {"task": "regression_v5a", "mode": "sgd",
       "data": {"m": 3000, "d": 20, "seed": 5, "label_noise_variance": 0.05},
       "fedavg": {"n": 10, "r": 5, "E": 1, "K": 10, "gamma": 18.0, "batch_size": 16},
       "sgd": {"T": 2500, "eta": 0.05, "batch_size": 16},
       "uplink": {"kind": "constant", "base_std": 0.1},
       "downlink": {"kind": "poly_decay", "base_std": 0.2, "decay_exponent": 0.5},
       "repeat_seeds": [1, 2]}

# the sweep preset's task and schedules at the pinned rate 0.002 (gamma 31.6): the bound
# report, and a run's summary, stated at that rate
PINNED_BOUNDS = {"task": "regression_v5a", "mode": "fedavg",
                 "data": {"m": 15000, "d": 60, "seed": 2024, "label_noise_variance": 0.05},
                 "fedavg": {"n": 50, "r": 10, "E": 5, "K": 100, "gamma": 18.0,
                            "batch_size": 16, "learning_rate_override": 0.002},
                 "uplink": {"kind": "constant", "base_std": 0.2},
                 "downlink": {"kind": "constant", "base_std": 0.2},
                 "repeat_seeds": [1, 2, 3]}

# the same on softmax: its metrics read the weighted one-pass inputs of every row
SGD_SOFTMAX = {"task": "classification_synth", "mode": "sgd",
               "data": {"m": 1500, "d": 8, "seed": 11, "n_classes": 4,
                        "cluster_separation": 3.0, "partition": "label_shard"},
               "fedavg": {"n": 10, "r": 5, "E": 1, "K": 10, "gamma": 18.0, "batch_size": 16},
               "sgd": {"T": 400, "eta": 0.1, "batch_size": 16},
               "uplink": {"kind": "poly_decay", "base_std": 0.1, "decay_exponent": 0.5},
               "downlink": {"kind": "constant", "base_std": 0.05},
               "repeat_seeds": [1, 2]}

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def cases() -> dict:
    """Case name -> (config text or None, CLI argv); argv reads its config as config.json."""
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in (0, 7):
            out[f"{workload}_seed{seed}"] = (
                workloads.config_text(workload, seed),
                workloads.cli_argv(workload, "config.json", f"out/{workload}"))
    snr = str(ROOT / "configs" / "v5a_snr_control.json")
    out["bounds_v5a_snr_control"] = (None, ["bounds", "--config", snr])
    out["bounds_csv_v5a_snr_control"] = (None, ["bounds", "--config", snr, "--csv"])
    out["bounds_pinned_eta"] = (json.dumps(PINNED_BOUNDS, indent=2) + "\n",
                                ["bounds", "--config", "config.json"])
    out["run_pinned_eta"] = (json.dumps(PINNED_BOUNDS, indent=2) + "\n",
                             ["run", "--config", "config.json", "--out", "out/pinned",
                              "--seed-override", "1"])
    sweep = str(ROOT / "configs" / "v5a_sweep.json")
    out["sweep_E_v5a_sweep"] = (None, ["sweep", "--config", sweep, "--axis", "E",
                                       "--values", "1,3", "--out", "out/sweep"])
    out["sgd_run"] = (json.dumps(SGD, indent=2) + "\n",
                      ["run", "--config", "config.json", "--out", "out/sgd"])
    out["sgd_softmax_run"] = (json.dumps(SGD_SOFTMAX, indent=2) + "\n",
                              ["run", "--config", "config.json", "--out", "out/sgd"])
    return out


# Runs in the child: argv[1] is the work directory, argv[2] the cases as JSON.
_CHILD = """
import contextlib, io, json, os, sys
from noisyfed.cli import main
work, plan = sys.argv[1], json.loads(sys.argv[2])
for name, (config, argv) in plan.items():
    os.makedirs(os.path.join(work, name, "out"))
    os.chdir(os.path.join(work, name))
    if config is not None:
        with open("config.json", "w") as fh:
            fh.write(config)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name}: noisyfed {' '.join(argv)} exited with {code}")
    with open("stdout.txt", "w") as fh:
        fh.write(buf.getvalue())
"""


def environment() -> dict:
    """The numpy and BLAS of this interpreter, as recorded beside the golden files."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_configuration": blas.get("openblas configuration")}


def run_cases() -> dict:
    """Case name -> {file name -> bytes}: each case's outputs and its stdout."""
    env = dict(os.environ, **workloads.THREAD_ENV)
    env.pop("NOISYFED_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    plan = cases()
    with tempfile.TemporaryDirectory() as work:
        child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _CHILD,
                                work, json.dumps(plan)], env=env, capture_output=True, text=True)
        if child.returncode:
            raise RuntimeError(f"the golden cases failed:\n{child.stderr}")
        return {name: read_case(Path(work, name)) for name in plan}


def read_case(directory: Path) -> dict:
    files = {STDOUT: (directory / STDOUT).read_bytes()}
    for path in sorted((directory / "out").iterdir()):
        files[path.name] = path.read_bytes()
    return files


def read_golden(name: str) -> dict:
    return {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf\b|\bnan\b")


def numbers_differ(got: bytes, want: bytes) -> str | None:
    """Where ``got`` and ``want`` differ beyond REL_TOL in a number, or at all elsewhere;
    None when they agree."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return "the text between the numbers differs"
    a, b = _NUMBER.findall(got), _NUMBER.findall(want)
    if len(a) != len(b):
        return f"{len(a)} numbers, expected {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        fx, fy = float(x), float(y)
        if not (fx == fy or math.isclose(fx, fy, rel_tol=REL_TOL)
                or (math.isnan(fx) and math.isnan(fy))):
            return f"number {i}: {x.decode()} against {y.decode()}"
    return None


def write_golden(outputs: dict) -> None:
    for name, files in outputs.items():
        directory = GOLDEN / name
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.iterdir():
            stale.unlink()
        for file, data in files.items():
            (directory / file).write_bytes(data)
    ENVIRONMENT.write_text(json.dumps(environment(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden(run_cases())
    print(f"wrote {GOLDEN}")
