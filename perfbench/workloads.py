"""Workload definitions: the config each workload feeds the CLI, and its argv.

The base documents are copied into the benchmark rather than read from the
repository's presets, so a later change to a preset does not silently change
what the benchmark measures. The workload seed only picks the repeat seeds;
the data seed stays fixed, so set-up work is the same for every seed.

Why these three workloads:

- ``reference``: the paper's bound-check setup (v5a, both channels on,
  prescribed step size), so the bound report runs. Metrics evaluation is
  its largest layer; sufficient-statistics evaluation should show here.
- ``sweep_r``: the r-axis sweep with pinned step size. Local steps, batch
  sampling and stream construction dominate, and the three channel variants
  rebuild identical batch and cohort draws, so lockstep replicas should show
  here. The ``theory`` layer is bypassed.
- ``noniid_softmax``: softmax over label-sharded clients with both channels
  off. It bypasses the quadratic metrics path and the ``channel`` layer; a
  kernel change that helps ``mse_linear`` but costs softmax shows here.
"""

from __future__ import annotations

import copy
import json

DEFAULT_SEED = 0

# scratch directory, relative to the repository root, for configs and outputs
WORK_DIR = ".perfbench_work"

# Every run is single-threaded: on a 2-core machine, default BLAS threading
# spread the 6-seed reference run over 2.6-4.2 s, against 2.3-2.7 s pinned.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NOISYFED_THREADS")}

_V5A_DATA = {"m": 15000, "d": 60, "seed": 2024, "label_noise_variance": 0.05,
             "normalize_hessian": True, "n_classes": 0, "cluster_separation": 0.0,
             "partition": "iid", "labels_per_client": 2}
_V5A_FED = {"n": 50, "r": 10, "E": 5, "K": 100, "gamma": 18.0, "batch_size": 16,
            "learning_rate_override": None}
_CONSTANT = {"kind": "constant", "base_std": 0.2, "decay_exponent": 0.0,
             "e_squared_scaling": False}
_OFF = {"kind": "off", "base_std": 0.0, "decay_exponent": 0.0, "e_squared_scaling": False}

_BASE = {
    "reference": {
        "task": "regression_v5a", "mode": "fedavg", "data": _V5A_DATA, "fedavg": _V5A_FED,
        "sgd": None, "uplink": _CONSTANT, "downlink": _CONSTANT,
    },
    "sweep_r": {
        "task": "regression_v5a", "mode": "fedavg", "data": _V5A_DATA,
        "fedavg": dict(_V5A_FED, learning_rate_override=0.0035136418446315328),
        "sgd": None, "uplink": _CONSTANT, "downlink": _CONSTANT,
    },
    "noniid_softmax": {
        "task": "classification_synth", "mode": "fedavg",
        "data": {"m": 2000, "d": 10, "seed": 7, "label_noise_variance": 0.0,
                 "normalize_hessian": True, "n_classes": 4, "cluster_separation": 4.0,
                 "partition": "label_shard", "labels_per_client": 2},
        "fedavg": {"n": 20, "r": 5, "E": 5, "K": 40, "gamma": 18.0, "batch_size": 10,
                   "learning_rate_override": None},
        "sgd": None, "uplink": _OFF, "downlink": _OFF,
    },
}

WORKLOADS = tuple(_BASE)
SWEEP_VALUES = (10, 40)
_REPEATS = {"reference": 6, "sweep_r": 1, "noniid_softmax": 6}


def repeat_seeds(workload: str, seed: int) -> list[int]:
    """Run seeds for a workload seed: consecutive blocks, disjoint across seeds."""
    if seed < 0:
        raise ValueError("workload seed must be >= 0")
    n = _REPEATS[workload]
    return [seed * n + j for j in range(1, n + 1)]


def config_text(workload: str, seed: int) -> str:
    """The config file for one workload seed; a pure function of its arguments."""
    doc = copy.deepcopy(_BASE[workload])
    doc["repeat_seeds"] = repeat_seeds(workload, seed)
    doc["out_prefix"] = f"out/perfbench_{workload}"
    return json.dumps(doc, indent=2) + "\n"


def rounds(workload: str) -> int:
    return _BASE[workload]["fedavg"]["K"]


def cli_argv(workload: str, config_path: str, out_prefix: str) -> list[str]:
    """Arguments for ``noisyfed.cli.main`` that run the workload once."""
    if workload == "sweep_r":
        return ["sweep", "--config", config_path, "--axis", "r",
                "--values", ",".join(map(str, SWEEP_VALUES)), "--out", out_prefix]
    return ["run", "--config", config_path, "--out", out_prefix]
