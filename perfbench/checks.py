"""Output checks behind ``failed``: every seed run of every invocation.

For the default workload seed, each run is compared with ``expected.json``:
per-seed final loss, status, k_star, CSV header and row count, and for the
sweep every CSV row. Floats compare at ``REL_TOL``, which passes last-digit
arithmetic changes and fails any changed noise, batch or cohort draw. For
other seeds, each run is checked against the schema alone. The worker also
checks that every invocation in one benchmark run wrote identical bytes.

Regenerate ``expected.json`` (after a deliberate change of the simulated
model) from the repository root with ``python3 perfbench/checks.py``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import workloads

REL_TOL = 1e-9
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
SWEEP_VARIANTS = ("noise_free", "uplink_only", "downlink_only")


def run_ids(workload: str, seed: int) -> list[str]:
    """One id per seed run an invocation performs."""
    if workload == "sweep_r":
        return [f"r={v}/{name}" for v in workloads.SWEEP_VALUES for name in SWEEP_VARIANTS]
    return [str(s) for s in workloads.repeat_seeds(workload, seed)]


def read_outputs(directory) -> dict:
    """File name -> bytes for every file the CLI wrote."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def extract(workload: str, seed: int, files: dict) -> dict:
    """The checked fields of one invocation's outputs; raises on malformed files."""
    if workload == "sweep_r":
        lines = files["sweep_r_sweep_r.csv"].decode().splitlines()
        runs = {}
        for line in lines[1:]:
            axis, value, variant, final, excess = line.split(",")
            runs[f"{axis}={value}/{variant}"] = {"final_loss": float(final),
                                                 "excess": float(excess)}
        return {"header": lines[0], "runs": runs}
    summary = json.loads(files[f"{workload}_summary.json"])
    runs, header = {}, None
    for rid in run_ids(workload, seed):
        lines = files[f"{workload}_seed{rid}.csv"].decode().splitlines()
        header = lines[0]
        runs[rid] = {"final_loss": summary["final_loss"]["per_seed"][rid],
                     "status": summary["status"][rid],
                     "k_star": summary["k_star"][rid],
                     "csv_rows": len(lines) - 1}
    return {"header": header, "summary_keys": sorted(summary), "runs": runs}


def _against_expected(got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want.items():
        have = got.get(key)
        same = math.isclose(have, value, rel_tol=REL_TOL) if isinstance(value, float) and isinstance(have, float) \
            else have == value
        if not same:
            problems.append(f"{key}: got {have!r}, expected {value!r}")
    return problems


def _against_schema(workload: str, got: dict) -> list[str]:
    loss = got.get("final_loss")
    if not isinstance(loss, float) or not math.isfinite(loss):
        return [f"final_loss not a finite float: {loss!r}"]
    if workload == "sweep_r":
        return [] if math.isfinite(got.get("excess", math.nan)) else ["excess not finite"]
    K = workloads.rounds(workload)
    if got.get("status") == "completed":
        ok = got.get("csv_rows") == K and isinstance(got.get("k_star"), int) \
            and 0 <= got["k_star"] < K
    else:
        ok = got.get("status") == "diverged" and got.get("k_star") is None \
            and 1 <= got.get("csv_rows", 0) <= K
    return [] if ok else [f"inconsistent status/k_star/rows: {got!r}"]


def check(workload: str, seed: int, files: dict, expected: dict) -> dict:
    """run id -> list of problems (empty when the run passes)."""
    ids = run_ids(workload, seed)
    want = expected[workload]
    try:
        got = extract(workload, seed, files)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return {rid: [f"unreadable outputs: {exc!r}"] for rid in ids}
    shared = []
    if got["header"] != want["header"]:
        shared.append(f"header {got['header']!r}")
    if got.get("summary_keys") != want.get("summary_keys"):
        shared.append(f"summary keys {got.get('summary_keys')}")
    problems = {}
    for rid in ids:
        run = got["runs"].get(rid)
        if run is None:
            problems[rid] = shared + ["run missing from outputs"]
        elif seed == workloads.DEFAULT_SEED:
            problems[rid] = shared + _against_expected(run, want["runs"][rid])
        else:
            problems[rid] = shared + _against_schema(workload, run)
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def record() -> dict:
    """Run each workload once at the default seed and extract its outputs."""
    os.environ.update(workloads.THREAD_ENV)
    os.environ.pop("NOISYFED_BACKEND", None)
    import tempfile

    import worker

    root = Path(__file__).resolve().parents[1]
    (root / workloads.WORK_DIR).mkdir(exist_ok=True)
    expected = {}
    with tempfile.TemporaryDirectory(dir=root / workloads.WORK_DIR) as tmp:
        for workload in workloads.WORKLOADS:
            workdir = Path(tmp, workload)
            workdir.mkdir()
            session = worker.Session(workload, workloads.DEFAULT_SEED, workdir, None)
            _, files = session.invoke()
            expected[workload] = extract(workload, workloads.DEFAULT_SEED, files)
    return expected


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    EXPECTED_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
