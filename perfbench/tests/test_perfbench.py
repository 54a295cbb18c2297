"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_config_is_a_pure_function_of_the_seed(workload):
    from noisyfed.config import parse_config

    texts = {seed: workloads.config_text(workload, seed) for seed in (0, 1, 7)}
    assert workloads.config_text(workload, 7) == texts[7]
    assert len(set(texts.values())) == 3
    fresh = subprocess.run(
        [sys.executable, "-c",
         f"import workloads, sys; sys.stdout.write(workloads.config_text({workload!r}, 7))"],
        cwd=BENCH, capture_output=True, text=True, check=True).stdout
    assert fresh == texts[7]
    cfg = parse_config(texts[7])
    assert list(cfg.repeat_seeds) == workloads.repeat_seeds(workload, 7)


def test_repeat_seeds_of_different_workload_seeds_are_disjoint():
    for workload in workloads.WORKLOADS:
        seen = set()
        for seed in range(20):
            seeds = set(workloads.repeat_seeds(workload, seed))
            assert not seeds & seen
            seen |= seeds


def test_every_hook_target_resolves():
    import noisyfed.fedavg as fedavg

    targets = [t for _, ts, _ in tracing.HOOKS + tracing.SEED_RUN_HOOKS for t in ts]
    assert [t for t in targets if tracing.resolve(t) is None] == []
    purposes = {fedavg._BATCH: "batch", fedavg._UPLINK: "uplink",
                fedavg._DOWNLINK: "downlink", fedavg._SAMPLE: "sample",
                fedavg._KSTAR: "kstar"}
    assert purposes == tracing.STREAM_PURPOSES


def test_missing_hook_target_is_reported_not_raised():
    assert tracing.resolve("noisyfed.fedavg.no_such_function") is None
    assert tracing.resolve("noisyfed.no_such_module.f") is None


def test_p90_needs_ten_samples_beyond_it():
    assert worker.tail_percentile(range(99), 0.9) is None
    assert worker.tail_percentile(range(100), 0.9) == 89
    assert worker.tail_percentile(range(100, 0, -1), 0.9) == 90
    assert worker.tail_percentile([], 0.9) is None


def test_output_check_tolerance():
    want = checks.load_expected()["reference"]["runs"]["1"]
    last_digit = dict(want, final_loss=want["final_loss"] * (1 + 1e-13))
    changed_draw = dict(want, final_loss=want["final_loss"] * (1 + 1e-8))
    assert checks._against_expected(last_digit, want) == []
    assert checks._against_expected(changed_draw, want) != []
    assert checks._against_expected(dict(want, k_star=want["k_star"] + 1), want) != []


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[kind]]


def test_tracing_changes_no_output_and_counts_repeat():
    (ROOT / workloads.WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / workloads.WORK_DIR) as tmp:
        session = worker.Session("noniid_softmax", workloads.DEFAULT_SEED, Path(tmp),
                                 checks.load_expected())
        _, untraced = session.invoke()
        session.check(untraced)
        runs = [worker._traced_invocation(session) for _ in range(2)]
    assert session.problems == [] and session.failed == 0
    assert session.attempted == 3 * len(workloads.repeat_seeds("noniid_softmax", 0))
    first, second = (tracing.layer_values(tr, tr.summary()) for _, tr, _ in runs)
    counts = [m for m in first if tracing.unit_of(m) != "s"]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["fedavg.rounds"] == 6 * workloads.rounds("noniid_softmax")
    assert first["channel.draws.uplink"] == 0
    assert runs[0][2] == []

    assert set(first) | set(tracing.RUN_UNITS) == set(tracing.PER_LAYER)


def test_declared_metrics_are_the_reported_ones():
    import run

    assert _declared("per_layer") == list(tracing.PER_LAYER)
    assert _declared("end_to_end") == list(run.END_TO_END_UNITS)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in doc["per_layer"] + doc["end_to_end"]}
    assert units == {**{m: tracing.unit_of(m) for m in tracing.PER_LAYER},
                     **run.END_TO_END_UNITS}
