"""Experiment assembly: configs to datasets, runs, and output files.

Per-seed metrics land in ``{prefix}_seed{S}.csv`` with the fixed column set
round, train_loss, grad_norm_sq, uplink_var, downlink_var, snr_up,
snr_down, diverged; numeric fields carry 12 significant digits, SNR fields
are empty while the channel is off, and the diverged flag is 0/1. A
``{prefix}_summary.json`` aggregates final losses, sampled round indices,
and, for federated runs at a learning rate the theorem covers (prescribed or
pinned, gamma = sqrt(r/K) / (eta L E) above 4), the error-bound report at
that rate, evaluated with the measured initial loss and the exact
stochastic-gradient variance. Outputs are byte-deterministic for a fixed config.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import fedavg
from .channel import NoiseSchedule, variance_at
from .config import ExperimentConfig
from .data import (ClientPartition, SyntheticRegressionSpec, generate_classification,
                   generate_regression, partition_iid, partition_label_shard)
from .fedavg import RunResult, Task, kstar_weights, run_noisy_fedavg, run_noisy_sgd, step_size
from .model import LossModel, smoothness_constant
from .model import loss  # noqa: F401 (perfbench's hook table wraps experiment.loss)
from .theory import (TheoryParams, empirical_sigma2, fedavg_error_bound, min_rounds,
                     rate_constant)


def build_task(cfg: ExperimentConfig) -> Task:
    """Materialize the Task (dataset, loss model, partition) of a config.

    The dataset and partition depend only on the data seed, so repeat seeds
    share one Task and vary only client sampling, batches, and channel draws.
    In sgd mode the partition is one shard of every row in order, whose
    client 0 is the single machine; the fedavg block does not partition it.
    """
    d = cfg.data
    if cfg.task == "regression_v5a":
        spec = SyntheticRegressionSpec(m=d.m, d=d.d,
                                       label_noise_variance=d.label_noise_variance,
                                       normalize_hessian=d.normalize_hessian)
        dataset = generate_regression(spec, d.seed)
        model = LossModel(kind="mse_linear", dim=d.d)
    else:
        dataset = generate_classification(d.m, d.d, d.n_classes, d.cluster_separation, d.seed)
        model = LossModel(kind="softmax_linear", dim=d.n_classes * d.d, n_classes=d.n_classes)
    if cfg.mode == "sgd":
        partition = ClientPartition([np.arange(len(dataset), dtype=np.int64)])
    elif d.partition == "label_shard":
        partition = partition_label_shard(dataset, cfg.fedavg.n, d.labels_per_client, d.seed)
    else:
        partition = partition_iid(d.m, cfg.fedavg.n, d.seed)
    model = dataclasses.replace(model, smoothness=smoothness_constant(model, dataset.X))
    return Task(dataset, model, partition)


def run_one_seed(cfg: ExperimentConfig, task: Task, seed: int) -> RunResult:
    """One repeat seed's run."""
    if cfg.mode == "sgd":
        s = cfg.sgd
        return run_noisy_sgd(task, s.eta, s.T, s.batch_size, cfg.uplink, cfg.downlink, seed)
    return run_noisy_fedavg(cfg.fedavg, task, seed, cfg.uplink, cfg.downlink)


def _fmt(x) -> str:
    return f"{x:.12g}"


def metrics_csv_text(metrics) -> str:
    lines = ["round,train_loss,grad_norm_sq,uplink_var,downlink_var,snr_up,snr_down,diverged"]
    for m in metrics:
        lines.append(",".join([
            str(m.round), _fmt(m.train_loss), _fmt(m.grad_norm_sq),
            _fmt(m.uplink_variance), _fmt(m.downlink_variance),
            "" if m.mean_snr_up is None else _fmt(m.mean_snr_up),
            "" if m.mean_snr_down is None else _fmt(m.mean_snr_down),
            "1" if m.diverged else "0",
        ]))
    return "\n".join(lines) + "\n"


def _pweighted_grad(result: RunResult, zeta_value: float, K: int) -> float | None:
    if result.status != "completed":
        return None
    g2 = np.array([m.grad_norm_sq for m in result.metrics])
    return float(kstar_weights(zeta_value, K) @ g2)


def schedule_power_sums(cfg: ExperimentConfig, dim: int) -> tuple[float, float]:
    """Total expected squared noise norms summed over rounds (d * variance)."""
    fb = cfg.fedavg
    sum_u2 = sum(dim * variance_at(cfg.uplink, k, fb.E) for k in range(fb.K))
    sum_n2 = sum(dim * variance_at(cfg.downlink, k, fb.E) for k in range(fb.K))
    return sum_u2, sum_n2


def bound_inputs(cfg: ExperimentConfig, task: Task, probe_params=None) -> TheoryParams:
    """Measured TheoryParams for the configured run (no simulation).

    f0 is the loss at the zero start, from the run metrics' evaluation
    (called through the fedavg module, so a wrapper installed on
    ``fedavg._global_metrics`` sees this call too); sigma2 is the exact
    stochastic-gradient variance of the configured batch size, maximized over
    the client shards and the probe points (defaults to the start alone).
    """
    fb, model = cfg.fedavg, task.model
    w0 = np.zeros(model.dim)
    probes = [w0] if probe_params is None else probe_params
    f0, _ = fedavg._global_metrics(model, task.metric_inputs, w0)
    sigma2 = empirical_sigma2(task, probes, fb.batch_size)
    sum_u2, sum_n2 = schedule_power_sums(cfg, model.dim)
    return TheoryParams(n=fb.n, r=fb.r, E=fb.E, K=fb.K, L=model.smoothness,
                        eta=step_size(fb, model.smoothness),
                        sigma2=sigma2, f0=f0, sum_U2=sum_u2, sum_N2=sum_n2)


def run_experiment(cfg: ExperimentConfig, out_prefix: str | None = None,
                   seed_override: int | None = None) -> dict:
    """Execute one run per repeat seed and write metrics plus a summary.

    Returns the summary document. Divergence is recorded, not an error. In
    fedavg mode ``min_rounds``, ``K_meets_min_rounds`` and ``bound_report``
    are taken at the run's own eta, whether prescribed or pinned, and are all
    None where the theorem does not cover it (gamma <= 4). The bound report
    is computed before any file is written, so a ValueError from its inputs
    leaves no output behind.
    """
    prefix = out_prefix or cfg.out_prefix
    seeds = [seed_override] if seed_override is not None else list(cfg.repeat_seeds)
    task = build_task(cfg)
    results = [run_one_seed(cfg, task, s) for s in seeds]
    paths = [f"{prefix}_seed{seed}.csv" for seed in seeds]

    finals = np.array([r.final_loss for r in results], dtype=float)
    fb = cfg.fedavg
    summary = {
        "task": cfg.task,
        "mode": cfg.mode,
        "eta": results[0].eta,
        "theory_eta": cfg.mode == "fedavg" and fb.learning_rate_override is None,
        "seeds": seeds,
        "final_loss": {
            "per_seed": {str(s): float(r.final_loss) for s, r in zip(seeds, results)},
            "mean": float(finals.mean()),
            "std": float(finals.std(ddof=1)) if len(seeds) > 1 else 0.0,
        },
        "k_star": {str(s): r.k_star for s, r in zip(seeds, results)},
        "status": {str(s): r.status for s, r in zip(seeds, results)},
        "diverged_at": {str(s): r.diverged_at for s, r in zip(seeds, results)},
        "metrics_files": paths,
    }
    report = None
    if cfg.mode == "fedavg":
        summary["min_rounds"] = summary["K_meets_min_rounds"] = None
        if rate_constant(results[0].eta, task.model.smoothness, fb.E, fb.r, fb.K) > 4:
            probes = [np.zeros(task.model.dim)] + [r.final_params for r in results]
            params = bound_inputs(cfg, task, probes)
            bound = fedavg_error_bound(params)
            mr = min_rounds(fb.r, params.gamma)
            summary["min_rounds"], summary["K_meets_min_rounds"] = mr, fb.K >= mr
            pweighted = {str(s): _pweighted_grad(r, bound.zeta, fb.K)
                         for s, r in zip(seeds, results)}
            vals = [v for v in pweighted.values() if v is not None]
            report = dataclasses.asdict(bound) | {
                "f0": params.f0, "sigma2": params.sigma2,
                "sum_U2": params.sum_U2, "sum_N2": params.sum_N2,
                "p_weighted_grad_norm_sq": pweighted,
                "bound_holds": bool(vals) and max(vals) <= bound.total,
            }
    summary["bound_report"] = report

    outdir = os.path.dirname(prefix)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    for path, res in zip(paths, results):
        with open(path, "w", newline="") as fh:
            fh.write(metrics_csv_text(res.metrics))
    with open(f"{prefix}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    summary["summary_file"] = f"{prefix}_summary.json"
    return summary


def sweep_variants(cfg: ExperimentConfig):
    """The three channel variants a sweep compares, in the order its CSV lists them."""
    if cfg.uplink.off or cfg.downlink.off:
        raise ValueError("sweep base config must define both channel schedules")
    off_up, off_dn = NoiseSchedule("uplink"), NoiseSchedule("downlink")
    return {
        "noise_free": dataclasses.replace(cfg, uplink=off_up, downlink=off_dn),
        "uplink_only": dataclasses.replace(cfg, downlink=off_dn),
        "downlink_only": dataclasses.replace(cfg, uplink=off_up),
    }


def run_sweep(cfg: ExperimentConfig, axis: str, values, out_prefix: str | None = None) -> dict:
    """Run the noise-free/uplink-only/downlink-only triple along one axis.

    axis is "r" or "E"; emits ``{prefix}_sweep_{axis}.csv`` with one row per
    (value, variant): the seed-mean final loss and its excess over the
    noise-free mean at the same value. A mean over a diverged run is nan, and
    so is an excess over one; ``diverged`` lists each such (value, variant)
    with the seeds whose run diverged. The three variants of each
    (value, seed) run side by side in one ``fedavg.run_replicas`` call, on
    one set of cohort and batch draws. Repeated axis values are rejected. The
    CSV and its directory are written after every run, so a failed run leaves
    no output.
    """
    if cfg.mode != "fedavg":
        raise ValueError("sweeps apply to fedavg mode")
    if axis not in ("r", "E"):
        raise ValueError("axis must be 'r' or 'E'")
    values = [int(v) for v in values]
    if not values:
        raise ValueError("need at least one axis value")
    if len(set(values)) != len(values):
        raise ValueError(f"repeated {axis} values: {values}")
    points = []
    for v in values:
        try:
            points.append(dataclasses.replace(cfg.fedavg, **{axis: v}))
        except ValueError as exc:
            raise ValueError(f"{axis}={v}: {exc}") from exc

    task = build_task(cfg)
    rows, table, diverged = [], {}, []
    for v, fed in zip(values, points):
        variants = sweep_variants(dataclasses.replace(cfg, fedavg=fed))
        channels = [(c.uplink, c.downlink) for c in variants.values()]
        finals = {name: [] for name in variants}
        halted = {name: [] for name in variants}
        for s in cfg.repeat_seeds:
            for name, res in zip(variants, fedavg.run_replicas(fed, task, s, channels)):
                finals[name].append(res.final_loss)
                if res.status == "diverged":
                    halted[name].append(s)
        means = {name: np.nan if halted[name] else float(np.mean(fl))
                 for name, fl in finals.items()}
        for name in variants:
            rows.append((v, name, means[name], means[name] - means["noise_free"]))
            if halted[name]:
                diverged.append((v, name, halted[name]))
        table[v] = means

    prefix = out_prefix or cfg.out_prefix
    outdir = os.path.dirname(prefix)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    path = f"{prefix}_sweep_{axis}.csv"
    with open(path, "w", newline="") as fh:
        fh.write("axis,value,variant,final_loss,excess\n")
        for v, name, fl, exc in rows:
            fh.write(f"{axis},{v},{name},{_fmt(fl)},{_fmt(exc)}\n")
    return {"axis": axis, "values": values, "rows": rows, "csv": path, "table": table,
            "diverged": diverged}
