"""Experiment assembly: configs to datasets, runs, and output files.

Per-seed metrics land in ``{prefix}_seed{S}.csv`` with the fixed column set
round, train_loss, grad_norm_sq, uplink_var, downlink_var, snr_up,
snr_down, diverged; numeric fields carry 12 significant digits, SNR fields
are empty while the channel is off, and the diverged flag is 0/1. A
``{prefix}_summary.json`` aggregates final losses, sampled round indices,
and, for federated runs at the prescribed learning rate, the error-bound
report evaluated with the measured initial loss and gradient-variance
estimate. Outputs are byte-deterministic for a fixed config.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import fedavg
from .channel import NoiseSchedule, variance_at
from .config import ExperimentConfig
from .data import (SyntheticRegressionSpec, generate_classification, generate_regression,
                   partition_iid, partition_label_shard)
from .fedavg import RunResult, Task, kstar_weights, run_noisy_fedavg, run_noisy_sgd, step_size
from .model import LossModel, loss, smoothness_constant
from .theory import TheoryParams, empirical_sigma2, fedavg_error_bound, min_rounds


def build_task(cfg: ExperimentConfig) -> Task:
    """Materialize the Task (dataset, loss model, partition) of a config.

    The dataset and partition depend only on the data seed, so repeat seeds
    share one Task and vary only client sampling, batches, and channel draws.
    """
    d = cfg.data
    if cfg.task == "regression_v5a":
        spec = SyntheticRegressionSpec(m=d.m, d=d.d,
                                       label_noise_variance=d.label_noise_variance,
                                       normalize_hessian=d.normalize_hessian)
        dataset = generate_regression(spec, d.seed)
        model = LossModel(kind="mse_linear", dim=d.d)
        L = smoothness_constant(model, dataset.X)
        f_star = loss(model, dataset.theta_eff, dataset.X, dataset.y)
        model = LossModel(kind="mse_linear", dim=d.d, smoothness=L, f_star=f_star)
        partition = partition_iid(d.m, cfg.fedavg.n, d.seed)
    else:
        dataset = generate_classification(d.m, d.d, d.n_classes, d.cluster_separation, d.seed)
        model = LossModel(kind="softmax_linear", dim=d.n_classes * d.d, n_classes=d.n_classes)
        L = smoothness_constant(model, dataset.X)
        model = LossModel(kind="softmax_linear", dim=d.n_classes * d.d,
                          n_classes=d.n_classes, smoothness=L)
        if d.partition == "label_shard":
            partition = partition_label_shard(dataset, cfg.fedavg.n, d.labels_per_client, d.seed)
        else:
            partition = partition_iid(d.m, cfg.fedavg.n, d.seed)
    return Task(dataset, model, partition)


def run_one_seed(cfg: ExperimentConfig, task: Task, seed: int) -> RunResult:
    """One repeat seed's run."""
    if cfg.mode == "sgd":
        s = cfg.sgd
        return run_noisy_sgd(task.model, task.dataset, s.eta, s.T, s.batch_size,
                             cfg.uplink, cfg.downlink, seed)
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


def bound_inputs(cfg: ExperimentConfig, task: Task, probe_params=None,
                 trials: int = 20) -> TheoryParams:
    """Measured TheoryParams for the configured run (no simulation).

    f0 is the loss at the zero start, from the run metrics' evaluation
    (called through the fedavg module, so a wrapper installed on
    ``fedavg._global_metrics`` sees this call too); sigma2 is the
    Monte-Carlo variance estimate at the probe points (defaults to the start
    alone).
    """
    fb, model = cfg.fedavg, task.model
    w0 = np.zeros(model.dim)
    probes = [w0] if probe_params is None else probe_params
    f0, _ = fedavg._global_metrics(model, task.metric_inputs, w0)
    sigma2 = empirical_sigma2(task, probes, fb.batch_size, trials, cfg.data.seed)
    sum_u2, sum_n2 = schedule_power_sums(cfg, model.dim)
    return TheoryParams(n=fb.n, r=fb.r, E=fb.E, K=fb.K, gamma=fb.gamma,
                        L=model.smoothness, eta=step_size(fb, model.smoothness),
                        sigma2=sigma2, f0=f0, sum_U2=sum_u2, sum_N2=sum_n2)


def run_experiment(cfg: ExperimentConfig, out_prefix: str | None = None,
                   seed_override: int | None = None) -> dict:
    """Execute one run per repeat seed and write metrics plus a summary.

    Returns the summary document. Divergence is recorded, not an error.
    """
    prefix = out_prefix or cfg.out_prefix
    seeds = [seed_override] if seed_override is not None else list(cfg.repeat_seeds)
    task = build_task(cfg)
    results = [run_one_seed(cfg, task, s) for s in seeds]

    outdir = os.path.dirname(prefix)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    paths = []
    for seed, res in zip(seeds, results):
        path = f"{prefix}_seed{seed}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(metrics_csv_text(res.metrics))
        paths.append(path)

    finals = np.array([r.final_loss for r in results], dtype=float)
    fb = cfg.fedavg
    theory_eta = cfg.mode == "fedavg" and fb.learning_rate_override is None
    summary = {
        "task": cfg.task,
        "mode": cfg.mode,
        "eta": results[0].eta,
        "theory_eta": theory_eta,
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
    if cfg.mode == "fedavg":
        mr = min_rounds(fb.r, fb.gamma)
        summary["min_rounds"] = mr
        summary["K_meets_min_rounds"] = fb.K >= mr
    if theory_eta:
        probes = [np.zeros(task.model.dim)] + [r.final_params for r in results]
        params = bound_inputs(cfg, task, probes)
        report = fedavg_error_bound(params)
        pweighted = {str(s): _pweighted_grad(r, report.zeta, fb.K) for s, r in zip(seeds, results)}
        vals = [v for v in pweighted.values() if v is not None]
        summary["bound_report"] = {
            "leading": report.leading,
            "term_uplink": report.term_uplink,
            "term_sgd_variance": report.term_sgd_variance,
            "term_downlink": report.term_downlink,
            "total": report.total,
            "zeta": report.zeta, "zeta2": report.zeta2, "zeta3": report.zeta3,
            "f0": params.f0, "sigma2": params.sigma2,
            "sum_U2": params.sum_U2, "sum_N2": params.sum_N2,
            "p_weighted_grad_norm_sq": pweighted,
            "bound_holds": bool(vals) and max(vals) <= report.total,
        }
    else:
        summary["bound_report"] = None

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
    noise-free mean at the same value. The three variants of each
    (value, seed) run side by side in one ``fedavg.run_replicas`` call, on
    one set of cohort and batch draws. Repeated axis values are rejected.
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

    prefix = out_prefix or cfg.out_prefix
    outdir = os.path.dirname(prefix)
    if outdir:
        os.makedirs(outdir, exist_ok=True)

    task = build_task(cfg)
    rows = []
    table = {}
    for v, fed in zip(values, points):
        variants = sweep_variants(dataclasses.replace(cfg, fedavg=fed))
        channels = [(c.uplink, c.downlink) for c in variants.values()]
        finals = {name: [] for name in variants}
        for s in cfg.repeat_seeds:
            for name, res in zip(variants, fedavg.run_replicas(fed, task, s, channels)):
                finals[name].append(res.final_loss)
        means = {name: float(np.mean(fl)) for name, fl in finals.items()}
        for name in variants:
            rows.append((v, name, means[name], means[name] - means["noise_free"]))
        table[v] = means

    path = f"{prefix}_sweep_{axis}.csv"
    with open(path, "w", newline="") as fh:
        fh.write("axis,value,variant,final_loss,excess\n")
        for v, name, fl, exc in rows:
            fh.write(f"{axis},{v},{name},{_fmt(fl)},{_fmt(exc)}\n")
    return {"axis": axis, "values": values, "rows": rows, "csv": path, "table": table}
