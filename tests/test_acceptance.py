"""Acceptance suite: every exit criterion, one PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 2 through 6 exercise the bundled reference experiment family
(the 50-client, 15000-sample normalized regression task). Each test prints
an ``ACCEPTANCE`` line before asserting so the verdicts are visible in one
place.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from noisyfed.channel import NoiseSchedule, compare_policies, perturb
from noisyfed.data import (SyntheticRegressionSpec, generate_regression,
                           partition_iid, partition_label_shard,
                           generate_classification)
from noisyfed.experiment import (_pweighted_grad, bound_inputs, build_task,
                                 run_experiment, run_one_seed, run_sweep,
                                 schedule_power_sums, sweep_variants)
from noisyfed.fedavg import learning_rate, run_noisy_fedavg, sample_kstar
from noisyfed.fedavg import FedAvgConfig, Task
from noisyfed.model import LossModel, full_gradient, gradient, smoothness_constant
from noisyfed.theory import (TheoryParams, bcd_gap, bcd_witness, fedavg_error_bound,
                             zeta)
from oracles import finite_difference_gradient
from presets import preset

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweeps")
    cfg = preset("v5a_sweep")
    r_sweep = run_sweep(cfg, "r", [5, 10, 20, 40], out_prefix=str(out / "r"))
    e_sweep = run_sweep(cfg, "E", [1, 2, 5, 10], out_prefix=str(out / "e"))
    return r_sweep, e_sweep


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def finals(runs):
    return np.array([runs[s].final_loss for s in SEEDS])


def pooled_std(a, b):
    return float(np.sqrt((np.var(a, ddof=1) + np.var(b, ddof=1)) / 2.0))


class TestAcceptance:
    def test_01_learning_rate_reproduction(self):
        lr = learning_rate(18.0, 1.0, 5, 10, 100)
        ok = abs(lr - 0.003514) <= 1e-4
        assert report(1, "learning-rate reproduction", ok,
                      f"learning_rate(18,1,5,10,100)={lr:.7f}, target 0.003514 +- 1e-4")

    def test_02_constant_noise_asymmetry(self, v5a_runs):
        nf = finals(v5a_runs["v5a_noise_free"])
        up = finals(v5a_runs["v5a_uplink_only"])
        dn = finals(v5a_runs["v5a_downlink_only"])
        gap1, gap2 = up.mean() - nf.mean(), dn.mean() - up.mean()
        thr1, thr2 = 3 * pooled_std(nf, up), 3 * pooled_std(up, dn)
        ok = (nf.mean() < up.mean() < dn.mean()) and gap1 > thr1 and gap2 > thr2
        assert report(2, "constant-noise asymmetry", ok,
                      f"means nf={nf.mean():.3f} < up={up.mean():.3f} < dn={dn.mean():.3f}; "
                      f"gaps {gap1:.3f}>{thr1:.3f}, {gap2:.3f}>{thr2:.3f} "
                      "(3x pooled seed std of each compared pair)")

    def test_03_snr_control_recovery(self, v5a_runs):
        # Red on this simulator (gap ~0.70 over seeds 1-3). Of it, ~0.63 comes
        # from the 1/sqrt(k+1) uplink schedule alone and ~0.04 from the
        # downlink schedule alone. The uplink draw is added after eta, at
        # parameter scale; the Omega(sqrt(k)) order suffices only for a draw on
        # the reported gradient sum before the server applies eta, as the bound
        # assumes. Moving the draw there closes the gap (~0.04) but turns
        # acceptance 2 red; which link model is meant is an open decision.
        nf = finals(v5a_runs["v5a_noise_free"]).mean()
        ctl = finals(v5a_runs["v5a_snr_control"]).mean()
        gap = abs(ctl - nf)
        ok = gap <= 0.25
        assert report(3, "decaying-noise recovery", ok,
                      f"|control - noise-free| = |{ctl:.4f} - {nf:.4f}| = {gap:.4f}, "
                      "tolerance 0.25")

    def test_04_bound_dominates_measurements(self, v5a_task, v5a_runs):
        model = v5a_task.model
        cfg = preset("v5a_constant_noise")
        runs = v5a_runs["v5a_constant_noise"]
        probes = [np.zeros(model.dim)] + [runs[s].final_params for s in SEEDS]
        params = bound_inputs(cfg, v5a_task, probes)
        total = fedavg_error_bound(params).total
        fb = cfg.fedavg
        z = zeta(runs[SEEDS[0]].eta, model.smoothness, fb.E, fb.n, fb.r)
        measured = [_pweighted_grad(runs[s], z, fb.K) for s in SEEDS]
        ok = all(m is not None and m <= total for m in measured)
        assert report(4, "bound dominance", ok,
                      f"weighted grad-norms {[f'{m:.2f}' for m in measured]} "
                      f"all <= bound total {total:.2f} "
                      f"(sigma2={params.sigma2:.2f}, f0={params.f0:.2f})")

    def test_05_rate_check(self, v5a_task):
        base = preset("v5a_noise_free")
        vals = {}
        for K in (25, 100, 400):
            cfg = dataclasses.replace(base, fedavg=dataclasses.replace(base.fedavg, K=K))
            best = [min(m.grad_norm_sq for m in
                        run_one_seed(cfg, v5a_task, s).metrics)
                    for s in SEEDS]
            vals[K] = float(np.mean(best))
        r1, r2 = vals[25] / vals[100], vals[100] / vals[400]
        ok = vals[25] > vals[100] > vals[400] and r1 >= 1.5 and r2 >= 1.5
        assert report(5, "horizon rate check", ok,
                      f"min grad-norm {vals[25]:.3g} / {vals[100]:.3g} / {vals[400]:.3g} "
                      f"at K=25/100/400; ratios {r1:.2f}, {r2:.2f} >= 1.5")

    @staticmethod
    def _slope(sweep, variant):
        xs, ys = [], []
        for v in sweep["values"]:
            exc = sweep["table"][v][variant] - sweep["table"][v]["noise_free"]
            assert exc > 0, f"non-positive excess at {v}"
            xs.append(np.log(v))
            ys.append(np.log(exc))
        return float(np.polyfit(xs, ys, 1)[0])

    @staticmethod
    def _predicted_uplink_slope(sweep, model):
        """Log-log slope of the bound's uplink term along the sweep's axis.

        The sweep pins eta, so the run at each axis point is the
        prescribed-rate run for gamma_eff = sqrt(r/K) / (eta L E); the bound
        is evaluated there. Returns the slope and the gamma_eff range.
        """
        base = preset("v5a_sweep")
        eta, L = base.fedavg.learning_rate_override, model.smoothness
        xs, ys, gammas = [], [], []
        for v in sweep["values"]:
            fb = dataclasses.replace(base.fedavg, **{sweep["axis"]: v})
            cfg = sweep_variants(dataclasses.replace(base, fedavg=fb))["uplink_only"]
            sum_u2, _ = schedule_power_sums(cfg, model.dim)
            gamma = float(np.sqrt(fb.r / fb.K) / (eta * L * fb.E))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the bound must apply at every point
                term = fedavg_error_bound(TheoryParams(
                    n=fb.n, r=fb.r, E=fb.E, K=fb.K, gamma=gamma, L=L, eta=eta,
                    sum_U2=sum_u2)).term_uplink
            xs.append(np.log(v))
            ys.append(np.log(term))
            gammas.append(gamma)
        return float(np.polyfit(xs, ys, 1)[0]), min(gammas), max(gammas)

    def _check_uplink_slope(self, num, sweep, model, half_width):
        slope = self._slope(sweep, "uplink_only")
        pred, g_lo, g_hi = self._predicted_uplink_slope(sweep, model)
        lo, hi = pred - half_width, pred + half_width
        ok = lo <= slope <= hi
        assert report(num, f"uplink excess slope vs {sweep['axis']}", ok,
                      f"slope={slope:.3f}, window [{lo:.2f}, {hi:.2f}] "
                      f"(prediction {pred:.3f} from the bound's uplink term at "
                      f"gamma_eff in [{g_lo:.1f}, {g_hi:.1f}])")

    def test_06a_sweep_slope_uplink_vs_r(self, sweeps, v5a_task):
        self._check_uplink_slope("6a", sweeps[0], v5a_task.model, 0.3)

    def test_06b_sweep_slope_downlink_vs_r(self, sweeps):
        slope = self._slope(sweeps[0], "downlink_only")
        ok = -0.15 <= slope <= 0.15
        assert report("6b", "downlink excess slope vs r", ok,
                      f"slope={slope:.3f}, window [-0.15, 0.15] (prediction 0)")

    def test_06c_sweep_slope_uplink_vs_e(self, sweeps, v5a_task):
        self._check_uplink_slope("6c", sweeps[1], v5a_task.model, 0.6)

    def test_07_power_budget(self):
        cmp = compare_policies(100, 5)
        ok = (abs(cmp.uplink_budget - 671.46) <= 0.01
              and cmp.prior_uplink_budget == 5050.0
              and abs(cmp.uplink_ratio - 0.1330) <= 0.001
              and cmp.downlink_ratio == pytest.approx(25.0, rel=1e-9))
        assert report(7, "power budget", ok,
                      f"uplink {cmp.uplink_budget:.2f}/{cmp.prior_uplink_budget:.0f}"
                      f"={cmp.uplink_ratio:.4f} (target 0.1330 +- 0.001); "
                      f"downlink ratio {cmp.downlink_ratio:.1f} = E^2")

    def test_08_property_suite(self, tmp_path):
        checks = {}

        # gradient vs central differences, 100 cases per model kind
        rng = np.random.default_rng(0)
        worst = 0.0
        for kind, C in (("mse_linear", 0), ("softmax_linear", 3)):
            for _ in range(100):
                d = int(rng.integers(2, 7))
                m = int(rng.integers(3, 12))
                dim = d if C == 0 else C * d
                model = LossModel(kind, dim=dim, n_classes=C)
                X = rng.standard_normal((m, d))
                y = (rng.standard_normal(m) if C == 0
                     else rng.integers(0, C, m).astype(np.int64))
                w = rng.standard_normal(dim)
                g = gradient(model, w, X, y)
                fd = finite_difference_gradient(model, w, X, y, 1e-6)
                worst = max(worst, np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12))
        checks["finite-difference"] = worst < 1e-6

        # partition laws for both partitioners
        part = partition_iid(1003, 17, seed=5)
        ok_p = part.covers(1003)
        ds = generate_classification(500, 4, 10, 3.0, seed=5)
        part2 = partition_label_shard(ds, 25, 2, seed=5)
        ok_p &= part2.covers(500)
        ok_p &= all(len(np.unique(ds.y[s])) <= 2 for s in part2.shards)
        checks["partition-laws"] = ok_p

        # perturbation moments
        z = perturb(np.zeros(100_000), 0.04, np.random.default_rng(11))
        checks["noise-moments"] = (abs(z.mean()) <= 3 * 0.2 / np.sqrt(z.size)
                                   and abs(z.var() - 0.04) / 0.04 < 0.05)

        # uniform round sampling at zero rate, chi-square at the 1% level
        rng = np.random.default_rng(13)
        counts = np.bincount([sample_kstar(0.0, 10, rng) for _ in range(100_000)],
                             minlength=10)
        chi2 = float(((counts - 10_000.0) ** 2 / 10_000.0).sum())
        checks["kstar-uniformity"] = chi2 < 21.666  # df=9, alpha=0.01

        # full-batch single-step full-participation run equals gradient descent
        ds = generate_regression(SyntheticRegressionSpec(m=200, d=4,
                                                         label_noise_variance=0.05), 3)
        model = LossModel("mse_linear", dim=4,
                          smoothness=smoothness_constant(LossModel("mse_linear", dim=4), ds.X))
        partition = partition_iid(200, 5, seed=3)
        cfg = FedAvgConfig(n=5, r=5, E=1, K=3, gamma=18.0, batch_size=40)
        res = run_noisy_fedavg(cfg, Task(ds, model, partition), 0)
        w = np.zeros(4)
        for _ in range(3):
            grads = [full_gradient(model, w, ds.X[s], ds.y[s]) for s in partition.shards]
            w = w - res.eta * np.mean(np.stack(grads), axis=0)
        checks["degeneracy-bit-equality"] = bool(np.array_equal(res.final_params, w))

        # byte determinism of a repeated run
        cfg_file = preset("v5a_noise_free")
        prefix = str(tmp_path / "det")
        run_experiment(cfg_file, out_prefix=prefix, seed_override=1)
        blobs1 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run_experiment(cfg_file, out_prefix=prefix, seed_override=1)
        blobs2 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        checks["byte-determinism"] = blobs1 == blobs2

        ok = all(checks.values())
        assert report(8, "property suite", ok,
                      "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))

    def test_09_dissimilarity_counterexample(self):
        details = []
        ok = True
        for G in (1.0, 10.0, 100.0):
            w = bcd_witness(G, 50)
            gap = bcd_gap(w, 50)
            ok &= gap > G * G
            details.append(f"G={G:g}: gap({w:.3f})={gap:.1f}>{G * G:g}")
        assert report(9, "dissimilarity counterexample", ok, "; ".join(details))
