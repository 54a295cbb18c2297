import numpy as np
import pytest

from noisyfed.config import preset
from noisyfed.data import SyntheticRegressionSpec, generate_regression, partition_iid
from noisyfed.experiment import build_task, run_one_seed
from noisyfed.fedavg import run_replicas
from noisyfed.model import LossModel, smoothness_constant

V5A_PRESETS = ("v5a_noise_free", "v5a_uplink_only", "v5a_downlink_only",
               "v5a_constant_noise", "v5a_snr_control")


@pytest.fixture(scope="session")
def v5a_task():
    """Shared reference task: dataset, loss model, partition (data seed fixed)."""
    return build_task(preset("v5a_noise_free"))


@pytest.fixture(scope="session")
def v5a_runs(v5a_task):
    """All reference-preset runs, keyed preset name -> {seed: RunResult}.

    The presets differ only in their channels, so each seed's runs step side
    by side in one run_replicas call; should that stop holding, each preset
    runs on its own.
    """
    cfgs = [preset(name) for name in V5A_PRESETS]
    base = cfgs[0]
    if any((c.mode, c.data, c.fedavg, c.repeat_seeds) != (base.mode, base.data, base.fedavg,
                                                          base.repeat_seeds) for c in cfgs):
        return {name: {s: run_one_seed(cfg, v5a_task, s) for s in cfg.repeat_seeds}
                for name, cfg in zip(V5A_PRESETS, cfgs)}
    out = {name: {} for name in V5A_PRESETS}
    for s in base.repeat_seeds:
        runs = run_replicas(base.fedavg, v5a_task, s, [(c.uplink, c.downlink) for c in cfgs])
        for name, res in zip(V5A_PRESETS, runs):
            out[name][s] = res
    return out


@pytest.fixture(scope="session")
def small_regression():
    """A fast normalized regression task for unit tests."""
    spec = SyntheticRegressionSpec(m=400, d=8, label_noise_variance=0.05)
    dataset = generate_regression(spec, seed=42)
    probe = LossModel("mse_linear", dim=8)
    L = smoothness_constant(probe, dataset.X)
    model = LossModel("mse_linear", dim=8, smoothness=L)
    partition = partition_iid(400, 8, seed=42)
    return dataset, model, partition


def final_losses(runs_by_seed):
    return np.array([r.final_loss for r in runs_by_seed.values()])
