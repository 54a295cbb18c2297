import numpy as np
import pytest

from noisyfed.config import preset
from noisyfed.data import SyntheticRegressionSpec, generate_regression, partition_iid
from noisyfed.experiment import build_task, run_one_seed
from noisyfed.model import LossModel, smoothness_constant

V5A_PRESETS = ("v5a_noise_free", "v5a_uplink_only", "v5a_downlink_only",
               "v5a_constant_noise", "v5a_snr_control")


@pytest.fixture(scope="session")
def v5a_task():
    """Shared reference task: dataset, loss model, partition (data seed fixed)."""
    return build_task(preset("v5a_noise_free"))


@pytest.fixture(scope="session")
def v5a_runs(v5a_task):
    """All reference-preset runs, keyed preset name -> {seed: RunResult}."""
    out = {}
    for name in V5A_PRESETS:
        cfg = preset(name)
        out[name] = {s: run_one_seed(cfg, v5a_task, s) for s in cfg.repeat_seeds}
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
