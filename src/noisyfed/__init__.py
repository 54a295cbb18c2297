"""Federated averaging under noisy uplink/downlink channels.

Simulator, noise-control schedules, and closed-form convergence-error
bounds for studying how channel noise on each communication direction
degrades federated training.
"""

from .backend import active_backend
from .channel import (InfiniteBudgetError, NoiseSchedule, PolicyComparison,
                      compare_policies, power_budget, variance_at)
from .data import (ClientPartition, Dataset, SyntheticRegressionSpec,
                   generate_classification, generate_regression,
                   partition_iid, partition_label_shard, sample_batch)
from .fedavg import (FedAvgConfig, RoundMetrics, RunResult, client_sample,
                     run_noisy_fedavg, run_noisy_sgd, sample_kstar)
from .model import LossModel, full_gradient, loss, smoothness_constant
from .theory import (BoundReport, TheoryParams, bcd_gap, bcd_witness,
                     empirical_sigma2, sgd_error_bound, fedavg_error_bound,
                     learning_rate, min_rounds, zeta, zeta2, zeta3)

__version__ = "0.1.0"
