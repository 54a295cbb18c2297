"""Noisy federated averaging and the noisy single-machine SGD loop.

One communication round: the server broadcasts the model through a noisy
downlink (a single corrupted transmission per round, heard identically by
the r sampled clients), each client runs E local mini-batch SGD steps and
transmits its update through its own noisy uplink, and the server averages
what it receives against its own copy of the model. The r clients of a
round step side by side in one ``backend.local_steps`` call, on batch rows
mapped from each client's shard to dataset rows; each client's result is
bit-identical to stepping it alone on its shard. With both channels off,
E = 1, full participation, and full batches, the loop reduces bit-exactly
to centralized gradient descent.

Randomness is drawn from independent streams keyed by
(master seed, round, client, purpose), so client order and channel on/off
toggles never perturb unrelated draws; two runs with equal configs and
seeds are bit-identical, and paired runs differing only in one channel
share every other draw. A run draws each round's cohort and batch rows as
it goes, or takes them from ``round_draws``: a sweep builds those once per
(axis value, seed) and shares them across its three channel variants, with
results identical to runs that draw their own.

The reported train loss and gradient norm never feed back into training.
For ``mse_linear`` both loops evaluate them in O(d^2) from per-client
sufficient statistics built once per run, so they can differ from a
row-by-row evaluation in the last digits. For ``softmax_linear`` they come
from one weighted forward pass over every shard's rows, concatenated and
validated once per run, which can differ from a per-shard evaluation in
the last digits as well.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .channel import NoiseSchedule, variance_at
from .data import Dataset, ClientPartition, sample_batch
from .model import LossModel, check_params, check_rows
from .model import loss  # noqa: F401 (not called here; perfbench's hook table wraps fedavg.loss)
from .theory import zeta

DIVERGENCE_NORM = 1e12

# rng stream purposes
_BATCH, _UPLINK, _DOWNLINK, _SAMPLE, _KSTAR = 1, 2, 3, 4, 5


def _stream(seed: int, k: int, i: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(k), int(i), int(purpose)])


def learning_rate(gamma: float, L: float, E: int, r: int, K: int) -> float:
    """Prescribed rate (1 / (gamma L E)) * sqrt(r / K)."""
    if min(gamma, L) <= 0 or min(E, r, K) < 1:
        raise ValueError("gamma, L must be positive and E, r, K >= 1")
    return float(np.sqrt(r / K) / (gamma * L * E))


def min_rounds(r: int, gamma: float) -> float:
    """Smallest K for which the guarantee applies; singular at gamma <= 4."""
    if gamma <= 4:
        raise ValueError("gamma must exceed 4")
    if r < 0:
        raise ValueError("r must be >= 0")
    return max((1024.0 * r**3 / (9.0 * gamma**2)) * (1.0 / (gamma**2 - 16.0)) ** 2,
               4.0 * r / gamma**2)


def client_sample(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-r subset of [0, n), without replacement, in id order."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return np.sort(rng.choice(n, size=r, replace=False)).astype(np.int64)


def sample_kstar(zeta_value: float, K: int, rng: np.random.Generator) -> int:
    """Draw a round index from the geometric-weight distribution.

    Weight of round k is (1 + zeta)^(K-1-k); computed through log1p with a
    max shift so large K and zeta stay stable. zeta = 0 is uniform.
    """
    if zeta_value < 0:
        raise ValueError("zeta must be >= 0")
    if K < 1:
        raise ValueError("need K >= 1")
    logw = (K - 1 - np.arange(K)) * np.log1p(zeta_value)
    w = np.exp(logw - logw.max())
    return int(rng.choice(K, p=w / w.sum()))


@dataclass(frozen=True)
class FedAvgConfig:
    n: int
    r: int
    E: int
    K: int
    gamma: float
    batch_size: int
    seed: int
    learning_rate_override: float | None = None
    uplink: NoiseSchedule = field(default_factory=lambda: NoiseSchedule("uplink"))
    downlink: NoiseSchedule = field(default_factory=lambda: NoiseSchedule("downlink"))

    def __post_init__(self):
        if not 1 <= self.r <= self.n:
            raise ValueError("need 1 <= r <= n")
        if self.E < 1 or self.K < 1 or self.batch_size < 1:
            raise ValueError("need E >= 1, K >= 1, batch_size >= 1")
        if self.gamma <= 4:
            raise ValueError("gamma must exceed 4")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.learning_rate_override is not None and self.learning_rate_override <= 0:
            raise ValueError("learning_rate_override must be positive")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    train_loss: float
    grad_norm_sq: float
    uplink_variance: float          # per-coordinate
    downlink_variance: float        # per-coordinate
    mean_snr_up: float | None       # None when the uplink channel is off
    mean_snr_down: float | None
    diverged: bool = False


@dataclass(frozen=True)
class RunResult:
    metrics: list
    final_params: np.ndarray
    k_star: int | None
    status: str                     # "completed" | "diverged"
    diverged_at: int | None
    eta: float
    final_loss: float               # loss at the final global model


@dataclass(frozen=True)
class RoundDraws:
    """Every round's cohort and local batch rows of one run, drawn up front.

    ``cohorts`` is (K, r) and ``batches`` (K, r, E, b), both int64; batch
    rows index the client's shard and are sorted within each step. ``key``
    names the runs the draws fit: any run with an equal _draws_key.
    """
    key: tuple
    cohorts: np.ndarray
    batches: np.ndarray


def _draws_key(config: FedAvgConfig, partition: ClientPartition) -> tuple:
    return (config.seed, config.n, config.r, config.E, config.K, config.batch_size,
            tuple(len(s) for s in partition.shards))


def _local_rows(partition: ClientPartition) -> list:
    return [np.arange(len(s), dtype=np.int64) for s in partition.shards]


def _draw_round(config: FedAvgConfig, local_rows: list, k: int):
    """Round k's cohort and its (r, E, b) sorted local batch rows, from the keyed streams."""
    seed, E = config.seed, config.E
    selected = client_sample(config.n, config.r, _stream(seed, k, 0, _SAMPLE))
    batches = np.empty((config.r, E, config.batch_size), dtype=np.int64)
    for j, i in enumerate(selected):
        rng_b = _stream(seed, k, int(i), _BATCH)
        for e in range(E):
            batches[j, e] = sample_batch(local_rows[i], config.batch_size, rng_b)
    batches.sort(axis=2)
    return selected, batches


def round_draws(config: FedAvgConfig, partition: ClientPartition) -> RoundDraws:
    """All K rounds' draws of the runs keyed like ``config`` on ``partition``.

    Channel schedules and the learning rate do not enter: runs that differ
    only in those consume the same draws.
    """
    if partition.n_clients != config.n:
        raise ValueError("partition must have exactly n shards")
    local_rows = _local_rows(partition)
    cohorts = np.empty((config.K, config.r), dtype=np.int64)
    batches = np.empty((config.K, config.r, config.E, config.batch_size), dtype=np.int64)
    for k in range(config.K):
        cohorts[k], batches[k] = _draw_round(config, local_rows, k)
    cohorts.flags.writeable = batches.flags.writeable = False  # shared by several runs
    return RoundDraws(_draws_key(config, partition), cohorts, batches)


def _metric_inputs(loss_model, shard_X, shard_y):
    """What _global_metrics evaluates from, built once per run.

    For mse_linear: the client means A = mean_i X_i^T X_i / m_i,
    b = mean_i X_i^T y_i / m_i and c = mean_i y_i^T y_i / m_i. They are
    unweighted over clients, like the metrics, so ragged shards need no
    special care.

    For softmax_linear: every shard's rows back to back, their int64 labels
    and a per-row weight 1/(n m_i), m_i the size of the row's shard, so one
    weighted pass over all rows gives the unweighted mean over clients. Each
    shard's shape and label range are checked here, once per run.
    """
    if loss_model.kind != "mse_linear":
        shards = [check_rows(loss_model, X, y) for X, y in zip(shard_X, shard_y)]
        sizes = np.array([y.shape[0] for _, y in shards])
        weights = np.repeat(1.0 / (len(shards) * sizes), sizes)
        return (np.concatenate([X for X, _ in shards]),
                np.concatenate([y for _, y in shards]), weights)
    d = loss_model.dim
    A, b, c = np.zeros((d, d)), np.zeros(d), 0.0
    for X, y in zip(shard_X, shard_y):
        m = y.shape[0]
        A += (X.T @ X) / m
        b += (X.T @ y) / m
        c += float(y @ y) / m
    n = len(shard_y)
    return A / n, b / n, c / n


def _global_metrics(loss_model, inputs, w):
    """Client-averaged train loss and squared norm of the mean full gradient.

    ``inputs`` comes from _metric_inputs. For mse_linear both are quadratic
    forms in w: loss = (w^T A w - 2 b^T w + c) / 2 and gradient A w - b, an
    O(d^2) evaluation that can differ from a row-by-row one in the last
    digits. For softmax_linear one backend.softmax_loss_and_gradient pass
    over all shard rows, weighted 1/(n m_i); ``w`` must be finite.
    """
    if loss_model.kind == "mse_linear":
        A, b, c = inputs
        Aw = A @ w
        g = Aw - b
        return 0.5 * (float(w @ Aw) - 2.0 * float(b @ w) + c), float(g @ g)
    X, y, weights = inputs
    f, g = backend.softmax_loss_and_gradient(X, y, check_params(loss_model, w), weights,
                                             loss_model.n_classes)
    return f, float(g @ g)


def run_noisy_fedavg(config: FedAvgConfig, loss_model: LossModel,
                     partition: ClientPartition, dataset: Dataset,
                     draws: RoundDraws | None = None) -> RunResult:
    """Run K communication rounds of noisy federated averaging.

    Metrics row k is measured at the round-k starting model over all n
    client shards. Batch rows are consumed in index order inside the local
    steps so that full-batch degenerate runs match full-gradient arithmetic
    bit for bit. The run halts with status "diverged" when the loss goes
    non-finite or the parameter norm exceeds 1e12; the offending round's row
    carries the diverged flag. Cohorts and batch rows come from ``draws``
    when given (see round_draws), else are drawn round by round; the result
    is the same.
    """
    if partition.n_clients != config.n:
        raise ValueError("partition must have exactly n shards")
    if draws is not None and draws.key != _draws_key(config, partition):
        raise ValueError("draws were built for a different seed, shape or partition")
    if not partition.covers(len(dataset)):
        raise ValueError("partition must cover the dataset")
    if loss_model.smoothness is None:
        raise ValueError("loss_model.smoothness must be set (see smoothness_constant)")
    for shard in partition.shards:
        if config.batch_size > shard.size:
            raise ValueError("batch_size exceeds a client shard")

    n, r, E, K = config.n, config.r, config.E, config.K
    L = loss_model.smoothness
    eta = config.learning_rate_override
    if eta is None:
        eta = learning_rate(config.gamma, L, E, r, K)
    d = loss_model.dim
    seed = config.seed

    inputs = _metric_inputs(loss_model, [dataset.X[s] for s in partition.shards],
                            [dataset.y[s] for s in partition.shards])
    local_rows = _local_rows(partition)
    # client i's local row j is dataset row row_map[offsets[i] + j]
    row_map = np.concatenate(partition.shards)
    offsets = np.cumsum([0] + [len(s) for s in partition.shards[:-1]], dtype=np.int64)

    w = np.zeros(d)
    metrics: list[RoundMetrics] = []
    status, div_at = "completed", None

    for k in range(K):
        train_loss, gns = _global_metrics(loss_model, inputs, w)
        v_up = variance_at(config.uplink, k, E)
        v_dn = variance_at(config.downlink, k, E)
        snr_down = float(w @ w) / (d * v_dn) if v_dn > 0 else None

        if not np.isfinite(train_loss):
            prev = metrics[-1] if metrics else None
            metrics.append(RoundMetrics(k, prev.train_loss if prev else 0.0,
                                        prev.grad_norm_sq if prev else 0.0,
                                        v_up, v_dn, None, None, diverged=True))
            status, div_at = "diverged", k
            break

        if draws is None:
            selected, batches = _draw_round(config, local_rows, k)
        else:
            selected, batches = draws.cohorts[k], draws.batches[k]
        if v_dn > 0:
            nu = _stream(seed, k, 0, _DOWNLINK).standard_normal(d) * np.sqrt(v_dn)
            w_recv = w + nu
        else:
            w_recv = w

        w_ends, accs = backend.local_steps(loss_model.kind, dataset.X, dataset.y, w_recv, eta,
                                           row_map[offsets[selected, None, None] + batches],
                                           loss_model.n_classes)
        noises = []
        up_snrs = []
        if v_up > 0:
            for i, w_end in zip(selected, w_ends):
                noises.append(_stream(seed, k, int(i), _UPLINK).standard_normal(d) * np.sqrt(v_up))
                delta = w_recv - w_end
                up_snrs.append(float(delta @ delta) / (d * v_up))

        w_next = w_recv - eta * np.mean(accs, axis=0)
        if noises:
            w_next = w_next + np.mean(np.stack(noises), axis=0)

        row = RoundMetrics(k, train_loss, gns, v_up, v_dn,
                           float(np.mean(up_snrs)) if up_snrs else None, snr_down)
        if not np.isfinite(w_next).all() or np.linalg.norm(w_next) > DIVERGENCE_NORM:
            metrics.append(dataclasses.replace(row, diverged=True))
            status, div_at = "diverged", k
            break
        metrics.append(row)
        w = w_next

    k_star = None
    if status == "completed":
        z = zeta(eta, L, E, n, r)
        k_star = sample_kstar(z, K, _stream(seed, 0, 0, _KSTAR))

    fl, _ = _global_metrics(loss_model, inputs, w)
    return RunResult(metrics=metrics, final_params=w, k_star=k_star,
                     status=status, diverged_at=div_at, eta=eta, final_loss=fl)


def run_noisy_sgd(loss_model: LossModel, dataset: Dataset, eta: float, T: int,
                  batch_size: int, uplink: NoiseSchedule, downlink: NoiseSchedule,
                  seed: int) -> RunResult:
    """Noisy single-machine SGD:
    w_{t+1} = w_t - eta * (e_t + batch_gradient(w_t + nu_t)).

    The downlink draw perturbs the point where the stochastic gradient is
    evaluated; the uplink draw rides on the gradient itself inside the step.
    Warns when eta exceeds 1/L. Metrics are measured at w_t over the whole
    dataset, taken as one shard of the federated loop's evaluation.
    """
    if T < 1:
        raise ValueError("need T >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if batch_size < 1 or batch_size > len(dataset):
        raise ValueError("need 1 <= batch_size <= dataset size")
    L = loss_model.smoothness
    if L is not None and L > 0 and eta > 1.0 / L:
        warnings.warn(f"eta={eta:.6g} exceeds 1/L={1.0 / L:.6g}")
    d = loss_model.dim
    m = len(dataset)
    idx_all = np.arange(m, dtype=np.int64)
    w = np.zeros(d)
    metrics: list[RoundMetrics] = []
    status, div_at = "completed", None

    inputs = _metric_inputs(loss_model, [dataset.X], [dataset.y])

    for t in range(T):
        train_loss, gns = _global_metrics(loss_model, inputs, w)
        v_up = variance_at(uplink, t)
        v_dn = variance_at(downlink, t)

        if not np.isfinite(train_loss):
            prev = metrics[-1] if metrics else None
            metrics.append(RoundMetrics(t, prev.train_loss if prev else 0.0,
                                        prev.grad_norm_sq if prev else 0.0,
                                        v_up, v_dn, None, None, diverged=True))
            status, div_at = "diverged", t
            break

        batch = np.sort(sample_batch(idx_all, batch_size, _stream(seed, t, 0, _BATCH)))
        point = w
        if v_dn > 0:
            point = w + _stream(seed, t, 0, _DOWNLINK).standard_normal(d) * np.sqrt(v_dn)
        g = backend.batch_gradient(loss_model.kind, dataset.X, dataset.y, point, batch,
                                   loss_model.n_classes)
        step = g
        if v_up > 0:
            step = g + _stream(seed, t, 0, _UPLINK).standard_normal(d) * np.sqrt(v_up)
        w_next = w - eta * step

        row = RoundMetrics(t, train_loss, gns, v_up, v_dn,
                           float(g @ g) / (d * v_up) if v_up > 0 else None,
                           float(w @ w) / (d * v_dn) if v_dn > 0 else None)
        if not np.isfinite(w_next).all() or np.linalg.norm(w_next) > DIVERGENCE_NORM:
            metrics.append(dataclasses.replace(row, diverged=True))
            status, div_at = "diverged", t
            break
        metrics.append(row)
        w = w_next

    k_star = None
    if status == "completed":
        k_star = sample_kstar(0.0, T, _stream(seed, 0, 0, _KSTAR))
    fl, _ = _global_metrics(loss_model, inputs, w)
    return RunResult(metrics=metrics, final_params=w, k_star=k_star,
                     status=status, diverged_at=div_at, eta=eta, final_loss=fl)
