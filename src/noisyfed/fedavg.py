"""Noisy federated averaging and the noisy single-machine SGD loop.

One communication round: the server broadcasts the model through a noisy
downlink (a single corrupted transmission per round, heard identically by
the r sampled clients), each client runs E local mini-batch SGD steps from
the model it received and transmits its update through its own noisy
uplink, and the server's next model is the mean of what it receives: the
received model minus eta times the mean of the clients' gradient sums,
plus the mean of the uplink draws. The r clients of a round step side by
side in one ``backend.local_steps`` call, on batch rows mapped from each
client's shard to dataset rows; each client's result is bit-identical to
stepping it alone on its shard. With both channels off, E = 1, full
participation, and full batches, the loop reduces bit-exactly to
centralized gradient descent.

There is one round loop, ``run_replicas``: it steps R replicas that share
a task, a seed and their draws and differ only in their (uplink, downlink)
schedules, such as a sweep's three channel variants. Before its rounds it
computes, per replica, every array the rounds read that no model changes:
the K rounds' uplink and downlink variances, the downlink noise scaled by
its variance, (K, d), and the client mean of the scaled uplink noise,
(K, d). The rounds then do only model-dependent work. Each round gathers
the batch rows once and steps all replicas' cohorts in one local_steps
call; the metrics, the aggregation, the SNRs, the divergence guard and k*
stay per replica, and a diverged replica leaves the stack while the others
step on. Each replica's result is bit-identical to running it alone, and
``run_noisy_fedavg`` is the one-replica case.

Randomness is drawn from independent streams keyed by
(master seed, round, client, purpose), so client order and channel on/off
toggles never perturb unrelated draws; two runs with equal configs and
seeds are bit-identical, and paired runs differing only in one channel
share every other draw. ``round_draws`` makes all of a seed's draws up
front, keyed by ``streams.key_rows`` and seeded in two passes: every
round's cohort, its clients' batches (``streams.choices`` on each client's
shard, bit-identical to numpy's own draws), held as the dataset rows the
round loop reads, and unit-variance channel noise, (K, d) for the downlink
and (K, r, d) for the uplink (``streams.normals``). Replicas share these
draws: a round's downlink and uplink draws are scaled by each replica's
own variance.

The reported train loss and gradient norm never feed back into training.
For ``mse_linear`` both loops evaluate them in O(d^2) from per-client
sufficient statistics built once per task, so they can differ from a
row-by-row evaluation in the last digits. For ``softmax_linear`` they come
from one weighted forward pass over every shard's rows, concatenated and
validated once per task, which can differ from a per-shard evaluation in
the last digits as well.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import backend, streams
from .channel import NoiseSchedule, variance_at
from .data import Dataset, ClientPartition
from .data import sample_batch  # noqa: F401 (perfbench's hook table wraps fedavg.sample_batch)
from .model import LossModel, check_params, check_rows
from .model import loss  # noqa: F401 (not called here; perfbench's hook table wraps fedavg.loss)
from .theory import learning_rate, zeta

DIVERGENCE_NORM = 1e12

# rng stream purposes
_BATCH, _UPLINK, _DOWNLINK, _SAMPLE, _KSTAR = 1, 2, 3, 4, 5


def _stream(seed: int, k: int, i: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(k), int(i), int(purpose)])


def step_size(fb: FedAvgConfig, L: float) -> float:
    """The override of ``fb`` if set, else the prescribed rate."""
    if fb.learning_rate_override is not None:
        return fb.learning_rate_override
    return learning_rate(fb.gamma, L, fb.E, fb.r, fb.K)


def client_sample(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-r subset of [0, n), without replacement, in id order."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return np.sort(rng.choice(n, size=r, replace=False)).astype(np.int64)


def kstar_weights(zeta_value: float, K: int) -> np.ndarray:
    """Round weights (1 + zeta)^(K-1-k) normalized to sum 1, through log1p with a
    max shift so large K and zeta stay stable; zeta = 0 is uniform."""
    if not (math.isfinite(zeta_value) and zeta_value >= 0):
        raise ValueError(f"zeta must be finite and >= 0, got {zeta_value}")
    if K < 1:
        raise ValueError("need K >= 1")
    logw = (K - 1 - np.arange(K)) * np.log1p(zeta_value)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def sample_kstar(zeta_value: float, K: int, rng: np.random.Generator) -> int:
    """Draw a round index from the kstar_weights distribution."""
    return int(rng.choice(K, p=kstar_weights(zeta_value, K)))


@dataclass(frozen=True)
class FedAvgConfig:
    """The federated block: n clients, r sampled per round, E local steps of
    batch size b, K rounds, the rate constant gamma, and a fixed learning
    rate that replaces the prescribed one when set."""
    n: int
    r: int
    E: int
    K: int
    gamma: float
    batch_size: int
    learning_rate_override: float | None = None

    def __post_init__(self):
        if not 1 <= self.r <= self.n:
            raise ValueError("need 1 <= r <= n")
        if self.E < 1 or self.K < 1 or self.batch_size < 1:
            raise ValueError("need E >= 1, K >= 1, batch_size >= 1")
        if self.gamma <= 4:
            raise ValueError("gamma must exceed 4")
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Task:
    """The dataset, loss model and covering partition every run of an invocation shares.

    The cover check reads the indices the partition sorted when it checked
    them for duplicates. The rest is built on first use and read-only:
    client i's local row j is dataset row ``row_map[offsets[i] + j]``, and
    ``metric_inputs`` is what _global_metrics evaluates from, gathered one
    shard at a time for mse_linear, so the task holds one copy of X.
    """
    dataset: Dataset
    model: LossModel
    partition: ClientPartition

    def __post_init__(self):
        if not self.partition.covers(len(self.dataset)):
            raise ValueError("partition must cover the dataset")

    @cached_property
    def shard_sizes(self) -> tuple:
        return tuple(len(s) for s in self.partition.shards)

    @cached_property
    def row_map(self) -> np.ndarray:
        return _read_only(np.concatenate(self.partition.shards))

    @cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(np.cumsum((0,) + self.shard_sizes[:-1], dtype=np.int64))

    @cached_property
    def metric_inputs(self) -> tuple:
        inputs = _metric_inputs(self.model, self.dataset.X, self.dataset.y,
                                self.partition.shards)
        return tuple(_read_only(v) if isinstance(v, np.ndarray) else v for v in inputs)


@dataclass(frozen=True)
class RoundDraws:
    """Every draw of one seed's runs, read-only: (K, r) ``cohorts`` and (K, r, E, b)
    ``rows``, both int64, and unit-variance noise, ``downlink`` (K, d) by round and
    ``uplink`` (K, r, d); row [k, j] of ``rows`` and ``uplink`` is client
    ``cohorts[k, j]``'s. ``rows`` holds dataset rows: each step's batch of the
    client's shard rows, sorted, then mapped through ``Task.row_map``. The noise
    arrays are None when no run has that channel on."""
    cohorts: np.ndarray
    rows: np.ndarray
    downlink: np.ndarray | None
    uplink: np.ndarray | None


def _seeded(seed: int, *columns):
    """``streams.seed_keys`` of ``streams.key_rows(seed, *c)`` for each tuple c of
    ``columns``, in one seeding pass; None where c is None. The rows are equally
    long because every key is [seed, k, i, purpose]."""
    rows = [streams.key_rows(seed, *c) for c in columns if c is not None]
    keys = streams.seed_keys(np.concatenate(rows))
    ends = np.cumsum([len(r) for r in rows]).tolist()
    seeded = iter([keys[end - len(r):end] for r, end in zip(rows, ends)])
    return [None if c is None else next(seeded) for c in columns]


def round_draws(config: FedAvgConfig, task: Task, seed: int, channels=()) -> RoundDraws:
    """All K rounds' draws of the runs keyed like ``config`` and ``seed`` on
    ``task``, for the (uplink, downlink) pairs ``channels``; ``streams.key_rows``
    rejects a negative seed.

    Round k's cohort is ``client_sample`` from stream (seed, k, 0, sample),
    client i's E batches are successive ``sample_batch`` calls on stream
    (seed, k, i, batch), and the channel noise is ``standard_normal(d)`` of
    streams (seed, k, 0, downlink) and (seed, k, i, uplink), for each channel
    some pair has on. Runs that differ only in their variances or learning
    rate consume the same draws. The cohort keys are seeded first, since the
    batch and uplink keys name the cohorts' clients; then the batch and
    noise keys together. The batches' shard rows become dataset rows in
    place, so the seed holds one (K, r, E, b) array.
    """
    if task.partition.n_clients != config.n:
        raise ValueError("partition must have exactly n shards")
    n, r, E, K, b = config.n, config.r, config.E, config.K, config.batch_size
    if b > min(task.shard_sizes):
        raise ValueError("batch_size exceeds a client shard")
    ks, d = np.arange(K), task.model.dim
    cohort_keys = streams.seed_keys(streams.key_rows(seed, ks, 0, _SAMPLE))
    cohorts = streams.choices(cohort_keys, n, r, 1)[:, 0]
    rounds, clients = np.repeat(ks, r), cohorts.ravel()
    down = any(not link.off for _, link in channels)
    up = any(not link.off for link, _ in channels)
    batch_keys, down_keys, up_keys = _seeded(seed, (rounds, clients, _BATCH),
                                             (ks, 0, _DOWNLINK) if down else None,
                                             (rounds, clients, _UPLINK) if up else None)
    rows = streams.choices(batch_keys, np.array(task.shard_sizes)[clients], b, E)
    rows += task.offsets[clients, None, None]
    # rows is both the index and the output: each slot's index is read before the slot
    # is written, and mode "clip" (every index is in range) leaves the output unbuffered,
    # so no second (K r, E, b) array is made
    np.take(task.row_map, rows, out=rows, mode="clip")
    downlink = None if down_keys is None else _read_only(streams.normals(down_keys, d))
    uplink = None if up_keys is None else _read_only(streams.normals(up_keys, d).reshape(K, r, d))
    return RoundDraws(_read_only(cohorts), _read_only(rows.reshape(K, r, E, b)), downlink, uplink)


def _metric_inputs(loss_model, X, y, shards):
    """What _global_metrics evaluates from, built once per task from the rows
    (X, y) and ``shards``, a list of row indexers (index arrays or slices).

    For mse_linear: the client means A = mean_i X_i^T X_i / m_i,
    b = mean_i X_i^T y_i / m_i and c = mean_i y_i^T y_i / m_i. They are
    unweighted over clients, like the metrics, so ragged shards need no
    special care. Each shard's rows are gathered as its terms are summed,
    so at most one shard's copy of X is held at a time.

    For softmax_linear: every shard's rows back to back, their int64 labels
    and a per-row weight 1/(n m_i), m_i the size of the row's shard, so one
    weighted pass over all rows gives the unweighted mean over clients. The
    rows are gathered once, into the one copy of X the task keeps, and their
    shape and label range are checked there, once per task.
    """
    if loss_model.kind != "mse_linear":
        index = np.arange(len(y))
        parts = [index[s] for s in shards]  # slices as index arrays too
        rows = np.concatenate(parts)
        Xs, ys = check_rows(loss_model, X[rows], y[rows])
        sizes = np.array([len(p) for p in parts])
        return Xs, ys, np.repeat(1.0 / (len(parts) * sizes), sizes)
    d = loss_model.dim
    A, b, c = np.zeros((d, d)), np.zeros(d), 0.0
    for s in shards:
        Xs, ys = X[s], y[s]
        m = ys.shape[0]
        A += (Xs.T @ Xs) / m
        b += (Xs.T @ ys) / m
        c += float(ys @ ys) / m
    n = len(shards)
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


def run_replicas(config: FedAvgConfig, task: Task, seed: int, channels) -> list[RunResult]:
    """Run K rounds of noisy federated averaging from master ``seed``, once per
    (uplink, downlink) schedule pair of ``channels``, in lockstep.

    The replicas share the task, the seed and the round draws, so each round
    gathers its batch rows once and steps every replica's cohort in one
    ``backend.local_steps`` call; they share the channel noise draws too,
    each scaled by its own schedule. Right after the draws, each replica's
    variances for all K rounds (one ``variance_at`` call per round and
    link), its scaled downlink noise and its client-mean scaled uplink noise
    are computed as arrays over the rounds, in the per-round arithmetic's
    order, so the loop holds only the work that depends on the models:
    metrics, local steps, aggregation, SNRs, the divergence guard and k*.
    Each result is bit-identical to a run of its pair alone. Metrics row k
    is measured at the round-k starting model over all n client shards.
    Batch rows are consumed in index order inside the local steps so that
    full-batch degenerate runs match full-gradient arithmetic bit for bit.
    A replica halts with status "diverged" when its loss goes non-finite or
    its parameter norm exceeds 1e12, and the offending round's row carries
    the diverged flag; the others step on. All draws come from one
    round_draws call, which also checks the seed, the shard count and the
    batch size. It needs n >= 2 clients, because k*'s weights (``zeta``) do,
    and checks that before drawing anything.
    """
    loss_model, dataset = task.model, task.dataset
    if loss_model.smoothness is None:
        raise ValueError("loss_model.smoothness must be set (see smoothness_constant)")
    if config.n < 2:
        raise ValueError("need n >= 2 clients")
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one (uplink, downlink) pair")
    draws = round_draws(config, task, seed, channels)

    n, r, E, K = config.n, config.r, config.E, config.K
    L = loss_model.smoothness
    eta = step_size(config, L)
    d = loss_model.dim
    inputs = task.metric_inputs

    # what the rounds read that no model changes, per replica: its variances by round,
    # its scaled downlink noise and its client-mean uplink noise, (K, d) each and None
    # when that link is silent all run; a mean is np.mean's arithmetic, unwrapped. The
    # uplink is scaled round by round: one (K, r, d) product raised sweep_r's peak RSS
    # (r = 40) by about 6 MiB in most benchmark runs
    V_up = [[variance_at(up, k, E) for k in range(K)] for up, _ in channels]
    V_dn = [[variance_at(down, k, E) for k in range(K)] for _, down in channels]
    down_noise = [draws.downlink * np.sqrt(v)[:, None] if any(v) else None for v in V_dn]
    up_means = [np.stack([np.add.reduce(draws.uplink[k] * s, axis=0)
                          for k, s in enumerate(np.sqrt(v))]) / r if any(v) else None
                for v in V_up]

    metrics = [[] for _ in channels]
    ends = [None] * len(channels)    # (final params, diverged_at) of each replica
    live = list(range(len(channels)))  # replicas still stepping; W[a] is live[a]'s model
    W = np.zeros((len(channels), d))

    # a diverging replica overflows to inf or nan in its steps, its aggregate or its SNR
    # before the guards below drop it: those values are their signal, not a fault to warn
    # about, so the whole loop runs under one errstate
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            evals = [_global_metrics(loss_model, inputs, w) for w in W]
            finite = [math.isfinite(f) for f, _ in evals]
            if not all(finite):
                for a, j in enumerate(live):
                    if finite[a]:
                        continue
                    prev = metrics[j][-1] if metrics[j] else None
                    metrics[j].append(RoundMetrics(k, prev.train_loss if prev else 0.0,
                                                   prev.grad_norm_sq if prev else 0.0,
                                                   V_up[j][k], V_dn[j][k], None, None,
                                                   diverged=True))
                    ends[j] = (W[a], k)
                live = [j for j, ok in zip(live, finite) if ok]
                evals = [ev for ev, ok in zip(evals, finite) if ok]
                W = W[finite]
                if not live:
                    break
            v_up = [V_up[j][k] for j in live]
            v_dn = [V_dn[j][k] for j in live]

            W_recv = W
            if any(v_dn):
                W_recv = W.copy()
                for a, j in enumerate(live):
                    if v_dn[a] > 0:
                        W_recv[a] += down_noise[j][k]

            # a lone replica steps from a 1-D start: the (1, P) form costs it a few percent
            w_ends, accs = backend.local_steps(loss_model.kind, dataset.X, dataset.y,
                                               W_recv[0] if len(live) == 1 else W_recv, eta,
                                               draws.rows[k], loss_model.n_classes)
            w_ends, accs = w_ends.reshape(len(live), r, d), accs.reshape(len(live), r, d)
            W_next = W_recv - eta * (np.add.reduce(accs, axis=1) / r)

            snr_up = [None] * len(live)
            if any(v_up):
                for a, j in enumerate(live):
                    if v_up[a] > 0:
                        W_next[a] += up_means[j][k]
                        delta = W_recv[a] - w_ends[a]
                        snr = np.vecdot(delta, delta) / (d * v_up[a])
                        snr_up[a] = float(np.add.reduce(snr) / r)

            # the norm is nan or inf when a coordinate is, so this also catches those
            ok = (np.sqrt(np.vecdot(W_next, W_next)) <= DIVERGENCE_NORM).tolist()
            for a, j in enumerate(live):
                w = W[a]
                metrics[j].append(RoundMetrics(
                    k, *evals[a], v_up[a], v_dn[a], snr_up[a],
                    float(w @ w) / (d * v_dn[a]) if v_dn[a] > 0 else None, diverged=not ok[a]))
                if not ok[a]:
                    ends[j] = (w, k)
            if not all(ok):
                live = [j for j, kept in zip(live, ok) if kept]
                W_next = W_next[ok]
                if not live:
                    break
            W = W_next

    for a, j in enumerate(live):
        ends[j] = (W[a], None)
    k_star = None
    if live:
        k_star = sample_kstar(zeta(eta, L, E, n, r), K, _stream(seed, 0, 0, _KSTAR))
    results = []
    for j, (w, div_at) in enumerate(ends):
        fl, _ = _global_metrics(loss_model, inputs, w)
        results.append(RunResult(metrics=metrics[j], final_params=w,
                                 k_star=None if div_at is not None else k_star,
                                 status="completed" if div_at is None else "diverged",
                                 diverged_at=div_at, eta=eta, final_loss=fl))
    return results


def run_noisy_fedavg(config: FedAvgConfig, task: Task, seed: int,
                     uplink: NoiseSchedule = NoiseSchedule("uplink"),
                     downlink: NoiseSchedule = NoiseSchedule("downlink")) -> RunResult:
    """One run of noisy federated averaging: ``run_replicas`` with the one
    schedule pair (uplink, downlink)."""
    return run_replicas(config, task, seed, [(uplink, downlink)])[0]


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
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
    ts = np.arange(T)
    batch_keys, down_keys, up_keys = _seeded(seed, (ts, 0, _BATCH),
                                             None if downlink.off else (ts, 0, _DOWNLINK),
                                             None if uplink.off else (ts, 0, _UPLINK))
    batches = streams.choices(batch_keys, len(dataset), batch_size, 1)[:, 0]
    if not downlink.off:
        down_noise = streams.normals(down_keys, d)
    if not uplink.off:
        up_noise = streams.normals(up_keys, d)
    w = np.zeros(d)
    metrics: list[RoundMetrics] = []
    status, div_at = "completed", None

    inputs = _metric_inputs(loss_model, dataset.X, dataset.y, [slice(None)])

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

        point = w
        if v_dn > 0:
            point = w + down_noise[t] * np.sqrt(v_dn)
        g = backend.batch_gradient(loss_model.kind, dataset.X, dataset.y, point, batches[t],
                                   loss_model.n_classes)
        step = g
        if v_up > 0:
            step = g + up_noise[t] * np.sqrt(v_up)
        w_next = w - eta * step

        row = RoundMetrics(t, train_loss, gns, v_up, v_dn,
                           float(g @ g) / (d * v_up) if v_up > 0 else None,
                           float(w @ w) / (d * v_dn) if v_dn > 0 else None)
        with np.errstate(over="ignore"):  # an overflow to inf is what this guard catches
            diverged = not np.isfinite(w_next).all() or np.linalg.norm(w_next) > DIVERGENCE_NORM
        if diverged:
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
