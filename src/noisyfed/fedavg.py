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
computes each replica's K uplink and downlink variances, and before each
block of rounds (see below), per replica, the block's downlink noise scaled
by its variance, (B, d), and the client mean of its scaled uplink noise,
(B, d). The rounds then do only model-dependent work. Each round gathers
the batch rows once and steps all live replicas' cohorts in one local_steps
call; the metrics, the aggregation, the SNRs, the divergence guard and k*
stay per replica. Replica j's model is row j of one array all run, and a
halted replica's row, never written again, is its final params. Each
replica's result is bit-identical to running it alone, and
``run_noisy_fedavg`` is the one-replica case. ``run_noisy_sgd`` is client
0 of a one-shard task and differs only in its update rule, its uplink SNR
and its uniform k*: the same draws, metric inputs, guards, halted row and
result helpers.

Randomness is drawn from independent streams keyed by
(master seed, round, client, purpose), so client order and channel on/off
toggles never perturb unrelated draws; two runs with equal configs and
seeds are bit-identical, and paired runs differing only in one channel
share every other draw. Both loops draw from a (K, r) table of clients
(``_cohorts``, drawn for all K rounds, or client 0 every round for SGD)
one block of rounds at a time, through ``_draw_blocks``: it seeds every
batch and channel-noise key of all K rounds in one pass (``_draw_keys``,
64 B a key), then ``_cohort_draws`` makes a block's batches
(``streams.choices`` on each client's shard, bit-identical to numpy's own
draws), held as the dataset rows the loops read, and its unit-variance
channel noise, (B, d) for the downlink and (B, r, d) for the uplink
(``streams.normals``). A block holds the rounds whose batch draws fill one
``streams.choices`` block, and a loop drops it before the next is drawn,
so a run's draw memory does not grow with K r beyond its keys. Replicas
share these draws, each scaling them by its own variances; ``round_draws``
is the one block of all K rounds.

The reported train loss and gradient norm never feed back into training.
Both loops evaluate them from ``Task.metric_inputs``: for ``mse_linear`` in
O(d^2) from per-client sufficient statistics, which can differ from a
row-by-row evaluation in the last digits; for ``softmax_linear`` in one
weighted forward pass over every shard's rows, concatenated and validated
once per task, which can differ from a per-shard evaluation as well.
"""

from __future__ import annotations

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
    """The draws of a block of a seed's rounds, read-only: (B, r) ``cohorts`` and
    (B, r, E, b) ``rows``, both int64, and unit-variance noise, ``downlink`` (B, d)
    by round and ``uplink`` (B, r, d); row [k, j] of ``rows`` and ``uplink`` is
    client ``cohorts[k, j]``'s. ``rows`` holds dataset rows: each step's batch of
    the client's shard rows, sorted, then mapped through ``Task.row_map``. The noise
    arrays are None when no run has that channel on. ``round_draws`` gives the
    block of all K rounds."""
    cohorts: np.ndarray
    rows: np.ndarray
    downlink: np.ndarray | None
    uplink: np.ndarray | None


def round_draws(config: FedAvgConfig, task: Task, seed: int, channels=()) -> RoundDraws:
    """All K rounds' draws of the runs keyed like ``config`` and ``seed`` on
    ``task``, for the (uplink, downlink) pairs ``channels``, as one block: the
    [0, K) case of ``_cohort_draws``, the drawer the runs read block by block."""
    cohorts = _cohorts(config, task, seed)
    return _cohort_draws(task, _draw_keys(seed, cohorts, channels), cohorts,
                         config.E, config.batch_size, 0, config.K)


def _cohorts(config: FedAvgConfig, task: Task, seed: int) -> np.ndarray:
    """The (K, r) int64 table of every round's cohort: round k's is ``client_sample``
    from stream (seed, k, 0, sample), seeded in a pass of its own, since the other
    keys name the cohorts' clients. Checks the shard count and the batch size;
    ``streams.key_rows`` rejects a negative seed."""
    if task.partition.n_clients != config.n:
        raise ValueError("partition must have exactly n shards")
    if config.batch_size > min(task.shard_sizes):
        raise ValueError("batch_size exceeds a client shard")
    cohort_keys = streams.seed_keys(streams.key_rows(seed, np.arange(config.K), 0, _SAMPLE))
    return streams.choices(cohort_keys, config.n, config.r, 1)[:, 0]


def _draw_keys(seed: int, cohorts: np.ndarray, channels) -> tuple:
    """The seeded keys of every batch and channel-noise stream of the (K, r) table
    of clients ``cohorts``, in one pass: (batch, downlink, uplink), the batch and
    uplink keys (K r,) by round, then cohort slot, and the downlink keys (K,); a
    channel's keys are None when no (uplink, downlink) pair of ``channels`` has it
    on. Client i = cohorts[k, j]'s keys are (seed, k, i, batch) and (seed, k, i,
    uplink); round k's downlink key is (seed, k, 0, downlink)."""
    (K, r), ks = cohorts.shape, np.arange(cohorts.shape[0])
    rounds, clients, n = np.repeat(ks, r), cohorts.ravel(), K * r
    down = any(not link.off for _, link in channels)
    up = any(not link.off for link, _ in channels)
    columns = [(rounds, clients, _BATCH)] + [(ks, 0, _DOWNLINK)] * down \
        + [(rounds, clients, _UPLINK)] * up
    keys = streams.seed_keys(np.concatenate([streams.key_rows(seed, *c) for c in columns]))
    return keys[:n], keys[n:n + K] if down else None, keys[len(keys) - n:] if up else None


def _cohort_draws(task: Task, keys: tuple, cohorts: np.ndarray, E: int, b: int,
                  k0: int, k1: int) -> RoundDraws:
    """The draws of rounds [k0, k1) of the (K, r) table of clients ``cohorts`` on
    ``task``, from slices of ``_draw_keys``' ``keys``: client i = cohorts[k, j]'s E
    batches of b rows are successive ``sample_batch`` calls on its shard from its
    batch stream (``streams.choices``, bit-identical to numpy's own draws), and the
    unit noise is ``standard_normal(d)`` of its uplink stream and of round k's
    downlink stream (``streams.normals``)."""
    r, d, B = cohorts.shape[1], task.model.dim, k1 - k0
    batch, down, up = keys
    clients, slots = cohorts[k0:k1].ravel(), slice(k0 * r, k1 * r)
    rows = streams.choices(batch[slots], np.array(task.shard_sizes)[clients], b, E)
    rows += task.offsets[clients, None, None]
    # rows is both the index and the output: each slot's index is read before the slot
    # is written, and mode "clip" (every index is in range) leaves the output unbuffered,
    # so no second (B r, E, b) array is made
    np.take(task.row_map, rows, out=rows, mode="clip")
    downlink = None if down is None else _read_only(streams.normals(down[k0:k1], d))
    uplink = None if up is None else _read_only(streams.normals(up[slots], d).reshape(B, r, d))
    return RoundDraws(_read_only(cohorts[k0:k1]), _read_only(rows.reshape(B, r, E, b)),
                      downlink, uplink)


def _draw_blocks(task: Task, seed: int, cohorts: np.ndarray, E: int, b: int, channels):
    """(k0, ``_cohort_draws`` of rounds [k0, k1)) for blocks that tile [0, K) in
    order, after one ``_draw_keys`` pass for all K rounds. A block holds
    max(1, streams._ROWS // (E r)) rounds, those whose batch draws fill one
    ``streams.choices`` block, so a block's batches take one ``streams.words``
    call (``choices`` splits a round of more than _ROWS draws itself). Each
    block is drawn when the loop asks for it; a loop that drops its block before
    asking keeps one block's arrays alive."""
    K, r = cohorts.shape
    keys, size = _draw_keys(seed, cohorts, channels), max(1, streams._ROWS // (E * r))
    for k0 in range(0, K, size):
        yield k0, _cohort_draws(task, keys, cohorts, E, b, k0, min(K, k0 + size))


def _metric_inputs(loss_model, X, y, shards):
    """What _global_metrics evaluates from, built once per task from the rows
    (X, y) and ``shards``, a list of int64 index arrays.

    For mse_linear: the client means A = mean_i X_i^T X_i / m_i,
    b = mean_i X_i^T y_i / m_i and c = mean_i y_i^T y_i / m_i. They are
    unweighted over clients, like the metrics, so ragged shards need no
    special care. Each shard's rows are gathered as its terms are summed,
    so at most one shard's copy of X is held at a time.

    For softmax_linear: every shard's rows back to back, their int64 labels
    and a per-row weight 1/(n m_i), m_i the size of the row's shard, so one
    weighted pass over all rows gives the unweighted mean over clients. The
    shards are concatenated once and their rows gathered once, into the one
    copy of X the task keeps, and their shape and label range are checked
    there, once per task. Built without warnings; ValueError when a value is
    not finite (data too large for float64).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if loss_model.kind != "mse_linear":
            rows = np.concatenate(shards)
            Xs, ys = check_rows(loss_model, X[rows], y[rows])
            sizes = np.array([len(s) for s in shards])
            inputs = Xs, ys, np.repeat(1.0 / (len(shards) * sizes), sizes)
        else:
            d = loss_model.dim
            A, b, c = np.zeros((d, d)), np.zeros(d), 0.0
            for s in shards:
                Xs, ys = X[s], y[s]
                m = ys.shape[0]
                A += (Xs.T @ Xs) / m
                b += (Xs.T @ ys) / m
                c += float(ys @ ys) / m
            n = len(shards)
            inputs = A / n, b / n, c / n
    if not all(np.isfinite(v).all() for v in inputs):
        raise ValueError("the data's metric statistics are not finite in float64")
    return inputs


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


def _halted_row(rows, k, v_up, v_dn):
    """Round k's row of a run halted on a non-finite loss: flagged diverged, with no
    SNRs, carrying the last row's loss and gradient norm forward (zeros before any)."""
    f, g2 = (rows[-1].train_loss, rows[-1].grad_norm_sq) if rows else (0.0, 0.0)
    return RoundMetrics(k, f, g2, v_up, v_dn, None, None, diverged=True)


def _finished(rows, w, diverged_at, k_star, eta, loss_model, inputs):
    """The result of a run that ended at params ``w``: completed with ``k_star`` when
    ``diverged_at`` is None, else diverged at that round without k*. Called under the
    loops' errstate: a run halted on a non-finite loss ends at a w whose loss overflows."""
    final_loss, _ = _global_metrics(loss_model, inputs, w)
    done = diverged_at is None
    return RunResult(metrics=rows, final_params=w, k_star=k_star if done else None,
                     status="completed" if done else "diverged", diverged_at=diverged_at,
                     eta=eta, final_loss=final_loss)


def run_replicas(config: FedAvgConfig, task: Task, seed: int, channels) -> list[RunResult]:
    """Run K rounds of noisy federated averaging from master ``seed``, once per
    (uplink, downlink) schedule pair of ``channels``, in lockstep.

    The replicas share the task, the seed and the round draws, read one
    block of rounds at a time from ``_draw_blocks``: each round gathers its
    batch rows once and steps every live replica's cohort in one
    ``backend.local_steps`` call, and each replica scales the block's shared
    channel noise by its own schedule before the block's first round. Each result
    is bit-identical to a run of its pair alone. Metrics row k is measured at
    the round-k starting model over all n client shards. Batch rows are
    consumed in index order inside the local steps so that full-batch
    degenerate runs match full-gradient arithmetic bit for bit.

    Row j of one (R, d) array is replica j's model all run. Replica j halts as
    "diverged" in round k on a non-finite round-k loss (row k is then
    ``_halted_row``'s) or a next model of norm above 1e12 (row k is flagged);
    the others step on. Row j is never written again, so the result
    (``_finished``) holds its round-k starting model; once every replica has
    halted, no further block is drawn. ``_cohorts`` draws the cohorts and checks
    the seed, the shard count and the batch size before any round. It needs
    n >= 2 clients, because k*'s weights (``zeta``) do, and checks that first.
    """
    loss_model, dataset = task.model, task.dataset
    if loss_model.smoothness is None:
        raise ValueError("loss_model.smoothness must be set (see smoothness_constant)")
    if config.n < 2:
        raise ValueError("need n >= 2 clients")
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one (uplink, downlink) pair")
    cohorts = _cohorts(config, task, seed)

    n, r, E, K = config.n, config.r, config.E, config.K
    L = loss_model.smoothness
    eta = step_size(config, L)
    d = loss_model.dim
    inputs = task.metric_inputs
    V_up = [[variance_at(up, k, E) for k in range(K)] for up, _ in channels]
    V_dn = [[variance_at(down, k, E) for k in range(K)] for _, down in channels]

    R = len(channels)
    metrics = [[] for _ in channels]
    halted = [None] * R  # the round each replica halted in, None while it steps
    W = np.zeros((R, d))

    # a diverging replica overflows to inf or nan in its steps, its aggregate, its SNR or
    # its final loss before the guards below stop it: those values are their signal, not
    # a fault to warn about, so the whole loop runs under one errstate
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, draws in _draw_blocks(task, seed, cohorts, E, config.batch_size, channels):
            # what the block's rounds read that no model changes, per replica: its scaled
            # downlink noise and its client-mean uplink noise, (B, d) each and None when
            # that link is silent all block; a mean is np.mean's arithmetic, unwrapped. The
            # uplink is scaled round by round, so no (B, r, d) product is made
            block = slice(k0, k0 + len(draws.rows))
            down_noise = [draws.downlink * np.sqrt(v[block])[:, None] if any(v[block])
                          else None for v in V_dn]
            up_means = [np.stack([np.add.reduce(u * s, axis=0)
                                  for u, s in zip(draws.uplink, np.sqrt(v[block]))]) / r
                        if any(v[block]) else None for v in V_up]
            for k in range(block.start, block.stop):
                evals = {j: _global_metrics(loss_model, inputs, W[j])
                         for j in range(R) if halted[j] is None}
                for j, (f, _) in evals.items():
                    if not math.isfinite(f):
                        metrics[j].append(_halted_row(metrics[j], k, V_up[j][k], V_dn[j][k]))
                        halted[j] = k
                live = [j for j in evals if halted[j] is None]
                if not live:
                    break

                W_recv = W[live]
                for a, j in enumerate(live):
                    if V_dn[j][k] > 0:
                        W_recv[a] += down_noise[j][k - k0]
                # a lone replica steps from a 1-D start: the (1, P) form costs it a few
                # percent
                w_ends, accs = backend.local_steps(loss_model.kind, dataset.X, dataset.y,
                                                   W_recv[0] if len(live) == 1 else W_recv,
                                                   eta, draws.rows[k - k0], loss_model.n_classes)
                w_ends, accs = w_ends.reshape(len(live), r, d), accs.reshape(len(live), r, d)
                W_next = W_recv - eta * (np.add.reduce(accs, axis=1) / r)

                for a, j in enumerate(live):
                    v_up, v_dn, w, w_next = V_up[j][k], V_dn[j][k], W[j], W_next[a]
                    snr_up = None
                    if v_up > 0:
                        w_next += up_means[j][k - k0]
                        delta = W_recv[a] - w_ends[a]
                        snr_up = float(np.add.reduce(np.vecdot(delta, delta) / (d * v_up)) / r)
                    # the norm is nan or inf when a coordinate is, so this also catches those
                    ok = np.sqrt(np.vecdot(w_next, w_next)) <= DIVERGENCE_NORM
                    metrics[j].append(RoundMetrics(
                        k, *evals[j], v_up, v_dn, snr_up,
                        float(w @ w) / (d * v_dn) if v_dn > 0 else None, diverged=not ok))
                    if ok:
                        w[:] = w_next
                    else:
                        halted[j] = k
            # the next block is drawn with this one dropped, so one block's arrays are alive
            del draws, down_noise, up_means
            if None not in halted:
                break

        k_star = None
        if None in halted:
            k_star = sample_kstar(zeta(eta, L, E, n, r), K, _stream(seed, 0, 0, _KSTAR))
        return [_finished(metrics[j], W[j], halted[j], k_star, eta, loss_model, inputs)
                for j in range(R)]


def run_noisy_fedavg(config: FedAvgConfig, task: Task, seed: int,
                     uplink: NoiseSchedule = NoiseSchedule("uplink"),
                     downlink: NoiseSchedule = NoiseSchedule("downlink")) -> RunResult:
    """One run of noisy federated averaging: ``run_replicas`` with the one
    schedule pair (uplink, downlink)."""
    return run_replicas(config, task, seed, [(uplink, downlink)])[0]


def run_noisy_sgd(task: Task, eta: float, T: int, batch_size: int, uplink: NoiseSchedule,
                  downlink: NoiseSchedule, seed: int) -> RunResult:
    """Noisy single-machine SGD:
    w_{t+1} = w_t - eta * (e_t + batch_gradient(w_t + nu_t)).

    SGD is client 0 of ``task``, whose one shard holds every row: step t reads
    the draws of round t of a one-client federation with one local step,
    from ``_draw_blocks`` in blocks of streams._ROWS steps, so its batch comes
    from stream (seed, t, 0, batch) and its unit noise from (seed, t, 0,
    uplink) and (seed, t, 0, downlink).
    The downlink draw perturbs the point where the stochastic gradient is
    evaluated; the uplink draw rides on the gradient itself inside the step.
    Warns when eta exceeds 1/L. Metrics are measured at w_t from
    ``task.metric_inputs``, as the federated loop's are.

    The rules around the update are ``run_replicas``': noise scaled before each
    block, one block alive at a time, one errstate, the same halts and final
    params, and ``_finished``'s result. Only k* differs: it is uniform over the
    T steps.
    """
    if task.partition.n_clients != 1:
        raise ValueError("noisy SGD needs a task of one shard")
    if T < 1:
        raise ValueError("need T >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    loss_model, dataset = task.model, task.dataset
    if batch_size < 1 or batch_size > len(dataset):
        raise ValueError("need 1 <= batch_size <= dataset size")
    L = loss_model.smoothness
    if L is not None and L > 0 and eta > 1.0 / L:
        warnings.warn(f"eta={eta:.6g} exceeds 1/L={1.0 / L:.6g}")
    d = loss_model.dim
    V_up = [variance_at(uplink, t) for t in range(T)]
    V_dn = [variance_at(downlink, t) for t in range(T)]
    inputs = task.metric_inputs

    w = np.zeros(d)
    metrics: list[RoundMetrics] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, draws in _draw_blocks(task, seed, np.zeros((T, 1), np.int64), 1, batch_size,
                                      [(uplink, downlink)]):
            batches = draws.rows[:, 0, 0]
            block = slice(t0, t0 + len(batches))
            down_noise = None if downlink.off else draws.downlink * np.sqrt(V_dn[block])[:, None]
            up_noise = None if uplink.off else draws.uplink[:, 0] * np.sqrt(V_up[block])[:, None]
            for t in range(block.start, block.stop):
                train_loss, gns = _global_metrics(loss_model, inputs, w)
                v_up, v_dn = V_up[t], V_dn[t]
                if not math.isfinite(train_loss):
                    metrics.append(_halted_row(metrics, t, v_up, v_dn))
                    break
                point = w + down_noise[t - t0] if v_dn > 0 else w
                g = backend.batch_gradient(loss_model.kind, dataset.X, dataset.y, point,
                                           batches[t - t0], loss_model.n_classes)
                w_next = w - eta * (g + up_noise[t - t0] if v_up > 0 else g)
                ok = np.sqrt(np.vecdot(w_next, w_next)) <= DIVERGENCE_NORM
                metrics.append(RoundMetrics(t, train_loss, gns, v_up, v_dn,
                                            float(g @ g) / (d * v_up) if v_up > 0 else None,
                                            float(w @ w) / (d * v_dn) if v_dn > 0 else None,
                                            diverged=not ok))
                if not ok:
                    break
                w = w_next
            del draws, batches, down_noise, up_noise  # as run_replicas drops its block
            if metrics[-1].diverged:
                break

        div_at = t if metrics[-1].diverged else None
        k_star = sample_kstar(0.0, T, _stream(seed, 0, 0, _KSTAR)) if div_at is None else None
        return _finished(metrics, w, div_at, k_star, eta, loss_model, inputs)
