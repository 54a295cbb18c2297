"""Test oracles: numpy's own keyed draws, one Generator per key, that the replayed draws
of ``noisyfed.streams`` and ``noisyfed.fedavg.round_draws`` are checked against, a
central-difference gradient for the model's analytic one, the power iteration with
``np.linalg.norm`` that ``noisyfed.model._power_iteration_gram`` must match bit for bit,
two for ``noisyfed.theory.empirical_sigma2``'s exact sigma^2: a Monte-Carlo
estimate from trial batches and the direct sum over a stack of row gradients, and the
federated bound's terms as the paper prints them, in gamma form at the prescribed
rate, for ``noisyfed.theory.fedavg_error_bound``'s eta form.

A key is any sequence of non-negative ints, such as ``[seed, k, i, purpose]``
or a row of ``streams.key_rows``; both seed ``np.random.default_rng`` alike.
``numpy_choices`` and ``numpy_normals`` take the arguments of
``streams.choices`` and ``streams.normals`` and can stand in for them.
"""

import math

import numpy as np

from noisyfed import backend
from noisyfed.data import sample_batch
from noisyfed.fedavg import (_BATCH, _DOWNLINK, _SAMPLE, _UPLINK, RoundDraws, _stream,
                             client_sample)
from noisyfed.model import LossModel, check_params, check_rows, loss


def _rng(key):
    return np.random.default_rng([int(word) for word in key])


def numpy_choices(keys, m, b, count):
    """(N, count, b): each key's ``count`` successive ``choice(m, b, replace=False)``
    from its one Generator, each draw sorted; ``m`` is a size or one per key. ``keys``
    may be ``streams.SeededKeys``, whose rows are the keys."""
    keys = getattr(keys, "rows", keys)
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), (len(keys),))
    out = np.empty((len(keys), count, b), dtype=np.int64)
    for key, size, rows in zip(keys, m.tolist(), out):
        rng = _rng(key)
        rows[:] = [rng.choice(size, b, replace=False) for _ in range(count)]
    out.sort(axis=2)
    return out


def numpy_normals(keys, d):
    """(N, d): each key's ``standard_normal(d)``; ``keys`` may be ``streams.SeededKeys``."""
    keys = getattr(keys, "rows", keys)
    out = np.empty((len(keys), d))
    for key, row in zip(keys, out):
        row[:] = _rng(key).standard_normal(d)
    return out


def client_batches(m, batch_size, E, rng):
    """E sorted mini-batches of a size-m shard, drawn as run_noisy_fedavg draws them."""
    local = np.arange(m, dtype=np.int64)
    return np.stack([np.sort(sample_batch(local, batch_size, rng)) for _ in range(E)])


def keyed_stream_batches(cfg, task, seed):
    """A seed's (K, r) cohorts and (K, r, E, b) batches of shard rows, drawn one stream at
    a time: client_sample and sample_batch on _stream(seed, k, i, purpose)."""
    cohorts = np.stack([client_sample(cfg.n, cfg.r, _stream(seed, k, 0, _SAMPLE))
                        for k in range(cfg.K)])
    batches = np.stack([[client_batches(task.shard_sizes[i], cfg.batch_size, cfg.E,
                                        _stream(seed, k, i, _BATCH)) for i in cohort]
                        for k, cohort in enumerate(cohorts)])
    return cohorts, batches


def keyed_stream_draws(cfg, task, seed, channels=()):
    """A seed's RoundDraws drawn one stream at a time: keyed_stream_batches, each batch's
    shard rows taken from its client's shard in ``task.partition``, and the unit channel
    noise from _stream(seed, k, 0, downlink) and _stream(seed, k, i, uplink) for each
    channel some pair has on."""
    cohorts, batches = keyed_stream_batches(cfg, task, seed)
    shards = task.partition.shards
    rows = np.stack([[shards[i][local] for i, local in zip(cohort, round_batches)]
                     for cohort, round_batches in zip(cohorts, batches)])
    d, downlink, uplink = task.model.dim, None, None
    if any(not down.off for _, down in channels):
        downlink = np.stack([_stream(seed, k, 0, _DOWNLINK).standard_normal(d)
                             for k in range(cfg.K)])
    if any(not up.off for up, _ in channels):
        uplink = np.stack([[_stream(seed, k, i, _UPLINK).standard_normal(d) for i in cohort]
                           for k, cohort in enumerate(cohorts)])
    return RoundDraws(cohorts, rows, downlink, uplink)


def finite_difference_gradient(model: LossModel, params, X, y, step: float) -> np.ndarray:
    """Central-difference gradient of ``model.loss``: the oracle for ``model.full_gradient``."""
    if step <= 0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=np.float64)
    g = np.empty_like(params)
    for j in range(params.shape[0]):
        wp = params.copy()
        wm = params.copy()
        wp[j] += step
        wm[j] -= step
        g[j] = (loss(model, wp, X, y) - loss(model, wm, X, y)) / (2.0 * step)
    return g


def power_iteration_gram(X, tol):
    """(top eigenvalue of (1/m) X^T X, iterations run): the power iteration with the
    iterate's norm taken by ``np.linalg.norm``, the oracle for ``_power_iteration_gram``."""
    m, d = X.shape
    C = (X.T @ X) / m
    v = np.full(d, 1.0 / np.sqrt(d))
    lam = 0.0
    for it in range(1, 200_001):
        w = C @ v
        lam_new = float(v @ w)
        norm = np.linalg.norm(w)
        if not math.isfinite(norm):
            return math.nan, it
        if norm == 0.0:
            return 0.0, it
        v = w / norm
        if abs(lam_new - lam) <= 0.01 * tol * max(1.0, abs(lam_new)):
            return lam_new, it
        lam = lam_new
    return lam, 200_000


TRIAL_STREAM = 0x516  # monte_carlo_sigma2 draws its trial batches from stream [seed, 0x516]


def monte_carlo_sigma2(task, probe_params, batch_size, trials, seed):
    """(shards, probes, trials): ||batch gradient - shard gradient||^2 of ``trials`` batches
    per shard and probe, whose means estimate what ``empirical_sigma2`` computes exactly.

    Shard by shard, each probe's trials take successive
    ``choice(m, batch_size, replace=False)`` draws of the shard's local rows from numpy's
    own Generator of the one stream [seed, TRIAL_STREAM], in numpy's order. One
    ``backend.stacked_gradient`` call gives every probe's shard gradient and one every
    probe's trial gradients; each slice is the product a lone full_gradient or batch
    gradient computes.
    """
    model, X, y = task.model, task.dataset.X, task.dataset.y
    W = np.stack([check_params(model, w) for w in probe_params])
    rng = np.random.default_rng([seed, TRIAL_STREAM])
    batches = np.array([rng.choice(m, batch_size, replace=False)
                        for m in np.repeat(task.shard_sizes, len(W) * trials).tolist()])
    batches = batches.reshape(len(task.shard_sizes), len(W), trials, batch_size)
    out = []
    for start, m, local in zip(task.offsets.tolist(), task.shard_sizes, batches):
        shard = task.row_map[start:start + m]
        Xs, ys = check_rows(model, X[shard], y[shard])
        ref = backend.stacked_gradient(model.kind, Xs, np.broadcast_to(ys, (len(W), m)), W,
                                       model.n_classes)
        rows = task.row_map[start + local]
        diffs = backend.stacked_gradient(model.kind, X[rows], y[rows], W[:, None],
                                         model.n_classes) - ref[:, None]
        out.append(np.vecdot(diffs, diffs))
    return np.stack(out)


def row_gradients(model: LossModel, w, X, y) -> np.ndarray:
    """(m, P): every row's own-loss gradient, written out per loss from numpy primitives."""
    if model.kind == "mse_linear":
        return X * (X @ w - y)[:, None]
    z = X @ w.reshape(model.n_classes, X.shape[1]).T
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    return (p[:, :, None] * X[:, None, :]).reshape(len(y), -1)


def centered_sigma2(task, probe_params, batch_size):
    """``empirical_sigma2`` from the direct centered sum: for every shard and probe, the
    stack of row gradients, their squared distances from the shard mean summed, times the
    finite-population factor (m - b) / (b (m - 1)) / m."""
    worst, b = 0.0, batch_size
    for shard in task.partition.shards:
        m = len(shard)
        if m == b:
            continue
        for w in probe_params:
            G = row_gradients(task.model, w, task.dataset.X[shard], task.dataset.y[shard])
            spread = float(np.sum((G - G.mean(axis=0)) ** 2))
            worst = max(worst, (m - b) / (b * (m - 1)) * spread / m)
    return worst


def gamma_form_bound(n, r, E, K, gamma, L, f0, sigma2, sum_U2, sum_N2):
    """(leading, uplink, variance, downlink): the federated bound's terms at the
    prescribed rate sqrt(r/K) / (gamma L E), written out in gamma as the paper prints
    them, with the variance and downlink recursion constants expanded by hand."""
    srk = math.sqrt(r / K)
    part = (n - r) / (r * (n - 1))
    leading = 8.0 * gamma * L * f0 / math.sqrt(r * K)
    uplink = 4.0 / (gamma * E**2 * K * math.sqrt(r * K)) * sum_U2
    variance = (4.0 / (gamma * E)) * srk * (
        (1.0 / (gamma * n)) * srk * (1.0 + 2.0 * n * E / 3.0 + n) + 1.0 / r + part
    ) * sigma2
    down_coef = 1.0 + 4.0 * E + (2.0 / (gamma * E)) * srk * (
        1.0 + 2.0 * E**2 * (
            (3.0 / (gamma * E**2)) * srk
            + 2.0 * (2.0 + (3.0 / (gamma**2 * E**2)) * (r / K))
            * ((2.0 / (3.0 * gamma)) * srk + part)
        )
    )
    downlink = (4.0 * L**2 / (E * K)) * down_coef * sum_N2
    return leading, uplink, variance, downlink
