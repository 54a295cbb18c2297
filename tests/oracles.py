"""Test oracles: numpy's own keyed draws, one Generator per key, that the replayed draws
of ``noisyfed.streams`` and ``noisyfed.fedavg.round_draws`` are checked against, a
central-difference gradient for the model's analytic one, and the power iteration with
``np.linalg.norm`` that ``noisyfed.model._power_iteration_gram`` must match bit for bit.

A key is any sequence of non-negative ints, such as ``[seed, k, i, purpose]``
or a row of ``streams.key_rows``; both seed ``np.random.default_rng`` alike.
``numpy_choices`` and ``numpy_normals`` take the arguments of
``streams.choices`` and ``streams.normals`` and can stand in for them.
"""

import math

import numpy as np

from noisyfed.data import sample_batch
from noisyfed.fedavg import (_BATCH, _DOWNLINK, _SAMPLE, _UPLINK, RoundDraws, _stream,
                             client_sample)
from noisyfed.model import LossModel, loss


def _rng(key):
    return np.random.default_rng([int(word) for word in key])


def numpy_choices(keys, m, b, count, sort=False):
    """(N, count, b): each key's ``count`` successive ``choice(m, b, replace=False)``
    from its one Generator; ``m`` is a size, one per key or one per draw."""
    m = np.asarray(m, dtype=np.int64)
    m = np.broadcast_to(m if m.ndim == 2 else m.reshape(-1, 1), (len(keys), count))
    out = np.empty((len(keys), count, b), dtype=np.int64)
    for key, sizes, rows in zip(keys, m.tolist(), out):
        rng = _rng(key)
        rows[:] = [rng.choice(size, b, replace=False) for size in sizes]
    if sort:
        out.sort(axis=2)
    return out


def numpy_normals(keys, d):
    """(N, d): each key's ``standard_normal(d)``."""
    out = np.empty((len(keys), d))
    for key, row in zip(keys, out):
        row[:] = _rng(key).standard_normal(d)
    return out


def client_batches(m, batch_size, E, rng):
    """E sorted mini-batches of a size-m shard, drawn as run_noisy_fedavg draws them."""
    local = np.arange(m, dtype=np.int64)
    return np.stack([np.sort(sample_batch(local, batch_size, rng)) for _ in range(E)])


def keyed_stream_draws(cfg, task, seed, channels=()):
    """A seed's RoundDraws drawn one stream at a time: client_sample and sample_batch on
    _stream(seed, k, i, purpose), and its unit channel noise from _stream(seed, k, 0,
    downlink) and _stream(seed, k, i, uplink) for each channel some pair has on."""
    cohorts = np.stack([client_sample(cfg.n, cfg.r, _stream(seed, k, 0, _SAMPLE))
                        for k in range(cfg.K)])
    batches = np.stack([[client_batches(task.shard_sizes[i], cfg.batch_size, cfg.E,
                                        _stream(seed, k, i, _BATCH)) for i in cohort]
                        for k, cohort in enumerate(cohorts)])
    d, downlink, uplink = task.model.dim, None, None
    if any(not down.off for _, down in channels):
        downlink = np.stack([_stream(seed, k, 0, _DOWNLINK).standard_normal(d)
                             for k in range(cfg.K)])
    if any(not up.off for up, _ in channels):
        uplink = np.stack([[_stream(seed, k, i, _UPLINK).standard_normal(d) for i in cohort]
                           for k, cohort in enumerate(cohorts)])
    return RoundDraws(cohorts, batches, downlink, uplink)


def finite_difference_gradient(model: LossModel, params, X, y, step: float) -> np.ndarray:
    """Central-difference gradient of ``model.loss``: the oracle for ``model.gradient``."""
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
        if not math.isfinite(norm) and not np.isfinite(w).all():
            return math.nan, it
        if norm == 0.0:
            return 0.0, it
        v = w / norm
        if abs(lam_new - lam) <= 0.01 * tol * max(1.0, abs(lam_new)):
            return lam_new, it
        lam = lam_new
    return lam, 200_000
