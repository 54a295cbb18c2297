"""Closed-form convergence-error bounds and related constants.

Implements the non-convex guarantees for the noisy single-machine loop and
the federated loop: the four-term bound for noisy SGD, the
leading/uplink/variance/downlink decomposition for noisy federated
averaging with the geometric round-sampling distribution, the order
coefficients used to predict sweep slopes, the quadratic counterexample
showing bounded-client-dissimilarity fails, and a Monte-Carlo estimator for
the stochastic-gradient variance bound.

Noise totals everywhere are TOTAL expected squared norms, i.e. dimension
times the per-coordinate variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import backend, streams
from .data import sample_batch  # noqa: F401 (perfbench's hook table wraps theory.sample_batch)
from .model import check_params, check_rows
from .model import full_gradient  # noqa: F401 (perfbench's hook table wraps theory.full_gradient)

if TYPE_CHECKING:
    from .fedavg import Task

_SIGMA2_STREAM = 0x516  # empirical_sigma2 draws from stream [seed, 0x516]


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


def zeta(eta: float, L: float, E: float, n: int, r: int) -> float:
    """Geometric weight rate: 8 eta^2 L^2 E^2 ((n-r)/(r(n-1)) + 2 eta L E / 3)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    part = (n - r) / (r * (n - 1))
    return 8.0 * eta**2 * L**2 * E**2 * (part + 2.0 * eta * L * E / 3.0)


def zeta2(eta: float, L: float, E: float, n: int, r: int) -> float:
    """Stochastic-variance coefficient of the per-round recursion."""
    if n < 2:
        raise ValueError("need n >= 2")
    part = (n - r) / (r * (n - 1))
    return (eta * L * E / n) * (1.0 + 2.0 * n * E / 3.0 + n) + 1.0 / r + part


def zeta3(eta: float, L: float, E: float, n: int, r: int) -> float:
    """Downlink coefficient of the per-round recursion."""
    if n < 2:
        raise ValueError("need n >= 2")
    part = (n - r) / (r * (n - 1))
    inner = 2.0 * eta * L * E * (2.0 + 3.0 * eta**2 * L**2) * (2.0 * eta * L * E / 3.0 + part)
    return 1.0 + 2.0 * eta * L + 4.0 * E * (1.0 + 3.0 * eta**2 * L**2 + inner)


@dataclass(frozen=True)
class TheoryParams:
    n: int
    r: int
    E: int
    K: int
    gamma: float
    L: float
    eta: float
    sigma2: float = 0.0      # stochastic-gradient variance bound
    f0: float = 0.0          # initial loss f(w_0)
    sum_U2: float = 0.0      # sum over rounds of total uplink noise power
    sum_N2: float = 0.0      # sum over rounds of total downlink noise power

    def __post_init__(self):
        if self.n < 2 or not (1 <= self.r <= self.n):
            raise ValueError("need n >= 2 and 1 <= r <= n")
        if self.E < 1 or self.K < 1:
            raise ValueError("need E >= 1 and K >= 1")
        if self.gamma <= 4:
            raise ValueError("gamma must exceed 4")
        if min(self.L, self.eta) <= 0:
            raise ValueError("L and eta must be positive")
        if min(self.sigma2, self.f0, self.sum_U2, self.sum_N2) < 0:
            raise ValueError("sigma2, f0 and noise sums must be >= 0")


@dataclass(frozen=True)
class BoundReport:
    leading: float
    term_uplink: float
    term_sgd_variance: float
    term_downlink: float
    zeta: float
    zeta2: float
    zeta3: float

    @property
    def total(self) -> float:
        return self.leading + self.term_uplink + self.term_sgd_variance + self.term_downlink


def fedavg_error_bound(p: TheoryParams) -> BoundReport:
    """Bound on the expected squared gradient at the sampled round.

    The decomposition is
      leading   8 gamma L f0 / sqrt(rK)
      uplink    4 / (gamma E^2 K sqrt(rK)) * sum_U2
      variance  (4 / (gamma E)) sqrt(r/K) *
                [ (1/(gamma n)) sqrt(r/K) (1 + 2nE/3 + n) + 1/r + (n-r)/(r(n-1)) ] * sigma2
      downlink  (4 L^2 / (E K)) * C(gamma, E, r, K, n) * sum_N2
    where C expands the downlink recursion coefficient at the prescribed
    learning rate (it equals zeta3 evaluated there, which tests cross-check).
    Warns when K is below the minimum-round requirement or when the supplied
    eta is not the prescribed rate.
    """
    n, r, E, K, g, L = p.n, p.r, p.E, p.K, p.gamma, p.L
    eta_star = learning_rate(g, L, E, r, K)
    kmin = min_rounds(r, g)
    if p.K < kmin:
        warnings.warn(f"K={p.K} is below the minimum-round requirement {kmin:.4g}")
    if not np.isclose(p.eta, eta_star, rtol=1e-9):
        warnings.warn(f"eta={p.eta:.6g} differs from the prescribed rate {eta_star:.6g}")

    srk = np.sqrt(r / K)
    part = (n - r) / (r * (n - 1))
    leading = 8.0 * g * L * p.f0 / np.sqrt(r * K)
    term_up = 4.0 / (g * E**2 * K * np.sqrt(r * K)) * p.sum_U2
    term_var = (4.0 / (g * E)) * srk * (
        (1.0 / (g * n)) * srk * (1.0 + 2.0 * n * E / 3.0 + n) + 1.0 / r + part
    ) * p.sigma2
    down_coef = 1.0 + 4.0 * E + (2.0 / (g * E)) * srk * (
        1.0 + 2.0 * E**2 * (
            (3.0 / (g * E**2)) * srk
            + 2.0 * (2.0 + (3.0 / (g**2 * E**2)) * (r / K))
            * ((2.0 / (3.0 * g)) * srk + part)
        )
    )
    term_down = (4.0 * L**2 / (E * K)) * down_coef * p.sum_N2
    return BoundReport(
        leading=float(leading),
        term_uplink=float(term_up),
        term_sgd_variance=float(term_var),
        term_downlink=float(term_down),
        zeta=zeta(p.eta, L, E, n, r),
        zeta2=zeta2(p.eta, L, E, n, r),
        zeta3=zeta3(p.eta, L, E, n, r),
    )


def sgd_error_bound(eta: float, L: float, T: int, f0: float, f_star: float,
                   sigma2: float, sum_U2: float, sum_N2: float) -> BoundReport:
    """Average squared-gradient bound for the noisy single-machine loop.

    2 (f0 - f*) / (T eta) + eta L sigma2 + (L^2 / T) sum_N2 + (eta L / T) sum_U2.
    The downlink coefficient is independent of eta while the uplink one
    scales with it; that coefficient structure is the noise asymmetry.
    """
    if T < 1 or eta <= 0:
        raise ValueError("need T >= 1 and eta > 0")
    if eta > 1.0 / L:
        warnings.warn(f"eta={eta:.6g} exceeds 1/L={1.0 / L:.6g}; the bound assumes eta <= 1/L")
    return BoundReport(
        leading=2.0 * (f0 - f_star) / (T * eta),
        term_uplink=eta * L / T * sum_U2,
        term_sgd_variance=eta * L * sigma2,
        term_downlink=L**2 / T * sum_N2,
        zeta=0.0, zeta2=0.0, zeta3=0.0,
    )


def bcd_gap(w: float, n: int) -> float:
    """Exact dissimilarity gap of the quadratic family: w^2 (1 - 1/n)^2.

    For any fixed bound G and n >= 2 the gap exceeds G^2 at
    w = 2G / (1 - 1/n), so no finite dissimilarity constant exists.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return float(w) ** 2 * (1.0 - 1.0 / n) ** 2


def bcd_witness(G: float, n: int) -> float:
    """A w whose gap strictly exceeds G^2 (n >= 2)."""
    if n < 2:
        raise ValueError("the single-client family has gap 0 everywhere")
    return 2.0 * G / (1.0 - 1.0 / n)


def empirical_sigma2(task: Task, probe_params, batch_size: int, trials: int,
                     seed: int) -> float:
    """Monte-Carlo bound on the per-client stochastic-gradient variance.

    For every client shard of ``task`` and probe point, estimates
    E || batch gradient - shard gradient ||^2 over ``trials`` batch draws and
    returns the maximum, inflated by a 1.5x safety factor so it can serve as
    the variance bound fed to the error bounds. Batch rows map to dataset
    rows through ``task.row_map`` and ``task.offsets``. Shard by shard, each
    probe's trials take successive ``sample_batch`` draws of the shard's
    local rows from the one stream [seed, 0x516].

    Each shard takes one stack: one backend.stacked_gradient call gives
    every probe's shard gradient (the shard rows against (probes, P)
    params), and one gives every probe's trial gradients ((probes, trials,
    b, d) rows against (probes, 1, P)). Each slice is the product a lone
    full_gradient or batch gradient computes, and cumsum adds the squared
    norms left to right like a per-trial loop, so the result is the same
    to the bit.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    model, X, y = task.model, task.dataset.X, task.dataset.y
    if len(probe_params) == 0:
        raise ValueError("need at least one probe point")
    W = np.stack([check_params(model, w) for w in probe_params])
    if batch_size < 1 or batch_size > min(task.shard_sizes):
        raise ValueError("need 1 <= batch_size <= shard size")
    sizes = np.repeat(task.shard_sizes, len(W) * trials)
    batches = streams.choices([(seed, _SIGMA2_STREAM)], sizes[None], batch_size, len(sizes))
    batches = batches.reshape(len(task.shard_sizes), len(W), trials, batch_size)
    worst = 0.0
    for start, m, local in zip(task.offsets.tolist(), task.shard_sizes, batches):
        shard = task.row_map[start:start + m]
        Xs, ys = check_rows(model, X[shard], y[shard])  # and so every trial batch
        ref = backend.stacked_gradient(model.kind, Xs, np.broadcast_to(ys, (len(W), m)), W,
                                       model.n_classes)
        rows = task.row_map[start + local]
        diffs = backend.stacked_gradient(model.kind, X[rows], y[rows], W[:, None],
                                         model.n_classes) - ref[:, None]
        sq = np.cumsum(np.vecdot(diffs, diffs), axis=1)[:, -1]
        worst = max(worst, *(sq / trials).tolist())
    return 1.5 * worst
