"""Closed-form convergence-error bounds and related constants.

Implements the non-convex guarantees for the noisy single-machine loop and
the federated loop: the four-term bound for noisy SGD, the
leading/uplink/variance/downlink decomposition for noisy federated
averaging with the geometric round-sampling distribution, the quadratic
counterexample showing bounded-client-dissimilarity fails, and the exact
stochastic-gradient variance sigma^2 of the client shards.

The federated bound is stated at the run's learning rate eta alone. The
theorem's prescribed rate eta = sqrt(r/K) / (gamma L E) with gamma > 4 ties
gamma to eta, so a run at any eta is the prescribed-rate run for
gamma = sqrt(r/K) / (eta L E), and the bound applies when that gamma
exceeds 4: eta below sqrt(r/K) / (4 L E).

Noise totals everywhere are TOTAL expected squared norms, i.e. dimension
times the per-coordinate variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import backend
from .data import sample_batch  # noqa: F401 (perfbench's hook table wraps theory.sample_batch)
from .model import check_params, check_rows
from .model import full_gradient  # noqa: F401 (perfbench's hook table wraps theory.full_gradient)

if TYPE_CHECKING:
    from .fedavg import Task


def learning_rate(gamma: float, L: float, E: int, r: int, K: int) -> float:
    """Prescribed rate (1 / (gamma L E)) * sqrt(r / K)."""
    if min(gamma, L) <= 0 or min(E, r, K) < 1:
        raise ValueError("gamma, L must be positive and E, r, K >= 1")
    return float(np.sqrt(r / K) / (gamma * L * E))


def rate_constant(eta: float, L: float, E: int, r: int, K: int) -> float:
    """The gamma whose prescribed rate is eta: sqrt(r/K) / (eta L E), inf where eta L E
    underflows to 0."""
    return math.sqrt(r / K) / eta / (L * E)


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
    """The federated bound's inputs at the run's rate eta; an eta the
    theorem does not cover (gamma <= 4) is rejected."""
    n: int
    r: int
    E: int
    K: int
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
        if min(self.L, self.eta) <= 0:
            raise ValueError("L and eta must be positive")
        if not all(map(math.isfinite, (self.L, self.eta, self.sigma2, self.f0,
                                       self.sum_U2, self.sum_N2))):
            raise ValueError("L, eta, sigma2, f0 and noise sums must be finite")
        if min(self.sigma2, self.f0, self.sum_U2, self.sum_N2) < 0:
            raise ValueError("sigma2, f0 and noise sums must be >= 0")
        if self.gamma <= 4:
            limit = math.sqrt(self.r / self.K) / (4.0 * self.L * self.E)
            raise ValueError(f"eta={self.eta:.6g} must be below sqrt(r/K) / (4 L E) = "
                             f"{limit:.6g} for the bound to apply")

    @property
    def gamma(self) -> float:
        return rate_constant(self.eta, self.L, self.E, self.r, self.K)


@dataclass(frozen=True)
class BoundReport:
    leading: float
    term_uplink: float
    term_sgd_variance: float
    term_downlink: float
    total: float = field(init=False)
    zeta: float
    zeta2: float
    zeta3: float

    def __post_init__(self):
        object.__setattr__(self, "total", self.leading + self.term_uplink
                           + self.term_sgd_variance + self.term_downlink)


def fedavg_error_bound(p: TheoryParams) -> BoundReport:
    """Bound on the expected squared gradient at the sampled round, at the rate p.eta.

    The decomposition is
      leading   8 f0 / (eta E K)
      uplink    4 eta L sum_U2 / (r E K)
      variance  4 eta L zeta2 sigma2
      downlink  (4 L^2 / (E K)) zeta3 sum_N2
    with zeta2 and zeta3 the recursion constants at eta. At the prescribed
    rate of p.gamma these are the theorem's terms in gamma form, e.g. the
    leading term 8 gamma L f0 / sqrt(rK). Warns when K is below the
    minimum-round requirement of p.gamma.
    """
    n, r, E, K, L, eta = p.n, p.r, p.E, p.K, p.L, p.eta
    kmin = min_rounds(r, p.gamma)
    if K < kmin:
        warnings.warn(f"K={K} is below the minimum-round requirement {kmin:.4g}")
    z2, z3 = zeta2(eta, L, E, n, r), zeta3(eta, L, E, n, r)
    return BoundReport(
        leading=8.0 * p.f0 / (eta * E * K),
        term_uplink=4.0 * eta * L * p.sum_U2 / (r * E * K),
        term_sgd_variance=4.0 * eta * L * z2 * p.sigma2,
        term_downlink=(4.0 * L**2 / (E * K)) * z3 * p.sum_N2,
        zeta=zeta(eta, L, E, n, r),
        zeta2=z2,
        zeta3=z3,
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


def empirical_sigma2(task: Task, probe_params, batch_size: int) -> float:
    """Exact per-client stochastic-gradient variance, the sigma^2 of the error bounds.

    For a batch of b rows drawn without replacement from a shard of m rows,
    the batch-mean gradient's expected squared distance from the shard's
    mean gradient g is (m - b) / (b (m - 1)) * (1/m) sum_j ||g_j - g||^2, g_j
    being row j's gradient (the finite-population correction). Returns its
    maximum over the client shards of ``task`` and the probe points; shard
    rows map to dataset rows through ``task.row_map`` and ``task.offsets``.

    Row j's gradient is the outer product of a residual r_j and x_j
    (``backend.row_residuals``), so ||g_j||^2 = ||r_j||^2 ||x_j||^2 and
    sum_j ||g_j - g||^2 = sum_j ||r_j||^2 ||x_j||^2 - m ||g||^2. Per shard that
    is one product for every probe's residuals, one for m g and one for the
    weighted norms, with no (probes, m, P) stack of row gradients. They are
    computed without warnings; ValueError when a shard's spread is not finite.
    """
    model, X, y = task.model, task.dataset.X, task.dataset.y
    if len(probe_params) == 0:
        raise ValueError("need at least one probe point")
    W = np.stack([check_params(model, w) for w in probe_params])
    b = batch_size
    if b < 1 or b > min(task.shard_sizes):
        raise ValueError("need 1 <= batch_size <= shard size")
    worst = 0.0
    for start, m in zip(task.offsets.tolist(), task.shard_sizes):
        shard = task.row_map[start:start + m]
        Xs, ys = check_rows(model, X[shard], y[shard])
        if m == b:
            continue  # every batch is the whole shard
        with np.errstate(over="ignore", invalid="ignore"):
            R = backend.row_residuals(model.kind, Xs, ys, W, model.n_classes)
            weighted = np.vecdot(Xs, Xs) @ np.vecdot(R, R)
            sums = (R.reshape(m, -1).T @ Xs).reshape(len(W), -1)  # m g, one row per probe
            spread = weighted - np.vecdot(sums, sums) / m
        if not np.isfinite(spread).all():  # max would drop a nan
            raise ValueError("sigma2 is not finite in float64")
        worst = max(worst, *((m - b) / (b * (m - 1)) * spread / m).tolist())
    return worst
