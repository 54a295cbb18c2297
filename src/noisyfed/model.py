"""Loss models for the synthetic tasks: losses, gradients, smoothness.

Two model kinds are supported. ``mse_linear`` is linear regression with the
per-sample loss 0.5 * (<w, x> - y)^2, chosen so the Hessian of the mean loss
is exactly (1/m) X^T X and the smoothness constant of a unit-normalized
dataset is literally 1. ``softmax_linear`` is a linear softmax classifier
over C classes with cross-entropy loss; its parameter vector is the (C, d)
weight matrix flattened row-major.

All operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend

KINDS = ("mse_linear", "softmax_linear")


@dataclass(frozen=True)
class LossModel:
    """A loss family attached to a task dimension.

    ``dim`` is the parameter dimension: the feature count for mse_linear,
    n_classes * feature count for softmax_linear. ``smoothness`` is an upper
    bound on the gradient Lipschitz constant over the attached dataset and
    must be supplied (or computed via smoothness_constant) before it is used
    for learning rates. ``f_star`` is the known minimum loss when available.
    """

    kind: str
    dim: int
    n_classes: int = 0
    smoothness: float | None = None
    f_star: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "softmax_linear":
            if self.n_classes < 2:
                raise ValueError("softmax_linear needs n_classes >= 2")
            if self.dim % self.n_classes != 0:
                raise ValueError("dim must be n_classes * feature dimension")
        if self.smoothness is not None and not (math.isfinite(self.smoothness)
                                                and self.smoothness >= 0):
            raise ValueError(f"smoothness must be finite and >= 0, got {self.smoothness}")

    @property
    def n_features(self) -> int:
        if self.kind == "softmax_linear":
            return self.dim // self.n_classes
        return self.dim


def check_params(model: LossModel, params) -> np.ndarray:
    """params as a float64 vector; ValueError on a wrong length or non-finite entries."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.shape[0] != model.dim:
        raise ValueError(f"params must be a length-{model.dim} vector")
    if not np.isfinite(params).all():
        raise ValueError("params contain non-finite entries")
    return params


def check_rows(model: LossModel, X, y):
    """(X, y) as float64 rows and float64 targets or int64 labels.

    ValueError unless X is a non-empty (m, n_features) array, y has length
    m, and every label lies in [0, n_classes).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("batch must be a non-empty (m, d) array")
    if X.shape[1] != model.n_features:
        raise ValueError(f"feature dimension {X.shape[1]} != {model.n_features}")
    if model.kind == "mse_linear":
        y = np.asarray(y, dtype=np.float64)
    else:
        y = np.asarray(y, dtype=np.int64)
        if y.size and (y.min() < 0 or y.max() >= model.n_classes):
            raise ValueError("class labels out of range")
    if y.shape != (X.shape[0],):
        raise ValueError("targets must match the batch length")
    return X, y


def loss(model: LossModel, params, X, y) -> float:
    """Mean per-sample loss over the batch."""
    params = check_params(model, params)
    X, y = check_rows(model, X, y)
    m = X.shape[0]
    if model.kind == "mse_linear":
        r = X @ params - y
        return 0.5 * float(r @ r) / m
    f, _ = backend.softmax_loss_and_gradient(X, y, params, np.full(m, 1.0 / m),
                                             model.n_classes)
    return f


def gradient(model: LossModel, params, X, y) -> np.ndarray:
    """Mean gradient over the batch, through backend.batch_gradient."""
    params = check_params(model, params)
    X, y = check_rows(model, X, y)
    idx = np.arange(X.shape[0], dtype=np.int64)
    return backend.batch_gradient(model.kind, X, y, params, idx, model.n_classes)


def full_gradient(model: LossModel, params, X, y) -> np.ndarray:
    """Gradient over the entire dataset; alias of gradient on all rows."""
    return gradient(model, params, X, y)


def finite_difference_gradient(model: LossModel, params, X, y, step: float) -> np.ndarray:
    """Central-difference gradient, the test oracle for gradient()."""
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


def _power_iteration_gram(X: np.ndarray, tol: float) -> float:
    """Top eigenvalue of (1/m) X^T X by power iteration on the Gram matrix.

    Deterministic start vector; the stopping threshold is two orders
    tighter than the requested tolerance because successive Rayleigh
    differences understate the true error when the spectrum is flat.
    """
    m, d = X.shape
    C = (X.T @ X) / m
    v = np.full(d, 1.0 / np.sqrt(d))
    lam = 0.0
    for _ in range(200_000):
        w = C @ v
        lam_new = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(lam_new - lam) <= 0.01 * tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def smoothness_constant(model: LossModel, X, tol: float = 1e-8) -> float:
    """Gradient-Lipschitz bound of the mean loss over the dataset.

    mse_linear: the exact constant, the top eigenvalue of (1/m) X^T X.
    softmax_linear: the classical upper bound 0.5 * lambda_max((1/m) X^T X).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (m, d) array")
    lam = _power_iteration_gram(X, tol)
    if model.kind == "softmax_linear":
        return 0.5 * lam
    return lam
