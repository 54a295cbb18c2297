"""Numeric kernels: the stacked batch gradient and the cohort step loop.

All gradient arithmetic goes through ``stacked_gradient``, which takes a
stack of gathered batches and runs every product through ``np.matmul``.
``softmax_loss_and_gradient`` evaluates a weighted softmax loss and its
gradient over many rows at once, from the same softmax steps, for metrics.
matmul computes each slice of a stacked product with the same BLAS gemv or
gemm call as a lone 2-D product, so a client's steps give the same bits
whether it steps alone, in a cohort, or in a cohort stepped for several
replicas at once (the tests check this bitwise), and full-batch steps
match ``model.full_gradient``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; there is only numpy."""
    return "numpy"


def stacked_gradient(kind, Xb, yb, w, n_classes=0):
    """Mean gradient of every batch in a stack.

    ``Xb`` is (..., b, d) gathered rows, ``yb`` their (..., b) targets and
    ``w`` the (..., P) params, one per batch or one shared by the stack.
    ``Xb`` broadcasts against further leading axes of ``w``, so one stack
    of batches serves several replicas' params; softmax then takes ``yb``
    at the broadcast shape.
    mse_linear: loss 0.5 * (<w, x> - y)^2. Otherwise a softmax linear
    classifier with params flattened (C, d) row-major and integer labels.
    Returns (..., P).
    """
    b = Xb.shape[-2]
    if kind == "mse_linear":
        resid = np.matmul(Xb, w[..., None])[..., 0] - yb
        return np.matmul(Xb.swapaxes(-1, -2), resid[..., None])[..., 0] / b
    W = w.reshape(w.shape[:-1] + (n_classes, Xb.shape[-1]))
    p, _ = _softmax_residual(np.matmul(Xb, W.swapaxes(-1, -2)), yb, n_classes)
    G = np.matmul(p.swapaxes(-1, -2), Xb) / b
    return G.reshape(G.shape[:-2] + (-1,))


def _softmax_residual(z, y, n_classes):
    """softmax(z) - onehot(y) over the last axis, and the row sums of exp.

    Shifts the logits ``z`` by their row max in place, so afterwards the
    cross-entropy of each row is log(sums) - z[y].
    """
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    sums = p.sum(axis=-1, keepdims=True)
    p /= sums
    rows = p.reshape(-1, n_classes)  # a view: p is fresh and contiguous
    rows[np.arange(rows.shape[0]), y.ravel()] -= 1.0
    return p, sums


def softmax_loss_and_gradient(X, y, w, weights, n_classes):
    """Weighted softmax cross-entropy and its gradient in one forward pass.

    ``X`` is (m, d) rows, ``y`` their int64 labels, ``w`` the params
    flattened (C, d) row-major and ``weights`` (m,) per-row weights. Returns
    (sum_j weights_j * loss_j, the matching weighted gradient sum, (P,)).
    """
    z = X @ w.reshape(n_classes, X.shape[1]).T
    p, sums = _softmax_residual(z, y, n_classes)
    f = float(weights @ (np.log(sums[:, 0]) - z[np.arange(y.shape[0]), y]))
    p *= weights[:, None]
    return f, (p.T @ X).ravel()


def batch_gradient(kind, X, y, w, idx, n_classes=0):
    """Mean gradient over the rows ``idx`` (an integer array) of one batch."""
    return stacked_gradient(kind, X[idx], y[idx], w, n_classes)


def local_steps(kind, X, y, w0, eta, batches, n_classes=0):
    """Run one SGD step per batch of rows of ``X``, starting at ``w0``.

    ``batches`` is (E, b) for one client, or (r, E, b) for a cohort of r
    clients that all start at ``w0`` and step side by side. ``w0`` is (P,),
    or (R, P) for R replicas that each step the whole cohort from their own
    start on the same batches; the rows are gathered once for all of them.
    Returns (final params, sum of the step gradients), each
    ``w0.shape[:-1] + batches.shape[:-2] + (P,)``.
    """
    batches = np.asarray(batches, dtype=np.int64)
    Xg, yg, lead = X[batches], y[batches], batches.shape[:-2]
    if w0.ndim > 1:  # the softmax residual takes one target per replica's batch row
        yg = np.broadcast_to(yg, w0.shape[:-1] + yg.shape)
    start = w0.reshape(w0.shape[:-1] + (1,) * len(lead) + w0.shape[-1:])
    w = np.broadcast_to(start, w0.shape[:-1] + lead + w0.shape[-1:]).copy()
    acc = np.zeros_like(w)
    for e in range(batches.shape[-2]):
        g = stacked_gradient(kind, Xg[..., e, :, :], yg[..., e, :], w, n_classes)
        acc += g
        w = w - eta * g
    return w, acc
