"""Numeric kernels: the stacked batch gradient and the cohort step loop.

All gradient arithmetic goes through ``stacked_gradient``, which takes a
stack of gathered batches and runs every product through ``np.matmul``.
``softmax_loss_and_gradient`` evaluates a weighted softmax loss and its
gradient over many rows at once, from the same softmax steps, for metrics.
``row_residuals`` gives each row's gradient as a residual to take the outer
product with the row, from the same steps, for the exact sigma^2.
matmul computes each slice of a stacked product with the same BLAS gemv or
gemm call as a lone 2-D product, so a client's steps give the same bits
whether it steps alone, in a cohort, or in a cohort stepped for several
replicas at once (the tests check this bitwise), and full-batch steps
match ``model.full_gradient``. The mse gradient and the step loop update
their own fresh arrays in place (``g *= eta; w -= g``): the same
floating-point operations in the same order as ``w - eta * g``, so the
same bits, without a temporary per operation.

The softmax steps take each row's max and sum of exp over the C classes as
one elementwise op per class on a (rows, C) view (``_class_max``,
``_class_sum``), for local steps and metrics alike. numpy's reductions
along a last axis as short as C = 4 cost several times the exp itself. A
max is exact in any order (up to the sign of a zero max, which no output
carries), and below 8 classes the sum adds them left to right, numpy's own
order for so short a contiguous axis; from 8 on it is numpy's sum. So every
output keeps numpy's bits.
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
        resid = np.matmul(Xb, w[..., None])[..., 0]
        resid -= yb
        g = np.matmul(Xb.swapaxes(-1, -2), resid[..., None])[..., 0]
        g /= b
        return g
    W = w.reshape(w.shape[:-1] + (n_classes, Xb.shape[-1]))
    p, _, _ = _softmax_residual(np.matmul(Xb, W.swapaxes(-1, -2)), yb, n_classes)
    G = np.matmul(p.swapaxes(-1, -2), Xb) / b
    return G.reshape(G.shape[:-2] + (-1,))


def row_residuals(kind, X, y, W, n_classes=0):
    """Every row's gradient factor at every params row, from one ``X @ W^T``.

    ``X`` is (m, d) rows, ``y`` their (m,) targets and ``W`` (k, P) params.
    Returns R, (m, k, c): row j's own-loss gradient at ``W[i]`` is the
    outer product of R[j, i] and X[j], flattened row-major like the params.
    mse_linear: c = 1 and R = <w, x> - y. softmax: c = C and
    R = softmax(W x) - onehot(y).
    """
    m, k = X.shape[0], W.shape[0]
    if kind == "mse_linear":
        R = X @ W.T
        R -= y[:, None]
        return R[..., None]
    z = (X @ W.reshape(k * n_classes, X.shape[1]).T).reshape(m, k, n_classes)
    R, _, _ = _softmax_residual(z, np.broadcast_to(y[:, None], (m, k)), n_classes)
    return R


def _class_max(z):
    """z.max(axis=-1) of (N, C) logits, C >= 2, one np.maximum per class.

    A max picks one of its inputs whatever the order, so the values equal
    numpy's; only the sign of a zero max can differ, and the shift z - max
    does not pass that on (exp(-0.0) == exp(0.0), and a label logit of +-0
    leaves log(sums) - z[y] unchanged).
    """
    top = np.maximum(z[:, 0], z[:, 1])
    for c in range(2, z.shape[1]):
        np.maximum(top, z[:, c], out=top)
    return top


def _class_sum(p):
    """p.sum(axis=1) of (N, C) ``p``, C >= 2, bit for bit.

    For C < 8, one elementwise add per class, left to right: the order of
    numpy's pairwise sum along a contiguous axis that short. For C >= 8,
    numpy's sum itself, whose blocked order an emulation would only repeat;
    no workload has that many classes.
    """
    if p.shape[1] >= 8:
        return p.sum(axis=1)
    s = p[:, 0] + p[:, 1]
    for c in range(2, p.shape[1]):
        s += p[:, c]
    return s


def _softmax_residual(z, y, n_classes):
    """softmax(z) - onehot(y) over the last axis, the row sums of exp
    (flat, one per row), and the flat index of every row's label entry.

    ``z`` holds fresh contiguous logits and ``y`` has the shape of
    ``z[..., 0]``. Shifts ``z`` by its row max in place, so afterwards the
    cross-entropy of each row is log(sums) - z.ravel()[label].
    """
    rows = z.reshape(-1, n_classes)  # views: z and p are fresh and contiguous
    rows -= _class_max(rows)[:, None]
    p = np.exp(z)
    prows = p.reshape(-1, n_classes)
    sums = _class_sum(prows)
    prows /= sums[:, None]
    label = np.arange(0, p.size, n_classes) + y.ravel()
    p.reshape(-1)[label] -= 1.0
    return p, sums, label


def softmax_loss_and_gradient(X, y, w, weights, n_classes):
    """Weighted softmax cross-entropy and its gradient in one forward pass.

    ``X`` is (m, d) rows, ``y`` their int64 labels, ``w`` the params
    flattened (C, d) row-major and ``weights`` (m,) per-row weights. Returns
    (sum_j weights_j * loss_j, the matching weighted gradient sum, (P,)).
    """
    z = X @ w.reshape(n_classes, X.shape[1]).T
    p, sums, label = _softmax_residual(z, y, n_classes)
    f = float(weights @ (np.log(sums) - z.reshape(-1)[label]))
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
    # np.take gathers the rows X[batches] would, about a quarter faster
    Xg, yg, lead = np.take(X, batches, axis=0), y[batches], batches.shape[:-2]
    if w0.ndim > 1:  # the softmax residual takes one target per replica's batch row
        yg = np.broadcast_to(yg, w0.shape[:-1] + yg.shape)
    shape = w0.shape[:-1] + lead + w0.shape[-1:]
    w, acc = np.empty(shape), np.zeros(shape)
    w[...] = w0.reshape(w0.shape[:-1] + (1,) * len(lead) + w0.shape[-1:])
    for e in range(batches.shape[-2]):
        g = stacked_gradient(kind, Xg[..., e, :, :], yg[..., e, :], w, n_classes)
        acc += g
        g *= eta  # in place: the bits of w - eta * g
        w -= g
    return w, acc
