"""The kernels bitwise against references written as numpy ops: the softmax class-wise
reductions, the mse gradient and the step loop."""

import numpy as np
from hypothesis import given, settings, strategies as st

from noisyfed import backend

# class counts on and around numpy's pairwise-sum block edges (8 and 16)
CLASSES = st.one_of(st.sampled_from([7, 8, 9, 16, 17]), st.integers(2, 40))
LEADS = st.lists(st.integers(1, 4), max_size=3)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def old_softmax_residual(z, y, n_classes):
    """The kernel as it was written with numpy's reductions: the reference."""
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    sums = p.sum(axis=-1, keepdims=True)
    p /= sums
    rows = p.reshape(-1, n_classes)
    rows[np.arange(rows.shape[0]), y.ravel()] -= 1.0
    return p, sums


def old_stacked_gradient(Xb, yb, w, n_classes):
    W = w.reshape(w.shape[:-1] + (n_classes, Xb.shape[-1]))
    p, _ = old_softmax_residual(np.matmul(Xb, W.swapaxes(-1, -2)), yb, n_classes)
    G = np.matmul(p.swapaxes(-1, -2), Xb) / Xb.shape[-2]
    return G.reshape(G.shape[:-2] + (-1,))


def old_softmax_loss_and_gradient(X, y, w, weights, n_classes):
    z = X @ w.reshape(n_classes, X.shape[1]).T
    p, sums = old_softmax_residual(z, y, n_classes)
    f = float(weights @ (np.log(sums[:, 0]) - z[np.arange(y.shape[0]), y]))
    p *= weights[:, None]
    return f, (p.T @ X).ravel()


def old_mse_gradient(Xb, yb, w):
    """The mse branch out of place: the reference for its in-place updates."""
    resid = np.matmul(Xb, w[..., None])[..., 0] - yb
    return np.matmul(Xb.swapaxes(-1, -2), resid[..., None])[..., 0] / Xb.shape[-2]


def old_local_steps(kind, X, y, w0, eta, batches, n_classes=0):
    """The step loop out of place, acc = acc + g and w = w - eta * g, on the references."""
    Xg, yg, lead = X[batches], y[batches], batches.shape[:-2]
    if w0.ndim > 1:
        yg = np.broadcast_to(yg, w0.shape[:-1] + yg.shape)
    start = w0.reshape(w0.shape[:-1] + (1,) * len(lead) + w0.shape[-1:])
    w = np.broadcast_to(start, w0.shape[:-1] + lead + w0.shape[-1:]).copy()
    acc = np.zeros_like(w)
    for e in range(batches.shape[-2]):
        Xb, yb = Xg[..., e, :, :], yg[..., e, :]
        g = (old_mse_gradient(Xb, yb, w) if kind == "mse_linear"
             else old_stacked_gradient(Xb, yb, w, n_classes))
        acc = acc + g
        w = w - eta * g
    return w, acc


def logits(rng, shape, ties, log_scale):
    """Normal logits, or ones drawn from a few values (signed zeros included)
    so that rows hold ties; scaled by 10**log_scale."""
    if ties:
        z = rng.choice(np.array([-0.0, 0.0, -1.0, 1.0, 2.0]), size=shape)
    else:
        z = rng.standard_normal(shape)
    return z * 10.0 ** log_scale


class TestClassReductions:
    @settings(max_examples=200, deadline=None)
    @given(C=CLASSES, lead=LEADS, b=st.integers(1, 30), ties=st.booleans(),
           log_scale=st.floats(-300.0, 300.0), seed=st.integers(0, 2**32 - 1))
    def test_class_max_and_sum_equal_numpy(self, C, lead, b, ties, log_scale, seed):
        rng = np.random.default_rng(seed)
        z = logits(rng, tuple(lead) + (b, C), ties, log_scale)
        rows = z.reshape(-1, C)
        top = backend._class_max(rows)
        assert top.shape == (rows.shape[0],)
        # a max of +0 and -0 may keep either sign; adding 0.0 maps -0 to +0
        assert np.array_equal(bits(top + 0.0), bits(z.max(axis=-1).ravel() + 0.0))
        p = np.abs(z)
        assert np.array_equal(bits(backend._class_sum(p.reshape(-1, C))),
                              bits(p.sum(axis=-1).ravel()))

    def test_sum_past_the_recursion_threshold(self):
        rng = np.random.default_rng(0)
        for C in (128, 129, 136, 200, 257):
            p = np.exp(5.0 * rng.standard_normal((3, 7, C)))
            assert np.array_equal(bits(backend._class_sum(p.reshape(-1, C))),
                                  bits(p.sum(axis=-1).ravel()))


class TestSoftmaxKernel:
    @settings(max_examples=150, deadline=None)
    @given(C=CLASSES, lead=LEADS, b=st.integers(1, 12), d=st.integers(1, 6),
           shared=st.booleans(), zero=st.booleans(), log_scale=st.floats(-3.0, 2.5),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_gradient_equals_reference(self, C, lead, b, d, shared, zero,
                                               log_scale, seed):
        rng = np.random.default_rng(seed)
        lead = tuple(lead)
        Xb = rng.standard_normal(lead + (b, d))
        yb = rng.integers(0, C, size=lead + (b,))
        w_shape = (C * d,) if shared else lead + (C * d,)
        w = np.zeros(w_shape) if zero else 10.0 ** log_scale * rng.standard_normal(w_shape)
        got = backend.stacked_gradient("softmax_linear", Xb, yb, w, C)
        assert np.array_equal(bits(got), bits(old_stacked_gradient(Xb, yb, w, C)))

    @settings(max_examples=150, deadline=None)
    @given(C=CLASSES, m=st.integers(1, 300), d=st.integers(1, 6), zero=st.booleans(),
           log_scale=st.floats(-3.0, 2.5), seed=st.integers(0, 2**32 - 1))
    def test_loss_and_gradient_equal_reference(self, C, m, d, zero, log_scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        y = rng.integers(0, C, size=m)
        w = np.zeros(C * d) if zero else 10.0 ** log_scale * rng.standard_normal(C * d)
        weights = rng.uniform(0.0, 1.0, size=m)
        f, g = backend.softmax_loss_and_gradient(X, y, w, weights, C)
        f_ref, g_ref = old_softmax_loss_and_gradient(X, y, w, weights, C)
        assert np.array_equal(bits(np.float64(f)), bits(np.float64(f_ref)))
        assert np.array_equal(bits(g), bits(g_ref))


class TestMseKernel:
    @settings(max_examples=150, deadline=None)
    @given(lead=LEADS, b=st.integers(1, 20), d=st.integers(1, 8), shared=st.booleans(),
           ties=st.booleans(), log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_stacked_gradient_equals_reference(self, lead, b, d, shared, ties, log_scale,
                                               seed):
        # ties draws X, y and w from a few values, signed zeros among them
        rng = np.random.default_rng(seed)
        lead = tuple(lead)
        Xb = logits(rng, lead + (b, d), ties, log_scale)
        yb = logits(rng, lead + (b,), ties, log_scale)
        w = logits(rng, (d,) if shared else lead + (d,), ties, -log_scale)
        got = backend.stacked_gradient("mse_linear", Xb, yb, w)
        assert np.array_equal(bits(got), bits(old_mse_gradient(Xb, yb, w)))


class TestStepLoop:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["mse_linear", "softmax_linear"]), cohort=st.booleans(),
           r=st.integers(1, 5), E=st.integers(1, 4), b=st.integers(1, 12),
           R=st.one_of(st.none(), st.integers(1, 3)), d=st.integers(1, 5),
           C=st.integers(2, 5), ties=st.booleans(), log_scale=st.floats(-3.0, 3.0),
           eta=st.floats(1e-4, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_local_steps_equal_out_of_place_steps(self, kind, cohort, r, E, b, R, d, C, ties,
                                                  log_scale, eta, seed):
        # a client's (E, b) or a cohort's (r, E, b) batches, from a (P,) start or R
        # replicas' (R, P) starts
        rng = np.random.default_rng(seed)
        m = 3 * b
        X = logits(rng, (m, d), ties, log_scale)
        if kind == "mse_linear":
            P, C, y = d, 0, logits(rng, (m,), ties, log_scale)
        else:
            P, y = C * d, rng.integers(0, C, size=m)
        batches = rng.integers(0, m, size=((r,) if cohort else ()) + (E, b))
        w0 = logits(rng, (P,) if R is None else (R, P), ties, -log_scale)
        w, acc = backend.local_steps(kind, X, y, w0, eta, batches, C)
        w_ref, acc_ref = old_local_steps(kind, X, y, w0, eta, batches, C)
        assert w.shape == acc.shape == w_ref.shape
        assert np.array_equal(bits(w), bits(w_ref))
        assert np.array_equal(bits(acc), bits(acc_ref))
