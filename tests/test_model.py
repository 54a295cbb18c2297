"""Loss, gradient, and smoothness checks against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyfed.data import SyntheticRegressionSpec, generate_regression
from noisyfed.experiment import build_task
from noisyfed.model import (LossModel, _power_iteration_gram, full_gradient, loss,
                            smoothness_constant)
from oracles import finite_difference_gradient, power_iteration_gram
from presets import preset


def random_mse_case(rng, m=12, d=5):
    model = LossModel("mse_linear", dim=d)
    X = rng.standard_normal((m, d))
    y = rng.standard_normal(m)
    w = rng.standard_normal(d)
    return model, w, X, y


def random_softmax_case(rng, m=12, d=4, C=3):
    model = LossModel("softmax_linear", dim=C * d, n_classes=C)
    X = rng.standard_normal((m, d))
    y = rng.integers(0, C, size=m).astype(np.int64)
    w = rng.standard_normal(C * d)
    return model, w, X, y


class TestLoss:
    def test_zero_params_zero_targets(self):
        model = LossModel("mse_linear", dim=3)
        X = np.random.default_rng(0).standard_normal((5, 3))
        assert loss(model, np.zeros(3), X, np.zeros(5)) == 0.0

    def test_hand_evaluated_residual(self):
        # w=[1], x=[2], y=0: residual 2, loss 0.5 * 4
        model = LossModel("mse_linear", dim=1)
        assert loss(model, np.array([1.0]), np.array([[2.0]]), np.array([0.0])) == 2.0

    def test_softmax_uniform_at_zero(self):
        model = LossModel("softmax_linear", dim=8, n_classes=2)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 4))
        y = rng.integers(0, 2, 20).astype(np.int64)
        assert loss(model, np.zeros(8), X, y) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(5000):
            model, w, X, y = random_mse_case(rng, m=4, d=3)
            assert loss(model, w, X, y) >= 0.0
        for _ in range(5000):
            model, w, X, y = random_softmax_case(rng, m=4, d=3, C=3)
            assert loss(model, w, X, y) >= 0.0

    def test_dimension_mismatch_rejected(self):
        model = LossModel("mse_linear", dim=3)
        X = np.zeros((4, 3))
        with pytest.raises(ValueError):
            loss(model, np.zeros(2), X, np.zeros(4))
        with pytest.raises(ValueError):
            loss(model, np.zeros(3), np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            loss(model, np.zeros(3), X, np.zeros(5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_smoothness_must_be_finite_and_nonnegative(self, bad):
        # nan passed the old smoothness < 0 check
        with pytest.raises(ValueError, match="smoothness must be finite"):
            LossModel("mse_linear", dim=3, smoothness=bad)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for maker in (random_mse_case, random_softmax_case):
            for _ in range(100):
                model, w, X, y = maker(rng)
                g = full_gradient(model, w, X, y)
                fd = finite_difference_gradient(model, w, X, y, step=1e-6)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
                assert rel < 1e-6

    def test_zero_at_generating_params(self):
        rng = np.random.default_rng(3)
        d = 6
        theta = rng.standard_normal(d)
        X = rng.standard_normal((40, d))
        y = X @ theta
        model = LossModel("mse_linear", dim=d)
        assert np.linalg.norm(full_gradient(model, theta, X, y)) < 1e-12

    def test_batch_partition_linearity(self):
        rng = np.random.default_rng(5)
        model, w, X, y = random_mse_case(rng, m=12, d=4)
        g_full = full_gradient(model, w, X, y)
        parts = [np.arange(0, 4), np.arange(4, 9), np.arange(9, 12)]
        weighted = sum(len(p) * full_gradient(model, w, X[p], y[p]) for p in parts) / 12
        np.testing.assert_allclose(weighted, g_full, rtol=1e-12, atol=1e-14)

    def test_unbiased_over_exhaustive_batches(self):
        from itertools import combinations

        rng = np.random.default_rng(9)
        model, w, X, y = random_mse_case(rng, m=10, d=3)
        g_full = full_gradient(model, w, X, y)
        batches = list(combinations(range(10), 3))
        mean = np.mean([full_gradient(model, w, X[list(b)], y[list(b)]) for b in batches], axis=0)
        np.testing.assert_allclose(mean, g_full, rtol=0, atol=1e-12)


class TestFiniteDifferences:
    def test_rejects_nonpositive_step(self):
        model = LossModel("mse_linear", dim=2)
        with pytest.raises(ValueError):
            finite_difference_gradient(model, np.zeros(2), np.eye(2), np.zeros(2), step=0.0)

    def test_exact_on_quadratic(self):
        # central differences have zero truncation error on quadratics
        rng = np.random.default_rng(13)
        model, w, X, y = random_mse_case(rng, m=8, d=4)
        fd = finite_difference_gradient(model, w, X, y, step=1e-3)
        np.testing.assert_allclose(fd, full_gradient(model, w, X, y), atol=1e-9)

    def test_zero_on_constant_function(self):
        # all-zero features make the loss independent of the parameters
        model = LossModel("mse_linear", dim=3)
        X = np.zeros((6, 3))
        y = np.ones(6)
        fd = finite_difference_gradient(model, np.ones(3), X, y, step=1e-5)
        np.testing.assert_allclose(fd, np.zeros(3), atol=1e-12)


class TestSmoothness:
    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((500, 12))
        model = LossModel("mse_linear", dim=12)
        lam = smoothness_constant(model, X)
        oracle = np.linalg.eigvalsh(X.T @ X / 500)[-1]
        assert lam == pytest.approx(oracle, rel=1e-6)

    def test_unit_basis_example(self):
        model = LossModel("mse_linear", dim=4)
        X = np.zeros((1, 4))
        X[0, 0] = 1.0
        assert smoothness_constant(model, X) == pytest.approx(1.0, rel=1e-10)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((80, 6))
        model = LossModel("mse_linear", dim=6)
        assert smoothness_constant(model, 2.0 * X) == pytest.approx(
            4.0 * smoothness_constant(model, X), rel=1e-7)

    def test_softmax_half_factor(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((80, 6))
        mse = LossModel("mse_linear", dim=6)
        soft = LossModel("softmax_linear", dim=18, n_classes=3)
        assert smoothness_constant(soft, X) == pytest.approx(
            0.5 * smoothness_constant(mse, X), rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
    def test_non_finite_gram_stops_at_once(self, bad):
        # 1e160 is finite, but its Gram matrix overflows to inf
        class CountingMatmul(np.ndarray):
            calls = 0

            def __matmul__(self, other):
                CountingMatmul.calls += 1
                return np.ndarray.__matmul__(self, other)
        X = np.random.default_rng(3).standard_normal((40, 5))
        X[7, 2] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            lam = _power_iteration_gram(X.view(CountingMatmul))
        assert np.isnan(lam)
        assert CountingMatmul.calls <= 3  # X^T X, then C v once

    @pytest.mark.parametrize("scale", [1e100, 1e140, 1e150, 1e152])
    def test_overflowing_norm_gives_nan(self, scale):
        # C is finite and so is its top eigenvalue (eigvalsh: 1.3e200 to 1.1e304), but
        # the iterate's squared norm overflows: such an L has no finite square. This
        # used to go on with a finite iterate, divide it by inf and return 0.0
        X = np.random.default_rng(0).standard_normal((60, 3)) * scale
        assert np.isfinite(np.linalg.eigvalsh(X.T @ X / 60)[-1])
        with np.errstate(over="ignore"):
            assert math.isnan(power_iteration_gram(X, 1e-8)[0])
        assert math.isnan(smoothness_constant(LossModel("mse_linear", dim=3), X))

    def test_gradient_lipschitz_bound(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((200, 5))
        y = rng.standard_normal(200)
        model = LossModel("mse_linear", dim=5)
        L = smoothness_constant(model, X)
        for _ in range(1000):
            w1 = rng.standard_normal(5)
            w2 = rng.standard_normal(5)
            lhs = np.linalg.norm(full_gradient(model, w1, X, y) - full_gradient(model, w2, X, y))
            assert lhs <= (L + 1e-9) * np.linalg.norm(w1 - w2)

    def test_full_gradient_bounded_near_optimum(self):
        rng = np.random.default_rng(29)
        d = 5
        X = rng.standard_normal((300, d))
        y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(300)
        model = LossModel("mse_linear", dim=d)
        L = smoothness_constant(model, X)
        w_min = np.linalg.solve(X.T @ X, X.T @ y)  # normal-equations oracle
        assert np.linalg.norm(full_gradient(model, w_min, X, y)) <= 1e-8
        for _ in range(50):
            w = rng.standard_normal(d)
            g = np.linalg.norm(full_gradient(model, w, X, y))
            assert g <= (L + 1e-9) * np.linalg.norm(w - w_min) + 1e-12


def spectrum_case(m, d, gap, seed):
    """An (m, d) X whose (1/m) X^T X has top eigenvalue 1 and the rest at most 1 - gap,
    rotated by random orthogonal factors; a small gap makes a near-flat spectrum."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.concatenate(([1.0], (1.0 - gap) * rng.uniform(0.5, 1.0, d - 1) ** 4))
    lam[1] = 1.0 - gap
    return (U * np.sqrt(m * lam)) @ V.T


def same_bits(a, b):
    return float(a).hex() == float(b).hex()


class TestPowerIterationBits:
    """_power_iteration_gram against the np.linalg.norm loop it replaced, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 8), extra=st.integers(0, 30), flat=st.booleans(),
           log_gap=st.floats(-3.0, 0.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_norm_loop(self, d, extra, flat, log_gap, seed):
        m = d + extra
        if flat:
            X = spectrum_case(m, d, 10.0 ** log_gap, seed)
        else:
            X = np.random.default_rng(seed).standard_normal((m, d)) * 10.0 ** (3 * log_gap)
        want, _ = power_iteration_gram(X, 1e-8)
        assert same_bits(_power_iteration_gram(X), want)

    def test_near_flat_spectrum_runs_long(self):
        X = spectrum_case(12, 5, 1e-3, seed=1)
        want, iterations = power_iteration_gram(X, 1e-8)
        assert iterations > 1000
        assert same_bits(_power_iteration_gram(X), want)

    def test_v5a_task(self):
        # both power iterations of a v5a build: the scale of X, then the smoothness
        cfg = preset("v5a_constant_noise")
        task = build_task(cfg)
        spec = SyntheticRegressionSpec(m=cfg.data.m, d=cfg.data.d,
                                       label_noise_variance=cfg.data.label_noise_variance,
                                       normalize_hessian=False)
        raw = generate_regression(spec, cfg.data.seed).X
        lam, _ = power_iteration_gram(raw, 1e-8)
        assert np.array_equal(task.dataset.X, raw / np.sqrt(lam))
        assert same_bits(task.model.smoothness, power_iteration_gram(task.dataset.X, 1e-8)[0])
