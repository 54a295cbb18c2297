"""Noise schedules, perturbation moments, and power accounting."""

import numpy as np
import pytest

from noisyfed.channel import (InfiniteBudgetError, NoiseSchedule, compare_policies, perturb,
                              power_budget, variance_at)


def constant(std=0.2, direction="uplink"):
    return NoiseSchedule(direction, "constant", std)


class TestVarianceAt:
    def test_constant(self):
        sched = constant(0.2)
        for k in (0, 1, 50, 999):
            assert variance_at(sched, k) == pytest.approx(0.04)

    def test_poly_decay_with_step_scaling(self):
        sched = NoiseSchedule("downlink", "poly_decay", 0.2, 1.0, e_squared_scaling=True)
        assert variance_at(sched, 0, E=5) == pytest.approx(0.04 / 25)
        assert variance_at(sched, 9, E=5) == pytest.approx(0.04 / 250)

    def test_off_is_zero(self):
        sched = NoiseSchedule("uplink")
        assert all(variance_at(sched, k) == 0.0 for k in range(10))

    def test_decay_is_monotone(self):
        sched = NoiseSchedule("uplink", "poly_decay", 1.0, 0.5)
        v = [variance_at(sched, k) for k in range(10_000)]
        assert all(v[k + 1] <= v[k] for k in range(len(v) - 1))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            NoiseSchedule("sideways")
        with pytest.raises(ValueError):
            NoiseSchedule("uplink", "constant", 0.0)
        with pytest.raises(ValueError):
            NoiseSchedule("uplink", "off", 0.2)
        with pytest.raises(ValueError):
            variance_at(constant(), -1)

    def test_constant_takes_no_decay_parameters(self):
        with pytest.raises(ValueError, match="constant"):
            NoiseSchedule("uplink", "constant", 0.2, decay_exponent=0.5)
        with pytest.raises(ValueError, match="constant"):
            NoiseSchedule("uplink", "constant", 0.2, e_squared_scaling=True)
        assert NoiseSchedule("uplink", "constant", 0.2, 0.0, False) == constant()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        # nan > 0 is false, so a nan channel would otherwise run as off
        with pytest.raises(ValueError, match="finite"):
            NoiseSchedule("uplink", "constant", bad)
        with pytest.raises(ValueError, match="finite"):
            NoiseSchedule("downlink", "poly_decay", 0.2, bad)

    def test_base_std_whose_square_overflows_rejected(self):
        # (1e160)**2 raised OverflowError inside variance_at
        with pytest.raises(ValueError, match="squared must be finite"):
            NoiseSchedule("uplink", "constant", 1e160)
        assert variance_at(NoiseSchedule("uplink", "constant", 1e154), 3) == 1e154 ** 2

    def test_decay_beyond_float_range_gives_zero_variance(self):
        # 3.0**1000 overflows; dividing by it as an IEEE infinity gives 0.0
        sched = NoiseSchedule("downlink", "poly_decay", 0.2, 1000.0, e_squared_scaling=True)
        assert variance_at(sched, 0, E=2) == 0.2 ** 2 / 4.0
        assert variance_at(sched, 1, E=2) == 0.2 ** 2 / 2.0 ** 1000 / 4.0
        assert [variance_at(sched, k, E=2) for k in (2, 9, 10**6)] == [0.0] * 3


class TestPerturb:
    def test_zero_variance_is_identity(self):
        v = np.arange(5.0)
        out = perturb(v, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, v)

    def test_moments(self):
        rng = np.random.default_rng(123)
        n = 100_000
        z = perturb(np.zeros(n), 0.04, rng)
        assert abs(z.mean()) <= 3 * 0.2 / np.sqrt(n)
        assert abs(z.var() - 0.04) / 0.04 < 0.05

    def test_deterministic_under_fixed_state(self):
        v = np.ones(8)
        a = perturb(v, 0.5, np.random.default_rng(9))
        b = perturb(v, 0.5, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(3), -0.1, np.random.default_rng(0))


class TestPowerBudget:
    def test_constant_costs_one_per_round(self):
        assert power_budget(constant(), K=100) == pytest.approx(100.0)

    def test_linear_decay_series(self):
        sched = NoiseSchedule("uplink", "poly_decay", 0.3, 1.0)
        assert power_budget(sched, K=100) == pytest.approx(5050.0)

    def test_sqrt_decay_series(self):
        sched = NoiseSchedule("uplink", "poly_decay", 0.3, 0.5)
        oracle = float(np.sqrt(np.arange(1, 101)).sum())
        got = power_budget(sched, K=100)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(671.4629471, abs=1e-6)

    def test_off_has_no_budget(self):
        with pytest.raises(InfiniteBudgetError):
            power_budget(NoiseSchedule("uplink"), K=10)


class TestComparePolicies:
    def test_reference_uplink_ratio(self):
        cmp = compare_policies(100, 5)
        assert cmp.uplink_budget == pytest.approx(671.4629471, abs=1e-6)
        assert cmp.prior_uplink_budget == pytest.approx(5050.0)
        assert cmp.uplink_ratio == pytest.approx(0.1330, abs=1e-3)

    def test_downlink_ratio_carries_step_factor(self):
        cmp = compare_policies(100, 5)
        assert cmp.downlink_ratio == pytest.approx(25.0, rel=1e-12)

    def test_single_round(self):
        cmp = compare_policies(1, 5)
        assert cmp.uplink_budget == pytest.approx(1.0)
        assert cmp.downlink_budget == pytest.approx(25.0)

    def test_uplink_ratio_decreases_with_horizon(self):
        ratios = [compare_policies(K, 5).uplink_ratio for K in (10, 100, 1000)]
        assert ratios[0] > ratios[1] > ratios[2]


class TestUplinkDecayCompliance:
    def test_average_noise_power_shrinks_like_inverse_sqrt(self):
        # (1/K) * sum of variances, times sqrt(K), stays bounded as K grows
        sched = NoiseSchedule("uplink", "poly_decay", 0.2, 0.5)
        vals = []
        for K in (100, 1000, 10_000):
            avg = np.mean([variance_at(sched, k) for k in range(K)])
            vals.append(avg * np.sqrt(K))
        assert max(vals) / min(vals) < 1.2
        assert max(vals) < 3 * 0.04
