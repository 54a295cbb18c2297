"""Closed-form bound calculators, checked against independent re-encodings."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from noisyfed.data import partition_iid
from noisyfed.fedavg import Task, learning_rate
from noisyfed.theory import (TheoryParams, bcd_gap, bcd_witness, empirical_sigma2,
                             sgd_error_bound, fedavg_error_bound, zeta, zeta2, zeta3)
from oracles import gamma_form_bound


class TestZetas:
    def test_zeta_hand_value(self):
        assert zeta(0.0035, 1.0, 5, 50, 10) == pytest.approx(2.2858e-4, abs=1e-8)

    def test_zeta_full_participation_drops_sampling_term(self):
        eta, L, E, n = 0.002, 1.0, 5, 50
        expected = 8 * eta**2 * L**2 * E**2 * (2 * eta * L * E / 3)
        assert zeta(eta, L, E, n, n) == pytest.approx(expected, rel=1e-15)

    def test_zeta_vanishes_without_steps(self):
        assert zeta(0.0, 1.0, 5, 50, 10) == 0.0

    def test_zeta2_at_zero_rate(self):
        n, r = 50, 10
        assert zeta2(0.0, 1.0, 5, n, r) == pytest.approx(1 / r + (n - r) / (r * (n - 1)))

    def test_zeta3_at_zero_rate(self):
        assert zeta3(0.0, 1.0, 5, 50, 10) == pytest.approx(21.0)

    def test_small_cohorts_rejected(self):
        with pytest.raises(ValueError):
            zeta(0.1, 1.0, 5, 1, 1)


def v5a_params(**overrides):
    base = dict(n=50, r=10, E=5, K=100, L=1.0,
                eta=learning_rate(18.0, 1.0, 5, 10, 100),
                sigma2=0.0, f0=1.0, sum_U2=0.0, sum_N2=0.0)
    base.update(overrides)
    return TheoryParams(**base)


class TestTheorem2Bound:
    def test_noise_free_total_is_leading_term(self):
        report = fedavg_error_bound(v5a_params())
        assert report.term_uplink == 0.0
        assert report.term_sgd_variance == 0.0
        assert report.term_downlink == 0.0
        assert report.total == pytest.approx(144.0 / np.sqrt(1000.0), rel=1e-12)
        assert report.total == pytest.approx(4.55368, abs=1e-5)

    def test_decomposition_is_exact(self):
        report = fedavg_error_bound(v5a_params(sum_U2=7.0, sigma2=0.0))
        assert report.total - report.leading == pytest.approx(report.term_uplink, rel=1e-12)

    def test_downlink_term_is_linear_in_noise(self):
        a = fedavg_error_bound(v5a_params(sum_N2=3.0)).term_downlink
        b = fedavg_error_bound(v5a_params(sum_N2=6.0)).term_downlink
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_coefficients_match_recursion_constants(self):
        # the eta form, with zeta2 and zeta3 as its coefficients, against the paper's
        # gamma form at the prescribed rate, expanded by hand: two encodings, one value
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 100))
            r = int(rng.integers(1, n + 1))
            E, K = int(rng.integers(1, 20)), int(rng.integers(1, 500))
            gamma, L = float(rng.uniform(4.1, 40.0)), float(rng.uniform(0.1, 4.0))
            terms = dict(f0=float(rng.uniform(0, 10)), sigma2=float(rng.uniform(0, 10)),
                         sum_U2=float(rng.uniform(0, 10)), sum_N2=float(rng.uniform(0, 10)))
            p = TheoryParams(n=n, r=r, E=E, K=K, L=L, eta=learning_rate(gamma, L, E, r, K),
                             **terms)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # K below min_rounds
                rep = fedavg_error_bound(p)
            got = (rep.leading, rep.term_uplink, rep.term_sgd_variance, rep.term_downlink)
            assert got == pytest.approx(gamma_form_bound(n, r, E, K, gamma, L, **terms),
                                        rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(4.0 + 1e-9, 1e6), L=st.floats(1e-3, 1e3), E=st.integers(1, 50),
           r=st.integers(1, 100), K=st.integers(1, 10_000))
    def test_gamma_round_trips_through_the_prescribed_rate(self, gamma, L, E, r, K):
        # a gamma within a few ulps of 4 may come back at 4 and be rejected
        p = TheoryParams(n=max(r, 2), r=r, E=E, K=K, L=L, eta=learning_rate(gamma, L, E, r, K))
        assert p.gamma == pytest.approx(gamma, rel=1e-12)

    @pytest.mark.parametrize("eta_over_limit", [1.0 + 1e-9, 1.5, 100.0])
    def test_rate_the_theorem_does_not_cover_rejected(self, eta_over_limit):
        limit = np.sqrt(10 / 100) / (4 * 1.0 * 5)  # gamma = 4 at v5a's r, K, L and E
        message = r"must be below sqrt\(r/K\) / \(4 L E\) = 0\.0158114 for the bound to apply"
        with pytest.raises(ValueError, match=message):
            v5a_params(eta=eta_over_limit * limit)

    def test_underflowing_rate_gives_infinite_gamma(self):
        # eta L E is 0.0 in float64 here, so gamma must not divide by that product
        p = TheoryParams(n=2, r=1, E=1, K=1, L=0.4, eta=5e-324, f0=1.0)
        assert p.gamma == np.inf
        assert fedavg_error_bound(p).leading == np.inf

    def test_warns_on_short_horizon(self):
        with pytest.warns(UserWarning, match="minimum-round requirement"):
            fedavg_error_bound(TheoryParams(n=50, r=40, E=5, K=1, L=1.0,
                                            eta=learning_rate(4.5, 1.0, 5, 40, 1), f0=1.0))

    def test_pinned_rate_uplink_term_at_effective_gamma(self):
        # a run at pinned eta is the prescribed-rate run for
        # gamma_eff = sqrt(r/K) / (eta L E); there the uplink term is
        # 4 eta L sum_U2 / (r E K), which goes as 1/(rE) along either axis
        eta, L, K, n, sum_U2 = learning_rate(18.0, 1.0, 5, 10, 100), 1.0, 100, 50, 24.0
        for r, E in ((5, 5), (10, 1)):
            p = TheoryParams(n=n, r=r, E=E, K=K, L=L, eta=eta, sum_U2=sum_U2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = fedavg_error_bound(p)
            assert rep.term_uplink == pytest.approx(4 * eta * L * sum_U2 / (r * E * K),
                                                    rel=1e-12)

    @pytest.mark.parametrize("field", ["sigma2", "f0", "sum_U2", "sum_N2", "L", "eta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        # min(...) < 0 is False for a nan, so a nan sigma2 used to pass
        with pytest.raises(ValueError, match="must be finite"):
            v5a_params(**{field: value})

    def test_bound_positivity_and_decomposition_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 100))
            r = int(rng.integers(1, n + 1))
            E = int(rng.integers(1, 20))
            K = int(rng.integers(1, 500))
            gamma, L = float(rng.uniform(4.1, 40.0)), float(rng.uniform(0.1, 4))
            p = TheoryParams(n=n, r=r, E=E, K=K, L=L, eta=learning_rate(gamma, L, E, r, K),
                             sigma2=float(rng.uniform(0, 10)), f0=float(rng.uniform(0, 10)),
                             sum_U2=float(rng.uniform(0, 10)), sum_N2=float(rng.uniform(0, 10)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = fedavg_error_bound(p)
            parts = [rep.leading, rep.term_uplink, rep.term_sgd_variance, rep.term_downlink]
            assert all(x >= 0 for x in parts)
            assert rep.total == sum(parts)
            eta, T = float(rng.uniform(1e-3, 1.0 / L)), int(rng.integers(1, 500))
            sgd = sgd_error_bound(eta, L, T, *rng.uniform(0, 10, size=5).tolist())
            assert sgd.total == sum([sgd.leading, sgd.term_uplink, sgd.term_sgd_variance,
                                     sgd.term_downlink])


class TestTheorem1Bound:
    def test_hand_value(self):
        rep = sgd_error_bound(eta=1.0, L=1.0, T=100, f0=1.0, f_star=0.0,
                             sigma2=1.0, sum_U2=0.0, sum_N2=0.0)
        assert rep.total == pytest.approx(1.02)

    def test_noise_free_reduces_to_optimality_gap_term(self):
        rep = sgd_error_bound(eta=0.1, L=1.0, T=50, f0=3.0, f_star=1.0,
                             sigma2=0.0, sum_U2=0.0, sum_N2=0.0)
        assert rep.total == pytest.approx(2 * 2.0 / (50 * 0.1))

    def test_coefficient_asymmetry(self):
        # halving the rate halves the uplink term and leaves downlink untouched
        a = sgd_error_bound(0.2, 1.0, 10, 1.0, 0.0, 0.0, sum_U2=5.0, sum_N2=5.0)
        b = sgd_error_bound(0.1, 1.0, 10, 1.0, 0.0, 0.0, sum_U2=5.0, sum_N2=5.0)
        assert b.term_uplink == pytest.approx(0.5 * a.term_uplink)
        assert b.term_downlink == pytest.approx(a.term_downlink)

    def test_warns_above_inverse_smoothness(self):
        with pytest.warns(UserWarning):
            sgd_error_bound(1.5, 1.0, 10, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestBcdCounterexample:
    def test_single_client_gap_is_zero(self):
        for w in (0.0, 1.0, -3.5, 100.0):
            assert bcd_gap(w, 1) == 0.0

    def test_plug_in(self):
        assert bcd_gap(2.0, 2) == pytest.approx(1.0)

    def test_witness_unbounded(self):
        for G in (1.0, 10.0, 100.0):
            w = bcd_witness(G, 2)
            assert bcd_gap(w, 2) > G * G


def sigma2_case(kind, C, n, per, extra, d, n_probes, seed):
    """A task of m = n * per + extra % n rows in n iid shards of per or per + 1 rows, and
    the zero probe plus n_probes - 1 Gaussian ones; a softmax case needs m >= C and a
    regression case m >= d."""
    from noisyfed.data import SyntheticRegressionSpec, generate_classification, generate_regression
    from noisyfed.model import LossModel

    m = n * per + extra % n
    assume(m >= (d if kind == "mse_linear" else C))
    if kind == "mse_linear":
        ds = generate_regression(SyntheticRegressionSpec(m=m, d=d), seed)
        model = LossModel(kind, dim=d)
    else:
        ds = generate_classification(m, d, C, 2.0, seed)
        model = LossModel(kind, dim=C * d, n_classes=C)
    rng = np.random.default_rng(seed)
    probes = [np.zeros(model.dim)] + [rng.standard_normal(model.dim)
                                      for _ in range(n_probes - 1)]
    return Task(ds, model, partition_iid(m, n, seed)), probes


sigma2_cases = dict(case=st.sampled_from([("mse_linear", 0), ("softmax_linear", 3),
                                          ("softmax_linear", 9)]),
                    n=st.integers(2, 6), per=st.integers(2, 20), extra=st.integers(0, 5),
                    d=st.integers(1, 4), n_probes=st.integers(1, 4),
                    b_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))


class TestEmpiricalSigma2:
    def _task(self, m=300, d=5, seed=0):
        from noisyfed.data import SyntheticRegressionSpec, generate_regression
        from noisyfed.model import LossModel, smoothness_constant

        ds = generate_regression(SyntheticRegressionSpec(m=m, d=d,
                                                         label_noise_variance=0.1), seed)
        model = LossModel("mse_linear", dim=d,
                          smoothness=smoothness_constant(LossModel("mse_linear", dim=d), ds.X))
        return Task(ds, model, partition_iid(m, 3, seed))

    def test_full_batch_has_no_variance(self):
        assert empirical_sigma2(self._task(), [np.zeros(5)], batch_size=100) == 0.0

    def test_scales_inversely_with_batch_size(self):
        # shards of m = 100: (m - b) / (b (m - 1)) gives v5 / v20 = 4 (m - 5) / (m - 20)
        task = self._task()
        v5 = empirical_sigma2(task, [np.zeros(5)], 5)
        v20 = empirical_sigma2(task, [np.zeros(5)], 20)
        assert v5 / v20 == pytest.approx(4 * 95 / 80, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(**sigma2_cases)
    def test_equals_direct_centered_sum(self, case, n, per, extra, d, n_probes, b_frac, seed):
        from oracles import centered_sigma2

        task, probes = sigma2_case(*case, n, per, extra, d, n_probes, seed)
        b = 1 + round(b_frac * (per - 1))
        want = centered_sigma2(task, probes, b)
        assert empirical_sigma2(task, probes, b) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(**sigma2_cases)
    def test_equals_monte_carlo_mean(self, case, n, per, extra, d, n_probes, b_frac, seed):
        # |max_i a_i - max_i c_i| <= max_i |a_i - c_i|, so the exact maximum lies within
        # the widest shard-and-probe CLT interval of the maximum of the trial means; a
        # whole-shard batch in another row order leaves a rounding residue of ~1e-32 |g|^2
        from oracles import monte_carlo_sigma2

        task, probes = sigma2_case(*case, n, per, extra, d, n_probes, seed)
        b = 1 + round(b_frac * (per - 1))
        trials = 400
        sq = monte_carlo_sigma2(task, probes, b, trials, seed)
        se = sq.std(axis=-1, ddof=1) / np.sqrt(trials)
        exact = empirical_sigma2(task, probes, b)
        assert abs(exact - sq.mean(axis=-1).max()) <= 6.0 * se.max() + 1e-12 * exact + 1e-20

    @settings(max_examples=15, deadline=None)
    @given(case=sigma2_cases["case"], n=st.integers(2, 6), per=st.integers(1, 20),
           d=st.integers(1, 4), n_probes=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_whole_shard_batches_have_no_variance(self, case, n, per, d, n_probes, seed):
        task, probes = sigma2_case(*case, n, per, 0, d, n_probes, seed)
        assert set(task.shard_sizes) == {per}
        assert empirical_sigma2(task, probes, per) == 0.0

    @pytest.mark.parametrize("kind", ["mse_linear", "softmax_linear"])
    def test_equals_per_trial_gradient_loop_bitwise(self, kind):
        # the Monte-Carlo oracle's stacked products against one model.full_gradient call
        # per trial batch, each drawn by sample_batch from numpy's own stream
        from noisyfed.data import (SyntheticRegressionSpec, generate_classification,
                                   generate_regression, sample_batch)
        from noisyfed.model import LossModel, full_gradient
        from oracles import TRIAL_STREAM, monte_carlo_sigma2

        if kind == "mse_linear":
            ds = generate_regression(SyntheticRegressionSpec(m=103, d=4,
                                                             label_noise_variance=0.1), 6)
            model = LossModel(kind, dim=4)
        else:
            ds = generate_classification(103, 4, 3, 2.0, 6)
            model = LossModel(kind, dim=12, n_classes=3)
        part = partition_iid(103, 5, 6)  # ragged: shards of 20 and 21 rows
        rng = np.random.default_rng(6)
        probes = [np.zeros(model.dim), rng.standard_normal(model.dim)]
        oracle = np.random.default_rng([6, TRIAL_STREAM])
        want = []
        for shard in part.shards:
            Xs, ys = ds.X[shard], ds.y[shard]
            for w in probes:
                ref = full_gradient(model, w, Xs, ys)
                for _ in range(7):
                    b = sample_batch(np.arange(shard.size), 9, oracle)
                    diff = full_gradient(model, w, Xs[b], ys[b]) - ref
                    want.append(float(diff @ diff))
        got = monte_carlo_sigma2(Task(ds, model, part), probes, 9, 7, 6)
        assert got.ravel().tolist() == want

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from([("mse_linear", 0), ("softmax_linear", 3),
                                 ("softmax_linear", 9)]),
           n=st.integers(2, 6), per=st.integers(8, 20), extra=st.integers(1, 5),
           d=st.integers(1, 4), n_probes=st.integers(1, 7), trials=st.integers(1, 6),
           b_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_stacked_equals_per_probe_loop_bitwise(self, case, n, per, extra, d, n_probes,
                                                    trials, b_frac, seed):
        from noisyfed.data import sample_batch
        from noisyfed.model import full_gradient
        from oracles import TRIAL_STREAM, monte_carlo_sigma2

        task, probes = sigma2_case(*case, n, per, extra, d, n_probes, seed)
        ds, model = task.dataset, task.model
        b = 1 + round(b_frac * (per - 1))
        # per (shard, probe): one full_gradient call, then one per trial batch
        oracle = np.random.default_rng([seed, TRIAL_STREAM])
        want = []
        for shard in task.partition.shards:
            Xs, ys = ds.X[shard], ds.y[shard]
            for w in probes:
                ref = full_gradient(model, w, Xs, ys)
                for _ in range(trials):
                    rows = sample_batch(np.arange(shard.size), b, oracle)
                    diff = full_gradient(model, w, Xs[rows], ys[rows]) - ref
                    want.append(float(diff @ diff))
        got = monte_carlo_sigma2(task, probes, b, trials, seed)
        assert got.ravel().tolist() == want

    def test_bad_probes_rejected(self):
        task = self._task()
        with pytest.raises(ValueError, match="probe"):
            empirical_sigma2(task, [], 10)  # used to return 0.0
        with pytest.raises(ValueError, match="params"):
            empirical_sigma2(task, [np.zeros(5), np.zeros(4)], 10)
        with pytest.raises(ValueError, match="params"):
            empirical_sigma2(task, [np.full(5, np.nan)], 10)
        with pytest.raises(ValueError, match="batch_size"):
            empirical_sigma2(task, [np.zeros(5)], 0)

    def test_batch_larger_than_a_shard_rejected(self):
        from noisyfed.data import SyntheticRegressionSpec, generate_regression
        from noisyfed.model import LossModel

        dataset = generate_regression(SyntheticRegressionSpec(m=9, d=1), seed=0)
        task = Task(dataset, LossModel("mse_linear", dim=1), partition_iid(9, 2, seed=0))
        assert task.shard_sizes == (5, 4)
        with pytest.raises(ValueError, match="batch_size"):
            empirical_sigma2(task, [np.zeros(1)], 5)
