"""Federated loop mechanics: rates, sampling, degeneracy, determinism, SGD."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyfed import backend, fedavg, streams
from noisyfed.channel import NoiseSchedule, variance_at
from noisyfed.config import parse_config
from noisyfed.data import (ClientPartition, Dataset, SyntheticRegressionSpec,
                           generate_classification, generate_regression, partition_iid,
                           partition_label_shard, sample_batch)
from noisyfed.experiment import (build_task, run_experiment, run_one_seed, run_sweep,
                                 sweep_variants)
from noisyfed.fedavg import (_BATCH, _SAMPLE, FedAvgConfig, Task, _global_metrics,
                             _metric_inputs, _stream, client_sample, kstar_weights,
                             learning_rate, round_draws, run_noisy_fedavg, run_noisy_sgd,
                             run_replicas, sample_kstar)
from noisyfed.model import LossModel, full_gradient, loss, smoothness_constant
from noisyfed.theory import min_rounds
from oracles import client_batches, keyed_stream_batches, keyed_stream_draws
from presets import preset


class TestLearningRate:
    def test_reference_value(self):
        lr = learning_rate(18.0, 1.0, 5, 10, 100)
        assert lr == pytest.approx(0.0035136, abs=1e-6)
        assert abs(lr - 0.0035) < 1e-4  # matches the reported rounded rate

    def test_unit_ratio(self):
        assert learning_rate(2.0, 1.0, 1, 7, 7) == pytest.approx(0.5)

    def test_quadrupling_horizon_halves_rate(self):
        assert learning_rate(18.0, 1.0, 5, 10, 400) == pytest.approx(
            learning_rate(18.0, 1.0, 5, 10, 100) / 2)


class TestMinRounds:
    def test_reference_value(self):
        got = min_rounds(10, 18.0)
        assert got == pytest.approx(0.12346, abs=1e-5)
        # both branches evaluated independently
        first = 1024 * 1000 / (9 * 324) * (1 / (324 - 16)) ** 2
        assert first == pytest.approx(3.702e-3, abs=1e-5)
        assert got == pytest.approx(max(first, 40 / 324))

    def test_vanishes_with_no_clients(self):
        assert min_rounds(0, 18.0) == 0.0

    def test_monotone_in_cohort(self):
        vals = [min_rounds(r, 18.0) for r in (1, 10, 100)]
        assert vals[0] < vals[1] < vals[2]

    def test_singular_gamma_rejected(self):
        with pytest.raises(ValueError):
            min_rounds(10, 4.0)


class TestClientSample:
    def test_full_participation(self):
        got = client_sample(6, 6, np.random.default_rng(0))
        assert np.array_equal(got, np.arange(6))

    def test_inclusion_marginals(self):
        rng = np.random.default_rng(1)
        draws = 100_000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[client_sample(5, 2, rng)] += 1
        p = 2 / 5
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_deterministic(self):
        a = client_sample(50, 10, np.random.default_rng(3))
        b = client_sample(50, 10, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_oversized_cohort_rejected(self):
        with pytest.raises(ValueError):
            client_sample(5, 6, np.random.default_rng(0))


class TestSampleKstar:
    def test_single_round(self):
        assert sample_kstar(0.3, 1, np.random.default_rng(0)) == 0

    def test_two_round_weights(self):
        rng = np.random.default_rng(5)
        draws = 20_000
        zeros = sum(sample_kstar(1.0, 2, rng) == 0 for _ in range(draws))
        p = 2 / 3
        sigma = np.sqrt(draws * p * (1 - p))
        assert abs(zeros - draws * p) <= 3 * sigma

    def test_zero_rate_is_uniform_chisquare(self):
        rng = np.random.default_rng(7)
        K, draws = 10, 100_000
        counts = np.bincount([sample_kstar(0.0, K, rng) for _ in range(draws)], minlength=K)
        expected = draws / K
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 21.666  # chi-square df=9 critical value at the 1% level

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_kstar(-0.1, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, bad):
        # NaN passed the zeta < 0 test and gave all-NaN weights
        with pytest.raises(ValueError, match="finite"):
            kstar_weights(bad, 5)
        with pytest.raises(ValueError, match="finite"):
            sample_kstar(bad, 5, np.random.default_rng(0))


class TestLocalUpdate:
    """A client's E local SGD steps, as run_noisy_fedavg runs them."""

    def _shard(self, m=60, d=4, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m)
        model = LossModel("mse_linear", dim=d,
                          smoothness=smoothness_constant(LossModel("mse_linear", dim=d), X))
        return model, X, y

    def test_rejects_degenerate_args(self):
        # E and eta reach the local steps only through a validated FedAvgConfig
        with pytest.raises(ValueError):
            tiny_config(E=0)
        with pytest.raises(ValueError):
            tiny_config(learning_rate_override=0.0)

    def test_tiny_rate_barely_moves(self):
        model, X, y = self._shard()
        w0 = np.ones(4)
        batches = client_batches(X.shape[0], 20, 3, np.random.default_rng(1))
        w1, _ = backend.local_steps(model.kind, X, y, w0, 1e-12, batches)
        assert np.linalg.norm(w1 - w0) < 1e-9

    def test_full_batch_descent_lemma(self):
        model, X, y = self._shard()
        eta = 1.0 / model.smoothness
        w = np.ones(4) * 2.0
        rng = np.random.default_rng(2)
        prev = loss(model, w, X, y)
        for _ in range(5):
            batches = client_batches(X.shape[0], X.shape[0], 1, rng)
            w, _ = backend.local_steps(model.kind, X, y, w, eta, batches)
            cur = loss(model, w, X, y)
            assert cur <= prev + 1e-12
            prev = cur

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["mse_linear", "softmax_linear"]), m=st.integers(1, 40),
           d=st.integers(1, 6), n_classes=st.integers(2, 5), E=st.integers(1, 3),
           batch_frac=st.floats(0.0, 1.0), eta=st.floats(1e-4, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_steps_are_gradient_steps_on_the_batch_rows(self, kind, m, d, n_classes, E,
                                                        batch_frac, eta, seed):
        # bitwise: the step loop and model.full_gradient share one arithmetic path
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        if kind == "mse_linear":
            model = LossModel(kind, dim=d)
            y = rng.standard_normal(m)
        else:
            model = LossModel(kind, dim=n_classes * d, n_classes=n_classes)
            y = rng.integers(0, n_classes, size=m)
        w0 = rng.standard_normal(model.dim)
        batches = client_batches(m, max(1, round(batch_frac * m)), E, rng)
        w1, acc = backend.local_steps(kind, X, y, w0, eta, batches, model.n_classes)
        w, acc_ref = w0, np.zeros(model.dim)
        for rows in batches:
            g = full_gradient(model, w, X[rows], y[rows])
            acc_ref = acc_ref + g
            w = w - eta * g
        assert np.array_equal(acc, acc_ref)
        assert np.array_equal(w1, w)


class TestCohortSteps:
    """A round's cohort stepped in one local_steps call, as run_replicas steps it: from
    one start, or from R replicas' starts at once."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["mse_linear", "softmax_linear"]), label_shard=st.booleans(),
           n=st.integers(2, 8), per=st.integers(3, 12), extra=st.integers(0, 6),
           d=st.integers(1, 5), r_frac=st.floats(0.0, 1.0), b_frac=st.floats(0.0, 1.0),
           E=st.integers(1, 3), eta=st.floats(1e-4, 2.0), R=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_cohort_equals_clients_stepped_alone(self, kind, label_shard, n, per, extra, d,
                                                 r_frac, b_frac, E, eta, R, seed):
        m = n * per + 1 + extra % (n - 1)  # m % n != 0: ragged iid shards
        ds = generate_classification(m, d, 3, 3.0, seed)
        partition = (partition_label_shard(ds, n, 2, seed) if label_shard
                     else partition_iid(m, n, seed))
        rng = np.random.default_rng(seed)
        if kind == "mse_linear":
            y, n_classes, dim = rng.standard_normal(m), 0, d
        else:
            y, n_classes, dim = ds.y, 3, 3 * d
        starts = rng.standard_normal((R, dim))
        r = 1 + round(r_frac * (n - 1))
        cohort = np.sort(rng.choice(n, size=r, replace=False))
        b = 1 + round(b_frac * (min(s.size for s in partition.shards) - 1))
        local = [client_batches(partition.shards[i].size, b, E, rng) for i in cohort]
        rows = np.stack([partition.shards[i][loc] for i, loc in zip(cohort, local)])
        replica_ends, replica_accs = backend.local_steps(kind, ds.X, y, starts, eta, rows,
                                                         n_classes)
        assert replica_ends.shape == replica_accs.shape == (R, r, dim)
        for w0, replica_end, replica_acc in zip(starts, replica_ends, replica_accs):
            w_ends, accs = backend.local_steps(kind, ds.X, y, w0, eta, rows, n_classes)
            assert w_ends.shape == accs.shape == (r, dim)
            assert np.array_equal(replica_end, w_ends)
            assert np.array_equal(replica_acc, accs)
            for j, i in enumerate(cohort):
                shard = partition.shards[i]
                w1, acc = backend.local_steps(kind, np.ascontiguousarray(ds.X[shard]),
                                              np.ascontiguousarray(y[shard]), w0, eta,
                                              local[j], n_classes)
                assert np.array_equal(w_ends[j], w1)
                assert np.array_equal(accs[j], acc)


def tiny_config(**overrides):
    base = dict(n=6, r=6, E=1, K=3, gamma=18.0, batch_size=50)
    base.update(overrides)
    return FedAvgConfig(**base)


@pytest.fixture(scope="module")
def tiny_task():
    ds = generate_regression(SyntheticRegressionSpec(m=300, d=5,
                                                     label_noise_variance=0.05), seed=21)
    model = LossModel("mse_linear", dim=5,
                      smoothness=smoothness_constant(LossModel("mse_linear", dim=5), ds.X))
    return Task(ds, model, partition_iid(300, 6, seed=21))


@pytest.fixture(scope="module")
def tiny_softmax_task():
    ds = generate_classification(240, 5, 3, 3.0, 4)
    probe = LossModel("softmax_linear", dim=15, n_classes=3)
    model = LossModel("softmax_linear", dim=15, n_classes=3,
                      smoothness=smoothness_constant(probe, ds.X))
    return Task(ds, model, partition_iid(240, 6, 4))


class TestRunNoisyFedavg:
    @pytest.mark.parametrize("task, batch_size", [("tiny_task", 50),
                                                  ("tiny_softmax_task", 40)],
                             ids=["mse_linear", "softmax_linear"])
    def test_degenerates_to_gradient_descent_bitwise(self, task, batch_size, request):
        task = request.getfixturevalue(task)
        ds, model, partition = task.dataset, task.model, task.partition
        cfg = tiny_config(batch_size=batch_size)
        res = run_noisy_fedavg(cfg, task, 0)
        eta = res.eta
        w = np.zeros(model.dim)
        for _ in range(cfg.K):
            grads = [full_gradient(model, w, ds.X[s], ds.y[s]) for s in partition.shards]
            w = w - eta * np.mean(np.stack(grads), axis=0)
        assert np.array_equal(res.final_params, w)

    def test_bit_identical_reruns(self, tiny_task):
        cfg = tiny_config(r=3, E=4, batch_size=10)
        channels = (NoiseSchedule("uplink", "constant", 0.1),
                    NoiseSchedule("downlink", "constant", 0.1))
        a = run_noisy_fedavg(cfg, tiny_task, 0, *channels)
        b = run_noisy_fedavg(cfg, tiny_task, 0, *channels)
        assert np.array_equal(a.final_params, b.final_params)
        assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]
        assert a.k_star == b.k_star

    def test_channel_toggles_leave_shared_draws_alone(self, tiny_task):
        # paired runs differing only in one channel share batches and cohorts,
        # so the noise-free trajectory is recovered by turning channels off
        cfg = tiny_config(r=3, E=2, batch_size=10)
        a = run_noisy_fedavg(cfg, tiny_task, 0)
        b = run_noisy_fedavg(cfg, tiny_task, 0, uplink=NoiseSchedule("uplink", "constant", 0.1))
        assert a.metrics[0].train_loss == b.metrics[0].train_loss
        assert not np.array_equal(a.final_params, b.final_params)

    def test_one_client_rejected_before_any_draw(self, monkeypatch):
        # k*'s weights need n >= 2; a one-client run used to fail only after its rounds
        ds = generate_regression(SyntheticRegressionSpec(m=40, d=2), seed=0)
        task = Task(ds, LossModel("mse_linear", dim=2, smoothness=1.0), partition_iid(40, 1, 0))
        cfg = tiny_config(n=1, r=1, batch_size=8)
        assert round_draws(cfg, task, 0).rows.shape == (3, 1, 1, 8)  # draws still take n = 1
        drawn = []
        monkeypatch.setattr(fedavg, "round_draws", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="need n >= 2"):
            run_noisy_fedavg(cfg, task, 0)
        assert drawn == []

    def test_divergence_is_recorded_not_raised(self, tiny_task):
        cfg = tiny_config(K=50, learning_rate_override=5.0)
        res = run_noisy_fedavg(cfg, tiny_task, 0)
        assert res.status == "diverged"
        assert res.diverged_at is not None
        assert res.metrics[-1].diverged
        assert res.k_star is None
        assert len(res.metrics) <= 50

    def test_divergence_guard_does_not_warn(self, tiny_task, tiny_softmax_task):
        # at eta = 1e200 the model's squared norm overflows to inf in round 0: the very
        # signal the guard tests for, so it must not surface as a RuntimeWarning. On
        # mse_linear with the uplink on, the uplink SNR (E = 1), the local steps (E = 2)
        # and the steps' matmul (E = 5) overflow or turn nan before the guard sees it
        uplink = NoiseSchedule("uplink", "constant", 0.2)
        cases = [(tiny_softmax_task, 2, NoiseSchedule("uplink"))]
        cases += [(tiny_task, E, uplink) for E in (1, 2, 5)]
        for task, E, up in cases:
            cfg = tiny_config(r=3, E=E, K=10, batch_size=10, learning_rate_override=1e200)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = run_noisy_fedavg(cfg, task, 0, up)
            assert res.status == "diverged" and res.diverged_at == 0, (task.model.kind, E)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["mse_linear", "softmax_linear"]), n=st.integers(2, 6),
           per=st.integers(3, 10), extra=st.integers(0, 5), d=st.integers(1, 3),
           r_frac=st.floats(0.0, 1.0), b_frac=st.floats(0.0, 1.0), E=st.integers(1, 3),
           K=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.tuples(*[st.sampled_from(["off", "constant", "poly_decay"])] * 2),
                          min_size=1, max_size=3))
    def test_channels_equal_a_per_round_oracle(self, kind, n, per, extra, d, r_frac, b_frac,
                                               E, K, seed, kinds):
        # each round written out: the downlink draw scaled onto the broadcast, every client
        # stepped alone on its shard, the client means, the uplink draws scaled and then
        # averaged, and both SNRs; the loop computes the channel terms before its rounds
        task = ragged_task(kind, n, per, extra, d, seed)
        cfg = FedAvgConfig(n=n, r=1 + round(r_frac * (n - 1)), E=E, K=K, gamma=18.0,
                           batch_size=1 + round(b_frac * (per - 1)))

        def link(direction, kind):
            if kind == "poly_decay":
                return NoiseSchedule(direction, "poly_decay", 0.3, 0.5, e_squared_scaling=True)
            return schedule(direction, kind)

        channels = [(link("uplink", up), link("downlink", dn)) for up, dn in kinds]
        draws = keyed_stream_draws(cfg, task, seed, channels)
        model, X, y, P = task.model, task.dataset.X, task.dataset.y, task.model.dim
        for res, (up, dn) in zip(run_replicas(cfg, task, seed, channels), channels):
            w, want = np.zeros(P), []
            for k in range(K):
                v_up, v_dn = variance_at(up, k, E), variance_at(dn, k, E)
                w_recv = w + draws.downlink[k] * np.sqrt(v_dn) if v_dn > 0 else w
                ends, accs = [], []
                for rows in draws.rows[k]:
                    w1, acc = backend.local_steps(model.kind, X, y, w_recv, res.eta, rows,
                                                  model.n_classes)
                    ends.append(w1)
                    accs.append(acc)
                w_next = w_recv - res.eta * np.mean(accs, axis=0)
                snr_up = snr_down = None
                if v_up > 0:
                    w_next = w_next + (draws.uplink[k] * np.sqrt(v_up)).mean(axis=0)
                    sq = np.array([float((w_recv - e) @ (w_recv - e)) for e in ends])
                    snr_up = float((sq / (P * v_up)).mean())
                if v_dn > 0:
                    snr_down = float(w @ w) / (P * v_dn)
                want.append(fedavg.RoundMetrics(
                    k, *_global_metrics(model, task.metric_inputs, w), v_up, v_dn, snr_up,
                    snr_down))
                w = w_next
            assert res.status == "completed"
            assert np.array_equal(res.final_params.view(np.int64), w.view(np.int64))
            assert len(res.metrics) == len(want)
            for got, row in zip(res.metrics, want):
                for field in dataclasses.fields(row):
                    assert getattr(got, field.name) == getattr(row, field.name), field.name
            assert res.final_loss == _global_metrics(model, task.metric_inputs, w)[0]

    def test_partition_mismatch_rejected(self, tiny_task):
        with pytest.raises(ValueError):
            run_noisy_fedavg(tiny_config(n=7, r=7), tiny_task, 0)

    @pytest.mark.parametrize("overrides, seed, message", [
        ({}, -1, "seed must be >= 0"),
        ({"n": 7, "r": 7}, 0, "partition must have exactly n shards"),
        ({"batch_size": 51}, 0, "batch_size exceeds a client shard")])
    def test_round_draws_checks_reach_the_run(self, tiny_task, overrides, seed, message):
        # shards of 50 rows; the checks live in round_draws and a run raises the same error
        cfg = tiny_config(**overrides)
        for call in (lambda: round_draws(cfg, tiny_task, seed),
                     lambda: run_noisy_fedavg(cfg, tiny_task, seed)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_negative_seed_rejected(self, tiny_task):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_noisy_fedavg(tiny_config(), tiny_task, -1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            round_draws(tiny_config(), tiny_task, -1)

    def test_metrics_record_schedule_and_snr(self, tiny_task):
        downlink = NoiseSchedule("downlink", "poly_decay", 0.2, 1.0, e_squared_scaling=True)
        res = run_noisy_fedavg(tiny_config(), tiny_task, 0, downlink=downlink)
        assert res.metrics[0].downlink_variance == pytest.approx(0.04)
        assert res.metrics[1].downlink_variance == pytest.approx(0.02)
        assert res.metrics[0].mean_snr_up is None  # uplink channel off
        # round 0 broadcasts the zero start, so the measured SNR is exactly 0
        assert res.metrics[0].mean_snr_down == 0.0
        assert res.metrics[1].mean_snr_down > 0.0


def row_metrics(model, dataset, partition, w):
    """Oracle: per-shard model.loss and model.full_gradient, averaged over clients."""
    shards = [(dataset.X[s], dataset.y[s]) for s in partition.shards]
    f = np.mean([loss(model, w, X, y) for X, y in shards])
    g = np.mean([full_gradient(model, w, X, y) for X, y in shards], axis=0)
    return float(f), float(g @ g)


def assert_metrics_match(model, dataset, partition, w):
    inputs = _metric_inputs(model, dataset.X, dataset.y, partition.shards)
    f, g2 = _global_metrics(model, inputs, w)
    f_ref, g2_ref = row_metrics(model, dataset, partition, w)
    assert f == pytest.approx(f_ref, rel=1e-10, abs=0.0)
    assert g2 == pytest.approx(g2_ref, rel=1e-10, abs=0.0)


class TestQuadraticMetrics:
    """The mse_linear closed form against the row-by-row evaluation, rel 1e-10."""

    def test_reference_task_points(self, v5a_task):
        dataset, model, partition = v5a_task.dataset, v5a_task.model, v5a_task.partition
        rng = np.random.default_rng(3)
        theta = dataset.theta_eff
        for w in (np.zeros(model.dim), theta,
                  theta + 0.01 * rng.standard_normal(model.dim),
                  rng.standard_normal(model.dim)):
            assert_metrics_match(model, dataset, partition, w)

    def test_ragged_shards(self):
        dataset = generate_regression(SyntheticRegressionSpec(m=1003, d=7), seed=4)
        model = LossModel("mse_linear", dim=7)
        partition = partition_iid(1003, 16, seed=5)  # 1003 = 17 * 59 would split evenly
        assert {s.size for s in partition.shards} == {62, 63}
        w = np.random.default_rng(6).standard_normal(7)
        assert_metrics_match(model, dataset, partition, w)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 10), extra=st.integers(0, 110), n=st.integers(1, 12),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_row_path(self, d, extra, n, log_scale, seed):
        m = d + extra
        n = min(n, m)
        rng = np.random.default_rng(seed)
        spec = SyntheticRegressionSpec(m=m, d=d, label_noise_variance=0.1,
                                       normalize_hessian=False)
        dataset = generate_regression(spec, seed=seed)
        model = LossModel("mse_linear", dim=d)
        w = 10.0 ** log_scale * rng.standard_normal(d)
        assert_metrics_match(model, dataset, partition_iid(m, n, seed), w)

    def test_run_final_loss(self):
        dataset = generate_regression(SyntheticRegressionSpec(m=1003, d=7), seed=4)
        model = LossModel("mse_linear", dim=7,
                          smoothness=smoothness_constant(LossModel("mse_linear", dim=7),
                                                         dataset.X))
        partition = partition_iid(1003, 16, seed=5)
        cfg = FedAvgConfig(n=16, r=5, E=3, K=20, gamma=18.0, batch_size=8)
        res = run_noisy_fedavg(cfg, Task(dataset, model, partition), 2,
                               NoiseSchedule("uplink", "constant", 0.1),
                               NoiseSchedule("downlink", "constant", 0.1))
        f_ref, _ = row_metrics(model, dataset, partition, res.final_params)
        assert res.final_loss == pytest.approx(f_ref, rel=1e-10, abs=0.0)


def one_shard(dataset, model):
    """The task noisy SGD runs on: one shard of every row, in order."""
    return Task(dataset, model, ClientPartition([np.arange(len(dataset))]))


def softmax_case(m, d, C, seed):
    dataset = generate_classification(m, d, C, 2.0, seed)
    return dataset, LossModel("softmax_linear", dim=C * d, n_classes=C)


def shard_inputs(model, dataset, partition):
    return _metric_inputs(model, dataset.X, dataset.y, partition.shards)


class TestSoftmaxMetrics:
    """The one-pass softmax metrics against the per-shard row_metrics oracle."""

    @pytest.mark.parametrize("split", ["label_shard", "iid"])
    def test_ragged_shards(self, split):
        dataset, model = softmax_case(1003, 5, 4, seed=8)
        if split == "label_shard":
            partition = partition_label_shard(dataset, 6, 2, seed=9)
        else:
            partition = partition_iid(1003, 16, seed=9)
        assert len({s.size for s in partition.shards}) > 1
        inputs = shard_inputs(model, dataset, partition)
        rng = np.random.default_rng(10)
        for w in (np.zeros(model.dim), rng.standard_normal(model.dim),
                  10.0 * rng.standard_normal(model.dim)):
            f, g2 = _global_metrics(model, inputs, w)
            f_ref, g2_ref = row_metrics(model, dataset, partition, w)
            assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0)
            assert g2 == pytest.approx(g2_ref, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), extra=st.integers(0, 60), d=st.integers(1, 6),
           C=st.integers(2, 5), log_scale=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_row_path(self, n, extra, d, C, log_scale, seed):
        m = C + extra
        n = min(n, m)
        dataset, model = softmax_case(m, d, C, seed)
        partition = partition_iid(m, n, seed)
        w = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(model.dim)
        f, g2 = _global_metrics(model, shard_inputs(model, dataset, partition), w)
        f_ref, g2_ref = row_metrics(model, dataset, partition, w)
        assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0)
        # the mean gradient can cancel; |residual| <= 2 bounds every row's term
        # by 2 |x|, so that bound squared scales the absolute rounding error
        scale = 4.0 * float(np.max(np.sum(dataset.X ** 2, axis=1)))
        assert g2 == pytest.approx(g2_ref, rel=1e-12, abs=1e-12 * scale)

    def test_bad_labels_rejected_when_built(self):
        dataset, model = softmax_case(40, 3, 2, seed=1)
        y = dataset.y.copy()
        y[7] = 2
        with pytest.raises(ValueError, match="labels"):
            _metric_inputs(model, dataset.X, y, [np.arange(20), np.arange(20, 40)])
        with pytest.raises(ValueError):
            _metric_inputs(model, dataset.X[:, :2], dataset.y, [np.arange(20)])

    def test_bad_params_rejected_when_evaluated(self):
        dataset, model = softmax_case(40, 3, 2, seed=1)
        inputs = _metric_inputs(model, dataset.X, dataset.y, [np.arange(40)])
        for w in (np.full(model.dim, np.nan), np.zeros(model.dim + 1)):
            with pytest.raises(ValueError, match="params"):
                _global_metrics(model, inputs, w)

    def test_sgd_final_loss(self):
        dataset, probe = softmax_case(300, 4, 3, seed=2)
        model = LossModel("softmax_linear", dim=12, n_classes=3,
                          smoothness=smoothness_constant(probe, dataset.X))
        res = run_noisy_sgd(one_shard(dataset, model), 0.1, 15, 20, NoiseSchedule("uplink"),
                            NoiseSchedule("downlink", "constant", 0.1), seed=3)
        f_ref = loss(model, res.final_params, dataset.X, dataset.y)
        assert res.final_loss == pytest.approx(f_ref, rel=1e-12, abs=0.0)


def assert_same_run(a, b):
    assert np.array_equal(a.final_params, b.final_params)
    assert a.metrics == b.metrics
    assert (a.k_star, a.status, a.diverged_at, a.final_loss) == \
        (b.k_star, b.status, b.diverged_at, b.final_loss)


def ragged_task(kind, n, per, extra, d, seed):
    """n iid shards of per and per + 1 rows; softmax tasks have 3 classes."""
    m = n * per + extra % n
    if kind == "mse_linear":
        ds = generate_regression(SyntheticRegressionSpec(m=m, d=d), seed=seed)
        probe = LossModel(kind, dim=d)
    else:
        ds = generate_classification(m, d, 3, 3.0, seed)
        probe = LossModel(kind, dim=3 * d, n_classes=3)
    model = dataclasses.replace(probe, smoothness=smoothness_constant(probe, ds.X))
    return Task(ds, model, partition_iid(m, n, seed))


def sweep_config(uplink_std=0.2):
    return parse_config(json.dumps({
        "task": "regression_v5a",
        "data": {"m": 603, "d": 6, "seed": 3, "label_noise_variance": 0.05},
        "fedavg": {"n": 10, "r": 4, "E": 2, "K": 8, "gamma": 18.0, "batch_size": 8},
        "uplink": {"kind": "constant", "base_std": uplink_std},
        "downlink": {"kind": "constant", "base_std": 0.2},
        "repeat_seeds": [1, 2, 5],
    }))


class TestSharedDraws:
    """round_draws against the keyed streams, and the runs that share its draws."""

    @staticmethod
    def assert_keyed_stream_draws(draws, cfg, task, seed, channels=()):
        reference = keyed_stream_draws(cfg, task, seed, channels)
        for got, want in zip(dataclasses.astuple(draws), dataclasses.astuple(reference)):
            assert (got is None) == (want is None)
            assert want is None or np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           n=st.integers(1, 12), b=st.integers(1, 6), extra=st.integers(0, 40),
           r_frac=st.floats(0.0, 1.0), E=st.integers(1, 4), K=st.integers(1, 5))
    def test_draws_come_from_the_keyed_streams(self, seed, n, b, extra, r_frac, E, K):
        m = n * b + extra  # ragged shards of at least b rows; m = b when extra < n
        partition = partition_iid(m, n, seed=3)
        cfg = FedAvgConfig(n=n, r=1 + round(r_frac * (n - 1)), E=E, K=K, gamma=18.0,
                           batch_size=b)
        dataset = generate_regression(SyntheticRegressionSpec(m=m, d=1), seed=3)
        task = Task(dataset, LossModel("mse_linear", dim=1), partition)
        draws = round_draws(cfg, task, seed)
        self.assert_keyed_stream_draws(draws, cfg, task, seed)
        # dataset rows: the oracle's shard rows through the task's row map
        cohorts, batches = keyed_stream_batches(cfg, task, seed)
        assert np.array_equal(draws.rows,
                              task.row_map[task.offsets[cohorts][..., None, None] + batches])

    def test_rejection_redraws_only_its_stream(self, monkeypatch):
        partition = partition_iid(1003, 16, seed=5)  # ragged: shards of 62 and 63 rows
        cfg = FedAvgConfig(n=16, r=5, E=3, K=4, gamma=18.0, batch_size=8)
        task = Task(generate_regression(SyntheticRegressionSpec(m=1003, d=2), seed=5),
                    LossModel("mse_linear", dim=2), partition)
        real = streams.words

        def with_rejection(keys, n):
            # first Floyd draw of row 0, from [0, 11] for cohorts and [0, 54 or 55] for
            # batches: 0 * (j + 1) leaves 0 < 2**32 % (j + 1) unless j + 1 is a power of two
            words = real(keys, n).copy()
            words[0, 0] = 0
            return words
        redrawn = []
        real_rng = np.random.default_rng

        def spy(key):
            redrawn.append(tuple(key[1:]))
            return real_rng(key)
        monkeypatch.setattr(streams, "words", with_rejection)
        monkeypatch.setattr(np.random, "default_rng", spy)  # what streams draws numpy's keys with
        draws = round_draws(cfg, task, 9)
        monkeypatch.undo()
        first = int(draws.cohorts[0, 0])
        assert redrawn == [(0, 0, _SAMPLE), (0, first, _BATCH)]
        self.assert_keyed_stream_draws(draws, cfg, task, 9)

    def test_tail_shuffle_shard_comes_from_numpy(self):
        # one shard of m > 10 000 rows with b > m // 50: numpy shuffles a tail of arange(m)
        partition = partition_iid(10_001, 1, seed=0)
        cfg = FedAvgConfig(n=1, r=1, E=2, K=2, gamma=18.0, batch_size=201)
        task = Task(generate_regression(SyntheticRegressionSpec(m=10_001, d=1), seed=0),
                    LossModel("mse_linear", dim=1), partition)
        self.assert_keyed_stream_draws(round_draws(cfg, task, 4), cfg, task, 4)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           d=st.integers(1, 4))
    def test_noise_streams_equal_keyed_streams(self, seed, d):
        keys = [(0, 0, fedavg._DOWNLINK), (3, 7, fedavg._UPLINK), (2, 1, fedavg._UPLINK)]
        got = streams.normals(streams.seed_keys(streams.key_rows(seed, *zip(*keys))), d)
        for j in (2, 0, 1):
            assert np.array_equal(got[j], _stream(seed, *keys[j]).standard_normal(d))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           up=st.sampled_from(["off", "constant", "poly_decay"]),
           down=st.sampled_from(["off", "constant", "poly_decay"]), d=st.integers(1, 3),
           r=st.integers(1, 4), K=st.integers(1, 4))
    def test_channel_noise_comes_from_the_keyed_streams(self, seed, up, down, d, r, K):
        # two replicas, each with one channel on at most: a channel's noise is drawn
        # when either replica has it on, and is None when both have it off
        cfg = FedAvgConfig(n=5, r=r, E=2, K=K, gamma=18.0, batch_size=3)
        task = Task(generate_regression(SyntheticRegressionSpec(m=40, d=d), seed=1),
                    LossModel("mse_linear", dim=d), partition_iid(40, 5, seed=1))
        channels = [(schedule("uplink", up), schedule("downlink", "off")),
                    (schedule("uplink", "off"), schedule("downlink", down))]
        draws = round_draws(cfg, task, seed, channels)
        assert (draws.uplink is None) == (up == "off")
        assert (draws.downlink is None) == (down == "off")
        self.assert_keyed_stream_draws(draws, cfg, task, seed, channels)

    def test_round_loop_draws_nothing_itself(self, monkeypatch):
        # every draw of run_replicas comes from its one round_draws call
        cfg = sweep_config()
        task, seed = build_task(cfg), cfg.repeat_seeds[0]
        channels = [(v.uplink, v.downlink) for v in sweep_variants(cfg).values()]
        want = run_replicas(cfg.fedavg, task, seed, channels)
        made = []

        def drawn_then_closed(*args):
            made.append(round_draws(*args))
            for name in ("choices", "normals", "words", "seed_keys", "key_rows"):
                monkeypatch.setattr(streams, name, None)
            return made[-1]
        monkeypatch.setattr(fedavg, "round_draws", drawn_then_closed)
        got = run_replicas(cfg.fedavg, task, seed, channels)
        assert len(made) == 1
        assert made[0].uplink is not None and made[0].downlink is not None
        for a, b in zip(got, want):
            assert_same_run(a, b)

    def test_sweep_table_equals_unshared_runs(self, tmp_path):
        cfg = sweep_config()
        out = run_sweep(cfg, "r", [2, 4], out_prefix=str(tmp_path / "s"))
        task = build_task(cfg)
        for v in (2, 4):
            base = dataclasses.replace(cfg, fedavg=dataclasses.replace(cfg.fedavg, r=v))
            for name, variant in sweep_variants(base).items():
                runs = [run_one_seed(variant, task, s) for s in cfg.repeat_seeds]
                assert out["table"][v][name] == float(np.mean([r.final_loss for r in runs]))

    def test_diverging_variant_leaves_the_others_alone(self):
        cfg = sweep_config(uplink_std=1e13)  # the uplink-only variant blows up at round 0
        task = build_task(cfg)
        seed = cfg.repeat_seeds[0]
        variants = sweep_variants(cfg)
        shared = dict(zip(variants, run_replicas(cfg.fedavg, task, seed,
                                                 [(v.uplink, v.downlink)
                                                  for v in variants.values()])))
        assert shared["uplink_only"].status == "diverged"
        for name, variant in variants.items():
            assert_same_run(shared[name], run_one_seed(variant, task, seed))


def schedule(direction, kind):
    if kind == "off":
        return NoiseSchedule(direction)
    if kind == "constant":
        return NoiseSchedule(direction, "constant", 0.1)
    return NoiseSchedule(direction, "poly_decay", 0.3, 0.5, direction == "downlink")


class TestReplicas:
    """Channel variants stepped in lockstep by run_replicas, against runs alone."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["mse_linear", "softmax_linear"]), n=st.integers(2, 8),
           per=st.integers(3, 12), extra=st.integers(0, 7), d=st.integers(1, 3),
           r_frac=st.floats(0.0, 1.0), b_frac=st.floats(0.0, 1.0), E=st.integers(1, 3),
           K=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.tuples(*[st.sampled_from(["off", "constant", "poly_decay"])] * 2),
                          min_size=1, max_size=4))
    def test_replicas_equal_runs_alone(self, kind, n, per, extra, d, r_frac, b_frac, E, K,
                                       seed, kinds):
        task = ragged_task(kind, n, per, extra, d, seed)
        cfg = FedAvgConfig(n=n, r=1 + round(r_frac * (n - 1)), E=E, K=K, gamma=18.0,
                           batch_size=1 + round(b_frac * (per - 1)))
        channels = [(schedule("uplink", up), schedule("downlink", dn)) for up, dn in kinds]
        replicas = run_replicas(cfg, task, seed, channels)
        assert len(replicas) == len(channels)
        for res, (up, dn) in zip(replicas, channels):
            assert_same_run(res, run_noisy_fedavg(cfg, task, seed, up, dn))

    @pytest.mark.parametrize("kind, d", [("mse_linear", 6), ("softmax_linear", 2)])
    def test_replica_diverging_mid_run_leaves_the_others_alone(self, kind, d):
        # 6 parameters, tiny steps: the blow-up replica's model is a random walk of
        # about 1.2 * 2.5e11 * sqrt(k + 1), which crosses the 1e12 guard after a few rounds
        task = ragged_task(kind, 10, 12, 3, d, seed=4)
        cfg = FedAvgConfig(n=10, r=4, E=2, K=30, gamma=18.0, batch_size=4,
                           learning_rate_override=1e-6)
        channels = [(schedule("uplink", "off"), schedule("downlink", "off")),
                    (NoiseSchedule("uplink", "constant", 2.5e11), schedule("downlink", "off")),
                    (schedule("uplink", "constant"), schedule("downlink", "poly_decay"))]
        runs = run_replicas(cfg, task, 7, channels)
        assert runs[1].status == "diverged" and 0 < runs[1].diverged_at < cfg.K - 1
        assert runs[1].metrics[-1].diverged and len(runs[1].metrics) == runs[1].diverged_at + 1
        assert runs[0].status == runs[2].status == "completed"
        for res, (up, dn) in zip(runs, channels):
            assert_same_run(res, run_noisy_fedavg(cfg, task, 7, up, dn))

    @settings(max_examples=100, deadline=None)
    @given(R=st.integers(1, 4), r=st.integers(1, 40), P=st.integers(1, 200),
           log_scale=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_stacked_reductions_equal_per_row_arithmetic(self, R, r, P, log_scale, seed):
        # run_replicas takes the SNR dot products and the client means over stacked
        # rows, and each must give the row-by-row bits; so would a stacked divergence norm
        D = np.random.default_rng(seed).standard_normal((R, r, P)) * 10.0 ** log_scale
        dots = np.vecdot(D, D)
        means = D.mean(axis=1)
        norms = np.sqrt(np.vecdot(means, means))
        for a in range(R):
            assert [float(v) for v in dots[a]] == [float(row @ row) for row in D[a]]
            assert np.array_equal(means[a], np.mean(D[a], axis=0))
            assert norms[a] == np.linalg.norm(means[a])

    def test_no_channels_rejected(self, tiny_task):
        with pytest.raises(ValueError, match="pair"):
            run_replicas(tiny_config(), tiny_task, 0, [])


class TestLinkModel:
    """The noisy-minus-noise-free gap of a quadratic run, against its linear recursion.

    For mse_linear a local step is affine in w, so client i's E steps map w to
    P_i w + q_i with P_i = M_E ... M_1 and M_e = I - (eta / b) X_e^T X_e. Under
    reading A of the link model, the one the loop runs today (the downlink draw
    nu_k persists in the model the cohort steps from; the cohort-mean uplink
    draw e_k is added after eta, at parameter scale), the gap between a noisy
    run and its noise-free twin on the same draws is delta_0 = 0,
    delta_{k+1} = Pbar_k (delta_k + nu_k) + e_k, with Pbar_k the cohort mean of
    the P_i. A change of either injection point changes this recursion together
    with the loop.
    """

    @pytest.mark.parametrize("n, r, E, b, K, seed", [
        (4, 2, 2, 5, 6, 1), (5, 5, 1, 4, 8, 3), (6, 3, 3, 2, 5, 2**33 + 7)])
    def test_noise_gap_follows_the_recursion(self, n, r, E, b, K, seed):
        ds = generate_regression(SyntheticRegressionSpec(m=60, d=3, label_noise_variance=0.1),
                                 seed=4)
        probe = LossModel("mse_linear", dim=3)
        task = Task(ds, dataclasses.replace(probe, smoothness=smoothness_constant(probe, ds.X)),
                    partition_iid(60, n, seed=4))
        cfg = FedAvgConfig(n=n, r=r, E=E, K=K, gamma=18.0, batch_size=b)
        up = NoiseSchedule("uplink", "poly_decay", 0.3, 0.5)
        dn = NoiseSchedule("downlink", "poly_decay", 0.2, 1.0, e_squared_scaling=True)
        channels = [(up, dn), (NoiseSchedule("uplink"), NoiseSchedule("downlink"))]
        noisy, free = run_replicas(cfg, task, seed, channels)
        assert noisy.status == free.status == "completed"

        draws, eta, X = round_draws(cfg, task, seed, channels), noisy.eta, ds.X
        delta = np.zeros(3)
        for k in range(K):
            Pbar = np.zeros((3, 3))
            for batches in draws.rows[k]:
                P = np.eye(3)
                for rows in batches:
                    Xe = X[rows]
                    P = (np.eye(3) - (eta / b) * Xe.T @ Xe) @ P
                Pbar += P / r
            nu = draws.downlink[k] * np.sqrt(variance_at(dn, k, E))
            e = draws.uplink[k].mean(axis=0) * np.sqrt(variance_at(up, k, E))
            delta = Pbar @ (delta + nu) + e
        np.testing.assert_allclose(noisy.final_params - free.final_params, delta, rtol=1e-12)


def overflowing_task():
    """60 x 3 mse rows scaled by 1e150, with the exact smoothness 1.27e300: a model of
    norm about 1e10 overflows the loss. (smoothness_constant returns NaN at this scale:
    lambda has no finite square.)"""
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((60, 3)) * 1e150, rng.standard_normal(60)
    L = float(np.linalg.eigvalsh(X.T @ X / 60)[-1])
    return Task(Dataset("mse_linear", X, y), LossModel("mse_linear", 3, smoothness=L),
                partition_iid(60, 4, 0))


def assert_same_halted_run(a, b):
    """assert_same_run for runs whose final loss may be nan."""
    assert_same_run(dataclasses.replace(a, final_loss=0.0), dataclasses.replace(b, final_loss=0.0))
    assert np.array_equal(a.final_loss, b.final_loss, equal_nan=True)


class TestHaltedRuns:
    """Both halts, on a non-finite loss and on the norm guard, in both loops: the rows
    they leave, the final params (the model the halting round started from), and no
    warning, though the final loss overflows again."""

    def test_replicas_halt_on_the_loss_and_on_the_norm(self):
        # replica 0's uplink (1e10) moves its model to norm ~1e10 in round 0, so its
        # round-1 loss is not finite; replica 1's downlink makes round 0's steps overflow.
        # Every replica halts: k* would need zeta, whose L**2 overflows at this L
        task = overflowing_task()
        cfg = FedAvgConfig(n=4, r=2, E=1, K=6, gamma=18.0, batch_size=5)
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        channels = [(NoiseSchedule("uplink", "constant", 1e10), off_d),
                    (off_u, NoiseSchedule("downlink", "constant", 1e10))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runs = run_replicas(cfg, task, 1, channels)
            alone = [run_noisy_fedavg(cfg, task, 1, *pair) for pair in channels]
        lossy, normed = runs
        assert (lossy.status, lossy.diverged_at, lossy.k_star) == ("diverged", 1, None)
        first = lossy.metrics[0]
        assert np.isfinite(first.train_loss) and not first.diverged
        assert lossy.metrics[1] == fedavg.RoundMetrics(1, first.train_loss, first.grad_norm_sq,
                                                       1e20, 0.0, None, None, diverged=True)
        assert not np.isfinite(lossy.final_loss)
        # round 0 by hand: the clients step from zero, then the scaled uplink mean
        draws = keyed_stream_draws(cfg, task, 1, channels[:1])
        model, X, y = task.model, task.dataset.X, task.dataset.y
        accs = [backend.local_steps(model.kind, X, y, np.zeros(3), lossy.eta, rows)[1]
                for rows in draws.rows[0]]
        w1 = 0.0 - lossy.eta * np.mean(accs, axis=0) + (draws.uplink[0] * 1e10).mean(axis=0)
        assert np.array_equal(lossy.final_params, w1) and 1e9 < np.linalg.norm(w1) < 1e12

        assert (normed.status, normed.diverged_at, normed.k_star) == ("diverged", 0, None)
        assert len(normed.metrics) == 1 and normed.metrics[0].diverged
        assert np.array_equal(normed.final_params, np.zeros(3))
        assert normed.final_loss == normed.metrics[0].train_loss
        for res, one in zip(runs, alone):
            assert_same_halted_run(res, one)

    def test_sgd_halts_on_the_loss_and_on_the_norm(self):
        # at eta = 1e-144 the step (~1e6 from the gradient and the 1e150 uplink) makes the
        # next loss overflow; the 1e10 downlink makes the first gradient overflow
        task = overflowing_task()
        ds, model = task.dataset, task.model
        task = one_shard(ds, model)
        eta = 1e-144
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        with warnings.catch_warnings(), pytest.warns(UserWarning, match="exceeds 1/L"):
            warnings.simplefilter("error", RuntimeWarning)
            lossy = run_noisy_sgd(task, eta, 6, 5,
                                  NoiseSchedule("uplink", "constant", 1e150), off_d, seed=1)
            normed = run_noisy_sgd(task, eta, 6, 5, off_u,
                                   NoiseSchedule("downlink", "constant", 1e10), seed=1)
        assert (lossy.status, lossy.diverged_at, lossy.k_star) == ("diverged", 1, None)
        first = lossy.metrics[0]
        assert lossy.metrics[1] == fedavg.RoundMetrics(1, first.train_loss, first.grad_norm_sq,
                                                       1e150 ** 2, 0.0, None, None, diverged=True)
        rows = np.sort(np.random.default_rng([1, 0, 0, _BATCH]).choice(60, 5, replace=False))
        e = np.random.default_rng([1, 0, 0, fedavg._UPLINK]).standard_normal(3)
        g = backend.batch_gradient(model.kind, ds.X, ds.y, np.zeros(3), rows)
        w1 = np.zeros(3) - eta * (g + e * 1e150)
        assert np.array_equal(lossy.final_params, w1) and 1e5 < np.linalg.norm(w1) < 1e12
        assert not np.isfinite(lossy.final_loss)
        assert (normed.status, normed.diverged_at, normed.k_star) == ("diverged", 0, None)
        assert len(normed.metrics) == 1 and normed.metrics[0].diverged
        assert np.array_equal(normed.final_params, np.zeros(3))


class TestTask:
    """One Task per invocation: layout and metric inputs built once, read-only."""

    def test_metric_inputs_built_once_per_invocation(self, tmp_path, monkeypatch):
        calls = []
        build = fedavg._metric_inputs

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(fedavg, "_metric_inputs", counted)
        cfg = sweep_config()
        assert len(cfg.repeat_seeds) == 3
        summary = run_experiment(cfg, out_prefix=str(tmp_path / "run"))
        assert summary["bound_report"] is not None
        assert len(calls) == 1
        calls.clear()
        one_seed = dataclasses.replace(cfg, repeat_seeds=cfg.repeat_seeds[:1])
        run_sweep(one_seed, "r", [2, 4], out_prefix=str(tmp_path / "s"))
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(label_shard=st.booleans(), n=st.integers(2, 8), C=st.integers(2, 4),
           extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_layout_maps_local_rows_to_shards(self, label_shard, n, C, extra, seed):
        m = 2 * n * C + 1 + extra % (n - 1)  # m % n != 0: ragged iid shards
        ds = generate_classification(m, 1, C, 3.0, seed)
        partition = (partition_label_shard(ds, n, 2, seed) if label_shard
                     else partition_iid(m, n, seed))
        task = Task(ds, LossModel("softmax_linear", dim=C, n_classes=C), partition)
        assert task.shard_sizes == tuple(s.size for s in partition.shards)
        for i, shard in enumerate(partition.shards):
            assert np.array_equal(task.row_map[task.offsets[i] + np.arange(shard.size)], shard)

    @pytest.mark.parametrize("task", ["tiny_task", "tiny_softmax_task"])
    def test_arrays_are_read_only(self, task, request):
        task = request.getfixturevalue(task)
        arrays = [task.row_map, task.offsets,
                  *(v for v in task.metric_inputs if isinstance(v, np.ndarray))]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.partition = None

    def test_partition_must_cover_the_dataset(self, tiny_task):
        ds = generate_regression(SyntheticRegressionSpec(m=301, d=5), seed=21)
        with pytest.raises(ValueError, match="cover"):
            Task(ds, tiny_task.model, tiny_task.partition)


def traced_peak(fn):
    """(fn(), the peak of the bytes tracemalloc saw allocated and still live during the
    call); numpy reports its array buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestTaskMemory:
    """A task is built and summarized without a second copy of its X."""

    def test_build_task_holds_one_copy_of_X(self):
        cfg = preset("v5a_constant_noise")
        task, peak = traced_peak(lambda: build_task(cfg))
        assert peak < 1.5 * task.dataset.X.nbytes

    def test_metric_inputs_gather_one_shard_at_a_time(self):
        task = build_task(preset("v5a_constant_noise"))
        _, peak = traced_peak(lambda: task.metric_inputs)
        assert peak < 0.25 * task.dataset.X.nbytes

    def test_softmax_metric_inputs_gather_X_once(self):
        # the gathered rows are the one copy kept; the rest are per-row index, label and
        # weight arrays (a second copy of X, as a list of shards, read 2.35 X here)
        task = build_task(preset("classification_noniid"))
        _, peak = traced_peak(lambda: task.metric_inputs)
        assert peak < task.dataset.X.nbytes + 8 * task.dataset.y.nbytes


class TestDrawMemory:
    def test_round_draws_hold_one_rows_array(self):
        # shard rows become dataset rows in place: a second (K, r, E, b) array, as
        # row_map[rows] makes, read 2.13 rows here against 1.61; the rest is the keys and
        # streams.choices' temporaries, which _ROWS bounds
        ds = generate_regression(SyntheticRegressionSpec(m=3000, d=2), seed=0)
        task = Task(ds, LossModel("mse_linear", dim=2), partition_iid(3000, 20, 0))
        cfg = FedAvgConfig(n=20, r=10, E=5, K=1000, gamma=18.0, batch_size=16)
        draws, peak = traced_peak(lambda: round_draws(cfg, task, 1))
        assert peak < 1.9 * draws.rows.nbytes


class TestRunNoisySgd:
    def _task(self):
        ds = generate_regression(SyntheticRegressionSpec(m=2000, d=30,
                                                         label_noise_variance=0.05), seed=5)
        model = LossModel("mse_linear", dim=30,
                          smoothness=smoothness_constant(LossModel("mse_linear", dim=30), ds.X))
        return one_shard(ds, model)

    def test_noise_free_descends(self):
        task = self._task()
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        res = run_noisy_sgd(task, 0.05, 300, 32, off_u, off_d, seed=1)
        losses = [m.train_loss for m in res.metrics]
        assert losses[-1] < 0.1 * losses[0]

    def test_vanishing_rate_stays_near_start(self):
        task = self._task()
        ds, model = task.dataset, task.model
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        eta, T = 1e-9, 50
        res = run_noisy_sgd(task, eta, T, 32, off_u, off_d, seed=2)
        g0 = np.linalg.norm(full_gradient(model, np.zeros(30), ds.X, ds.y))
        assert np.linalg.norm(res.final_params) <= eta * T * (g0 + 1.0)

    def test_downlink_excess_dominates_uplink_excess(self):
        # measured on this task: the gradient-evaluation perturbation passes
        # through the batch Hessian, which amplifies it well beyond the
        # additive uplink term at the same variance
        task = self._task()
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        up = NoiseSchedule("uplink", "constant", 0.2)
        dn = NoiseSchedule("downlink", "constant", 0.2)
        T = 1200

        def tail(res):
            g2 = [m.grad_norm_sq for m in res.metrics]
            return float(np.mean(g2[3 * T // 4:]))

        t_nf = tail(run_noisy_sgd(task, 0.05, T, 16, off_u, off_d, seed=3))
        t_up = tail(run_noisy_sgd(task, 0.05, T, 16, up, off_d, seed=3))
        t_dn = tail(run_noisy_sgd(task, 0.05, T, 16, off_u, dn, seed=3))
        assert t_up > t_nf
        assert t_dn - t_nf > 1.3 * (t_up - t_nf)

    def test_final_loss_matches_row_path(self):
        task = self._task()
        ds, model = task.dataset, task.model
        res = run_noisy_sgd(task, 0.05, 20, 32, NoiseSchedule("uplink"),
                            NoiseSchedule("downlink", "constant", 0.1), seed=4)
        f_ref = loss(model, res.final_params, ds.X, ds.y)
        assert res.final_loss == pytest.approx(f_ref, rel=1e-10, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           m_b=st.sampled_from([(40, 40), (41, 1), (41, 40), (10_001, 201)]),
           T=st.integers(1, 4))
    def test_batches_come_from_the_keyed_streams(self, seed, m_b, T):
        # m = b draws nothing first; m = 10 001 with b = 201 is numpy's tail shuffle
        m, b = m_b
        ds = generate_regression(SyntheticRegressionSpec(m=m, d=1), seed=0)
        task = one_shard(ds, LossModel("mse_linear", dim=1, smoothness=1.0))
        seen = []
        real = backend.batch_gradient
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backend, "batch_gradient",
                       lambda kind, X, y, w, rows, *a: seen.append(rows) or real(
                           kind, X, y, w, rows, *a))
            run_noisy_sgd(task, 1e-3, T, b, NoiseSchedule("uplink"),
                          NoiseSchedule("downlink"), seed)
        assert len(seen) == T
        for t, rows in enumerate(seen):
            want = np.sort(sample_batch(np.arange(m), b, _stream(seed, t, 0, _BATCH)))
            assert np.array_equal(rows, want)

    @pytest.mark.parametrize("seed", [7, 2**40])
    def test_both_channels_equal_a_keyed_stream_oracle(self, seed):
        # the oracle takes each step's batch and channel noise from its own numpy stream
        task = self._task()
        ds, model = task.dataset, task.model
        up = NoiseSchedule("uplink", "poly_decay", 0.2, 0.5)
        dn = NoiseSchedule("downlink", "constant", 0.1)
        eta, T, b = 0.05, 6, 16
        res = run_noisy_sgd(task, eta, T, b, up, dn, seed)
        w = np.zeros(model.dim)
        for t in range(T):
            def stream(purpose):
                return np.random.default_rng([seed, t, 0, purpose])
            rows = np.sort(stream(_BATCH).choice(len(ds), b, replace=False))
            nu = stream(fedavg._DOWNLINK).standard_normal(model.dim)
            e = stream(fedavg._UPLINK).standard_normal(model.dim)
            g = backend.batch_gradient(model.kind, ds.X, ds.y,
                                       w + nu * np.sqrt(variance_at(dn, t)), rows)
            w = w - eta * (g + e * np.sqrt(variance_at(up, t)))
        assert res.status == "completed" and len(res.metrics) == T
        assert np.array_equal(res.final_params, w)

    def test_divergence_guard_does_not_warn(self):
        # at eta = 1e200 the first step's norm overflows to inf: the guard's signal
        task = self._task()
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        with pytest.warns(UserWarning, match="exceeds 1/L"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_noisy_sgd(task, 1e200, 10, 16, off_u, off_d, seed=0)
        assert res.status == "diverged" and res.diverged_at == 0

    def test_warns_above_inverse_smoothness(self):
        task = self._task()
        off_u, off_d = NoiseSchedule("uplink"), NoiseSchedule("downlink")
        with pytest.warns(UserWarning):
            run_noisy_sgd(task, 1.5, 2, 16, off_u, off_d, seed=0)

    def test_negative_seed_rejected(self):
        task = self._task()
        with pytest.raises(ValueError, match="seed"):
            run_noisy_sgd(task, 0.01, 2, 16, NoiseSchedule("uplink"),
                          NoiseSchedule("downlink"), seed=-1)

    def test_two_shard_task_rejected(self, tiny_task):
        two = Task(tiny_task.dataset, tiny_task.model, partition_iid(300, 2, seed=0))
        with pytest.raises(ValueError, match="one shard"):
            run_noisy_sgd(two, 0.01, 2, 16, NoiseSchedule("uplink"), NoiseSchedule("downlink"), 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           m=st.integers(1, 60), b_frac=st.floats(0.0, 1.0), T=st.integers(1, 5),
           up=st.booleans(), down=st.booleans())
    def test_draws_are_a_one_client_federations(self, seed, m, b_frac, T, up, down):
        # SGD is client 0 of its one-shard task: the batches and unit noise it consumes
        # are round_draws' for n = r = E = 1 and K = T on that task
        b = 1 + round(b_frac * (m - 1))
        task = one_shard(generate_regression(SyntheticRegressionSpec(m=m, d=1), seed=1),
                         LossModel("mse_linear", dim=1, smoothness=1.0))
        channels = [(schedule("uplink", "constant" if up else "off"),
                     schedule("downlink", "constant" if down else "off"))]
        made, seen = [], []
        real_draws, real_gradient = fedavg._cohort_draws, backend.batch_gradient
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fedavg, "_cohort_draws", lambda *a: made.append(real_draws(*a)) or made[-1])
            mp.setattr(backend, "batch_gradient",
                       lambda kind, X, y, w, rows, *a: seen.append(rows) or real_gradient(
                           kind, X, y, w, rows, *a))
            run_noisy_sgd(task, 1e-3, T, b, *channels[0], seed)
        cfg = FedAvgConfig(n=1, r=1, E=1, K=T, gamma=18.0, batch_size=b)
        want = round_draws(cfg, task, seed, channels)
        assert len(made) == 1
        for got, exp in zip(dataclasses.astuple(made[0]), dataclasses.astuple(want)):
            assert (got is None) == (exp is None)
            assert exp is None or np.array_equal(got, exp)
        assert np.array_equal(np.array(seen), want.rows[:, 0, 0])


class TestPresetIntegration:
    def test_noise_free_loss_drops_quartile_to_quartile(self, v5a_runs):
        for res in v5a_runs["v5a_noise_free"].values():
            assert res.status == "completed"
            losses = [m.train_loss for m in res.metrics]
            q = len(losses) // 4
            assert np.mean(losses[-q:]) < np.mean(losses[:q])

    def test_replica_fixture_equals_run_one_seed(self, v5a_task, v5a_runs):
        assert_same_run(v5a_runs["v5a_snr_control"][2],
                        run_one_seed(preset("v5a_snr_control"), v5a_task, 2))

    def test_classification_preset_trains(self):
        cfg = preset("classification_noniid")
        res = run_one_seed(cfg, build_task(cfg), 1)
        assert res.status == "completed"
        losses = [m.train_loss for m in res.metrics]
        assert losses[-1] < losses[0]
