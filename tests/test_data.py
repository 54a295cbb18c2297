"""Dataset generators and client partitions."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisyfed.data import (ClientPartition, SyntheticRegressionSpec,
                           generate_classification, generate_regression,
                           partition_iid, partition_label_shard, sample_batch)
from noisyfed.model import LossModel, full_gradient, loss, smoothness_constant


class TestRegression:
    def test_reference_dataset_is_normalized(self):
        spec = SyntheticRegressionSpec(m=15000, d=60, label_noise_variance=0.05)
        ds = generate_regression(spec, seed=2024)
        model = LossModel("mse_linear", dim=60)
        assert smoothness_constant(model, ds.X) == pytest.approx(1.0, abs=1e-6)
        # independent spectral oracle
        assert np.linalg.eigvalsh(ds.X.T @ ds.X / 15000)[-1] == pytest.approx(1.0, abs=1e-6)

    def test_noiseless_labels_fit_exactly(self):
        spec = SyntheticRegressionSpec(m=200, d=10, label_noise_variance=0.0)
        ds = generate_regression(spec, seed=5)
        model = LossModel("mse_linear", dim=10)
        assert loss(model, ds.theta_eff, ds.X, ds.y) < 1e-20

    def test_same_seed_bit_identical(self):
        spec = SyntheticRegressionSpec(m=300, d=6, label_noise_variance=0.05)
        a = generate_regression(spec, seed=9)
        b = generate_regression(spec, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticRegressionSpec(m=5, d=10)
        with pytest.raises(ValueError):
            SyntheticRegressionSpec(m=10, d=2, label_noise_variance=-1.0)


def _train_accuracy(ds, iters=300):
    model = LossModel("softmax_linear", dim=ds.n_classes * ds.dim, n_classes=ds.n_classes)
    L = smoothness_constant(model, ds.X)
    w = np.zeros(model.dim)
    for _ in range(iters):
        w = w - (1.0 / L) * full_gradient(model, w, ds.X, ds.y)
    pred = np.argmax(ds.X @ w.reshape(ds.n_classes, ds.dim).T, axis=1)
    return float(np.mean(pred == ds.y))


class TestClassification:
    def test_balanced_counts(self):
        ds = generate_classification(103, 4, 5, 2.0, seed=3)
        counts = np.bincount(ds.y, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_zero_separation_is_chance_level(self):
        accs = [_train_accuracy(generate_classification(500, 6, 2, 0.0, s)) for s in (1, 2, 3)]
        assert abs(np.mean(accs) - 0.5) < 0.05

    def test_wide_separation_is_separable(self):
        accs = [_train_accuracy(generate_classification(400, 2, 2, 10.0, s)) for s in (1, 2, 3)]
        assert min(accs) > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_classification(10, 3, 1, 1.0, 0)
        with pytest.raises(ValueError):
            generate_classification(2, 3, 5, 1.0, 0)


class TestIidPartition:
    def test_reference_shard_sizes(self):
        part = partition_iid(15000, 50, seed=0)
        assert all(s.size == 300 for s in part.shards)

    def test_single_client_gets_everything(self):
        part = partition_iid(17, 1, seed=0)
        assert np.array_equal(np.sort(part.shards[0]), np.arange(17))

    def test_partition_laws(self):
        for seed in range(5):
            part = partition_iid(101, 7, seed=seed)
            assert part.covers(101)
            assert all(s.size > 0 for s in part.shards)

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValueError):
            ClientPartition(shards=[np.array([0, 1]), np.array([1, 2])])

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError):
            partition_iid(3, 5, seed=0)


class TestLabelShardPartition:
    def test_one_label_bijection(self):
        ds = generate_classification(120, 3, 6, 3.0, seed=1)
        part = partition_label_shard(ds, n=6, labels_per_client=1, seed=1)
        for shard in part.shards:
            assert len(np.unique(ds.y[shard])) == 1

    def test_label_count_bound_and_laws(self):
        ds = generate_classification(400, 4, 10, 3.0, seed=2)
        part = partition_label_shard(ds, n=20, labels_per_client=2, seed=2)
        assert part.covers(400)
        for shard in part.shards:
            assert len(np.unique(ds.y[shard])) <= 2

    def test_all_classes_covered(self):
        ds = generate_classification(2000, 4, 10, 3.0, seed=4)
        part = partition_label_shard(ds, n=100, labels_per_client=2, seed=4)
        seen = set()
        for shard in part.shards:
            seen.update(np.unique(ds.y[shard]).tolist())
        assert seen == set(range(10))

    def test_regression_rejected(self):
        ds = generate_regression(SyntheticRegressionSpec(m=50, d=3), seed=0)
        with pytest.raises(ValueError):
            partition_label_shard(ds, n=5, labels_per_client=1, seed=0)


def unique_oracle(shards):
    """np.unique of every shard's indices: (sorted distinct indices, any duplicate)."""
    allidx = np.concatenate(shards) if shards else np.array([], dtype=np.int64)
    distinct = np.unique(allidx)
    return distinct, distinct.size != allidx.size


def assert_partition_laws(part, m):
    distinct, dup = unique_oracle(part.shards)
    assert all(s.size > 0 for s in part.shards)
    assert not dup
    assert np.array_equal(distinct, np.arange(m))
    assert part.covers(m)


class TestPartitionLaws:
    """ClientPartition's sort-based check and the partitioners, against np.unique."""

    @settings(max_examples=200, deadline=None)
    @given(shards=st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=9), max_size=7))
    @example(shards=[])
    @example(shards=[[3, 0, 2, 1]])
    @example(shards=[[5, 1, 5]])
    @example(shards=[[0, 1, 2], [3], [4, 5]])
    @example(shards=[[0, 1, 2], [3], [4, 2]])
    def test_rejects_exactly_the_duplicates(self, shards):
        shards = [np.array(s, dtype=np.int64) for s in shards]
        distinct, dup = unique_oracle(shards)
        if dup:
            with pytest.raises(ValueError, match="disjoint"):
                ClientPartition(shards=shards)
            return
        part = ClientPartition(shards=shards)
        for m in {distinct.size, distinct.size + 1, int(distinct.max(initial=-1)) + 1}:
            assert part.covers(m) == np.array_equal(distinct, np.arange(m))

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClientPartition(shards=[np.array([0, 1]), np.array([], dtype=np.int64)])

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), extra=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))
    def test_iid_laws(self, n, extra, seed):
        m = n + extra
        part = partition_iid(m, n, seed)
        assert part.n_clients == n
        assert_partition_laws(part, m)
        sizes = [s.size for s in part.shards]
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=100, deadline=None)
    @given(C=st.integers(2, 5), n=st.integers(1, 8), per=st.integers(1, 3),
           extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_label_shard_laws(self, C, n, per, extra, seed):
        per = max(per, -(-C // n))  # n * per must reach every class
        m = C * -(-n * per // C) + extra  # every class holds its slices
        ds = generate_classification(m, 1, C, 3.0, seed)
        part = partition_label_shard(ds, n, per, seed)
        assert part.n_clients == n
        assert_partition_laws(part, m)


class TestSampleBatch:
    def test_full_batch_is_whole_shard(self):
        shard = np.array([4, 9, 2, 7])
        got = sample_batch(shard, 4, np.random.default_rng(0))
        assert sorted(got.tolist()) == sorted(shard.tolist())

    def test_uniform_frequencies(self):
        shard = np.arange(5)
        rng = np.random.default_rng(42)
        draws = 100_000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[sample_batch(shard, 1, rng)[0]] += 1
        p = 1.0 / 5
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_deterministic_under_fixed_state(self):
        shard = np.arange(30)
        a = sample_batch(shard, 10, np.random.default_rng(7))
        b = sample_batch(shard, 10, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            sample_batch(np.arange(3), 4, np.random.default_rng(0))

