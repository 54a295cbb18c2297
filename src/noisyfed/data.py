"""Synthetic dataset generation and client partitioning.

The regression generator draws standard-normal features, labels
y = <theta_star, x> + c with Gaussian label noise (the noise parameter is a
VARIANCE), and can rescale all features by one scalar so the smoothness
constant of the mse model is 1. The classification generator places C
Gaussian clusters at a controllable separation, a desk-scale stand-in for
non-IID image benchmarks.

Partitions map dataset indices to clients and always satisfy the partition
laws: shards are pairwise disjoint, cover every index, and are non-empty.
Everything here is a pure function of (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import LossModel, smoothness_constant


@dataclass(frozen=True)
class SyntheticRegressionSpec:
    m: int
    d: int
    label_noise_variance: float = 0.0
    normalize_hessian: bool = True

    def __post_init__(self):
        if self.d < 1 or self.m < self.d:
            raise ValueError("need m >= d >= 1")
        if self.label_noise_variance < 0:
            raise ValueError("label_noise_variance must be >= 0")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus targets; ``theta_eff`` is the exact optimum of the
    mse model after feature rescaling (regression only)."""

    kind: str  # "regression" | "classification"
    X: np.ndarray
    y: np.ndarray
    n_classes: int = 0
    theta_eff: np.ndarray | None = None

    def __len__(self):
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ClientPartition:
    """Client shards of dataset indices: non-empty and pairwise disjoint.

    The shards' indices are concatenated and sorted once, when the partition
    is built: equal neighbours in that order are the duplicates, and
    ``covers`` compares the same sorted indices with range(m).
    """
    shards: list = field(default_factory=list)  # list of int64 index arrays
    _sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(len(s) == 0 for s in self.shards):
            raise ValueError("every shard must be non-empty")
        rows = np.sort(np.concatenate(self.shards)) if self.shards else np.array([], np.int64)
        if (rows[1:] == rows[:-1]).any():
            raise ValueError("shards must be pairwise disjoint")
        object.__setattr__(self, "_sorted", rows)

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    def covers(self, m: int) -> bool:
        return np.array_equal(self._sorted, np.arange(m))


def generate_regression(spec: SyntheticRegressionSpec, seed: int) -> Dataset:
    """Draw the synthetic linear-regression dataset.

    Features and theta_star are N(0, I); targets y = <theta_star, x> + c with
    c ~ N(0, label_noise_variance). When ``normalize_hessian`` is set, every
    feature vector is divided by one global scalar so that
    smoothness_constant(mse model) = 1 within 1e-6; the reported
    ``theta_eff`` absorbs the same scalar so residuals are unchanged. The
    division is done in place on the one drawn X, so no second copy of the
    features is ever held.
    """
    rng = np.random.default_rng([int(seed), 0xDA7A])
    theta = rng.standard_normal(spec.d)
    X = rng.standard_normal((spec.m, spec.d))
    noise = rng.standard_normal(spec.m) * np.sqrt(spec.label_noise_variance)
    y = X @ theta + noise
    if spec.normalize_hessian:
        probe = LossModel(kind="mse_linear", dim=spec.d)
        lam = smoothness_constant(probe, X)
        scale = float(np.sqrt(lam))
        X /= scale
        theta = theta * scale
    return Dataset(kind="regression", X=X, y=y, theta_eff=theta)


def generate_classification(m: int, d: int, n_classes: int,
                            cluster_separation: float, seed: int) -> Dataset:
    """Gaussian clusters with mean norm = cluster_separation, balanced counts."""
    if n_classes < 2:
        raise ValueError("need n_classes >= 2")
    if m < n_classes:
        raise ValueError("need m >= n_classes")
    rng = np.random.default_rng([int(seed), 0xC1A5])
    means = rng.standard_normal((n_classes, d))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    means = means / norms * cluster_separation
    counts = np.full(n_classes, m // n_classes)
    counts[: m % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), counts)
    X = means[labels] + rng.standard_normal((m, d))
    perm = rng.permutation(m)
    return Dataset(kind="classification", X=X[perm], y=labels[perm].astype(np.int64),
                   n_classes=n_classes)


def partition_iid(dataset_size: int, n: int, seed: int) -> ClientPartition:
    """Shuffle indices, split into n contiguous chunks of near-equal size."""
    if dataset_size < n:
        raise ValueError("need at least one example per client")
    if n < 1:
        raise ValueError("need n >= 1")
    perm = np.random.default_rng([int(seed), 0x11D]).permutation(dataset_size)
    return ClientPartition(shards=[s.astype(np.int64) for s in np.array_split(perm, n)])


def partition_label_shard(dataset: Dataset, n: int, labels_per_client: int,
                          seed: int) -> ClientPartition:
    """Non-IID split: each client sees at most ``labels_per_client`` classes.

    Examples are sorted by class, each class is cut into equal slices
    (n * labels_per_client slices in total, spread as evenly as possible
    across classes), and the shuffled slices are dealt round-robin so every
    client receives exactly ``labels_per_client`` single-class slices.
    """
    if dataset.kind != "classification":
        raise ValueError("label-shard partition needs a classification dataset")
    if labels_per_client < 1:
        raise ValueError("labels_per_client must be >= 1")
    C = dataset.n_classes
    total_slices = n * labels_per_client
    if total_slices < C:
        raise ValueError("n * labels_per_client must cover every class")
    rng = np.random.default_rng([int(seed), 0x5A4D])
    slices_per_class = np.full(C, total_slices // C)
    slices_per_class[: total_slices % C] += 1
    pieces = []
    for c in range(C):
        idx = np.flatnonzero(dataset.y == c)
        if idx.size < slices_per_class[c]:
            raise ValueError(f"class {c} has too few examples to slice")
        pieces.extend(np.array_split(idx, slices_per_class[c]))
    order = rng.permutation(len(pieces))
    shards = []
    for client in range(n):
        mine = [pieces[order[j]] for j in range(client, total_slices, n)]
        shards.append(np.sort(np.concatenate(mine)).astype(np.int64))
    return ClientPartition(shards=shards)


def sample_batch(shard: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement from the shard, in sampled order."""
    shard = np.asarray(shard)
    if batch_size < 1 or batch_size > shard.size:
        raise ValueError("need 1 <= batch_size <= shard size")
    pick = rng.choice(shard.size, size=batch_size, replace=False)
    return shard[pick]

