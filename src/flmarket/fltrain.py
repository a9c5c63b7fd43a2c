"""Desk-scale federated training over recruited data owners.

Each owner holds a synthetic Gaussian-blob dataset (blurred owners get
uniform label noise).  Every owner trains a softmax-regression model
locally; the consumer aggregates with sample-weighted FedAvg and is
scored by test-set accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .market import ConfigurationError, DataOwner, Quality

NUM_CLASSES = 10
FEATURE_DIM = 8
# moderate class overlap: accuracy sits below ceiling so data quality
# and cohort composition show up in the final score
CENTER_SPREAD = 1.5


@dataclass
class LocalDataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) ints in [0, K)
    owner_id: int


def make_class_centers(
    rng: np.random.Generator, num_classes: int = NUM_CLASSES, dim: int = FEATURE_DIM
) -> np.ndarray:
    return rng.normal(scale=CENTER_SPREAD, size=(num_classes, dim))


def partition_mode(partition: str, shards_per_owner: int, num_classes: int = NUM_CLASSES):
    """Validate the partition setting; returns ('iid', None) or ('niid', shards)."""
    if partition == "iid":
        return ("iid", None)
    if partition == "niid":
        if not 1 <= shards_per_owner <= num_classes:
            raise ConfigurationError(
                f"shards_per_owner must be in [1, {num_classes}], got {shards_per_owner}"
            )
        return ("niid", shards_per_owner)
    raise ConfigurationError(f"unknown partition mode {partition!r}")


def synth_dataset(
    owner: DataOwner,
    centers: np.ndarray,
    noise_rate_blurred: float,
    rng: np.random.Generator,
    classes: Optional[np.ndarray] = None,
) -> LocalDataset:
    """Per-owner synthetic data around the global class centers.

    ``classes`` restricts the owner's label support (non-IID shards);
    defaults to all classes.  Blurred owners have a noise_rate_blurred
    fraction of labels reassigned uniformly at random.
    """
    num_classes, dim = centers.shape
    if classes is None:
        classes = np.arange(num_classes)
    n = owner.num_samples
    labels = rng.choice(classes, size=n)
    features = centers[labels] + rng.standard_normal((n, dim))
    if owner.quality is Quality.BLURRED and noise_rate_blurred > 0:
        mask = rng.random(n) < noise_rate_blurred
        labels = labels.copy()
        labels[mask] = rng.integers(0, num_classes, int(mask.sum()))
    return LocalDataset(features=features, labels=labels, owner_id=owner.id)


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def zero_model(num_classes: int = NUM_CLASSES, dim: int = FEATURE_DIM) -> np.ndarray:
    return np.zeros((num_classes, dim + 1))


def local_train(
    weights: np.ndarray,
    dataset: LocalDataset,
    local_epochs: int = 100,
    lr: float = 0.05,
) -> np.ndarray:
    """Full-batch gradient descent on softmax cross-entropy.

    Each step is ``w = w - lr * (softmax(Xa w^T) - onehot(y))^T Xa / n``
    with Xa the features augmented by a bias column, bit for bit.  The
    augmented features, the row index and the (n, K) probability buffer
    are built once; each step computes the softmax in place in that
    buffer and subtracts 1 at the true labels instead of building a
    one-hot matrix.
    """
    w = weights.copy()
    Xa = _augment(dataset.features)
    y = dataset.labels
    n = len(y)
    rows = np.arange(n)
    p = np.empty((n, w.shape[0]))
    row_max = np.empty(n)
    for step in range(local_epochs):
        np.matmul(Xa, w.T, out=p)
        # max is exact, so a running maximum over the columns gives the
        # bits of p.max(axis=1) at a fraction of its cost
        np.copyto(row_max, p[:, 0])
        for k in range(1, p.shape[1]):
            np.maximum(row_max, p[:, k], out=row_max)
        p -= row_max[:, None]
        np.exp(p, out=p)
        # the sum keeps the reference's layout: other orders round differently
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        w = w - lr * (p.T @ Xa / n)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError(f"non-finite weights at local step {step}")
    return w


def fedavg(updates: Sequence[tuple]) -> np.ndarray:
    """Sample-count-weighted average of weight matrices."""
    if len(updates) == 0:
        raise ValueError("fedavg needs at least one update")
    total = sum(n for _, n in updates)
    out = np.zeros_like(updates[0][0])
    for w, n in updates:
        out += (n / total) * w
    return out


def evaluate(weights: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions (ties -> lowest class id)."""
    if len(labels) == 0:
        raise ValueError("test set is empty")
    preds = np.argmax(_augment(features) @ weights.T, axis=1)
    return float(np.mean(preds == labels))

