"""Desk-scale federated training over recruited data owners.

Each owner holds a synthetic Gaussian-blob dataset (blurred owners get
uniform label noise).  Every owner trains a softmax-regression model
locally; the consumer aggregates with sample-weighted FedAvg and is
scored by test-set accuracy.  Owners' data and the test set are ``synth_dataset``
draws, each a ``LocalDataset`` of labels and a design matrix (the features, then
a bias column of ones); ``local_train`` and ``evaluate`` take one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

NUM_CLASSES = 10
FEATURE_DIM = 8
# moderate class overlap: accuracy sits below ceiling so data quality
# and cohort composition show up in the final score
CENTER_SPREAD = 1.5
LR = 0.05  # local_train's gradient step


@dataclass
class LocalDataset:
    design: np.ndarray  # (n, d + 1): the features, then a bias column of ones
    labels: np.ndarray  # (n,) ints in [0, K)


def make_class_centers(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(scale=CENTER_SPREAD, size=(NUM_CLASSES, FEATURE_DIM))


def synth_dataset(
    num_samples: int,
    blurred: bool,
    centers: np.ndarray,
    noise_rate_blurred: float,
    rng: np.random.Generator,
    classes: Optional[np.ndarray] = None,
) -> LocalDataset:
    """One owner's ``num_samples`` synthetic points around the global class centers.

    ``classes`` restricts the owner's label support (non-IID shards);
    defaults to all classes.  Blurred owners have a noise_rate_blurred
    fraction of labels reassigned uniformly at random.
    """
    num_classes, dim = centers.shape
    if classes is None:
        classes = np.arange(num_classes)
    labels = rng.choice(classes, size=num_samples)
    # noise + centers[labels] has the bits of centers[labels] + noise
    design = np.ones((num_samples, dim + 1))
    design[:, :dim] = rng.standard_normal((num_samples, dim))
    design[:, :dim] += centers[labels]
    if blurred and noise_rate_blurred > 0:
        mask = rng.random(num_samples) < noise_rate_blurred
        labels = labels.copy()
        labels[mask] = rng.integers(0, num_classes, int(mask.sum()))
    return LocalDataset(design=design, labels=labels)


def local_train(weights: np.ndarray, dataset: LocalDataset, local_epochs: int) -> np.ndarray:
    """Full-batch gradient descent on softmax cross-entropy, ``local_epochs`` steps.

    Each step is ``w = w - LR * (softmax(Xa w^T) - onehot(y))^T Xa / n``
    with Xa the dataset's design.  The softmax runs on
    a class-major (K, n) buffer, a few contiguous length-n operations per
    step, and its normaliser adds the K classes in index order, so the
    weights equal the ``cross_entropy_gradient`` loop bit for bit.  Buffers
    are built once per call; any number of classes works.
    """
    w = weights.copy()
    K = w.shape[0]
    Xa = dataset.design
    y = dataset.labels
    n = len(y)
    label_index = y * n + np.arange(n)
    # the BLAS products read and write this (n, K) twin of P, as the
    # reference does: some BLAS kernels round (K, n) products differently
    by_row = np.empty((n, K))
    P = np.empty((K, n))
    flat = P.reshape(-1)
    col = np.empty(n)
    for step in range(local_epochs):
        np.matmul(Xa, w.T, out=by_row)
        np.copyto(P, by_row.T)
        # max is exact and -, exp, / act per element: only the sum has an order
        np.max(P, axis=0, out=col)
        P -= col
        np.exp(P, out=P)
        # classes in index order; np.sum(P, axis=0) goes pairwise when n == 1
        np.copyto(col, P[0])
        for k in range(1, K):
            col += P[k]
        P /= col
        np.subtract.at(flat, label_index, 1.0)
        np.copyto(by_row, P.T)
        w = w - LR * (by_row.T @ Xa / n)
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


def evaluate(weights: np.ndarray, dataset: LocalDataset) -> float:
    """Fraction of argmax-correct predictions on ``dataset`` (ties -> lowest class id)."""
    if len(dataset.labels) == 0:
        raise ValueError("test set is empty")
    preds = np.argmax(dataset.design @ weights.T, axis=1)
    return float(np.mean(preds == dataset.labels))

