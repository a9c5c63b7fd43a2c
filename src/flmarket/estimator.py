"""Log-linear utility estimation for bid requests.

A consumer predicts the utility of recruiting a data owner from the
owner's request features q via s(q) = ln(1 + theta.q), with theta fitted to
realized utilities of won auctions by full-batch gradient descent on a squared-error
loss.  Each epoch is fused, and theta is bit-identical to the ``loss``/``gradient`` loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """Fitting diverged; the message names the rule, ``step`` its epoch (-1: backoff gave up)."""

    def __init__(self, step: int, reason: str):
        super().__init__(reason)
        self.step = step


# floor on 1 + theta.q, so the log stays finite
CLAMP_EPS = 1e-6


@dataclass
class EstimatorParams:
    learning_rate: float = 0.05
    epochs: int = 5000


def predict(theta: np.ndarray, q: np.ndarray):
    """s = ln(max(1 + theta.q, CLAMP_EPS)).

    ``q`` is one feature row (returns a float) or a matrix with one row
    per request (returns an array).
    """
    theta = np.asarray(theta, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != theta.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs q {q.shape}")
    s = np.log(np.maximum(1.0 + q @ theta, CLAMP_EPS))
    return float(s) if s.ndim == 0 else s


def loss(theta: np.ndarray, Q: np.ndarray, y: np.ndarray) -> float:
    """Squared-error loss 0.5 * sum (y_m - s(q_m))^2 over won records."""
    z = np.maximum(1.0 + Q @ theta, CLAMP_EPS)
    return 0.5 * float(np.sum((y - np.log(z)) ** 2))


def gradient(theta: np.ndarray, Q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient: sum [ln(1+theta.q) - y] q / (1 + theta.q)."""
    z = np.maximum(1.0 + Q @ theta, CLAMP_EPS)
    return ((np.log(z) - y) / z) @ Q


def fit(Q: np.ndarray, y: np.ndarray, params: EstimatorParams) -> np.ndarray:
    """Full-batch gradient descent from theta = 0 on won records (Q, y).

    ``Q`` holds one feature row per record and ``y`` its realized
    utility.  After every step theta is projected so that 1 + theta.q
    stays above the clamp floor on the training set.  Raises
    DivergenceError if the loss turns non-finite, rises for 10 consecutive
    steps or ends above its start.

    Each epoch is fused: one dots = Q @ theta (two if projected) and one log give the
    projection test, loss and next gradient; theta is bit-identical to ``gradient``/``loss``.
    """
    if len(y) == 0:
        raise ValueError("history is empty; need at least one won record")
    theta = np.zeros(Q.shape[1])
    dots = Q @ theta
    # residual r = ln z - y with z = max(1 + dots, eps), kept across epochs
    z = np.maximum(1.0 + dots, CLAMP_EPS)
    r = np.log(z) - y
    loss0 = prev = 0.5 * float(np.sum(r**2))
    bad = 0
    for step in range(params.epochs):
        theta = theta - params.learning_rate * ((r / z) @ Q)
        np.matmul(Q, theta, out=dots)
        m = dots.min()
        projected = 1.0 + m < CLAMP_EPS
        if projected:
            # scale theta down by the smallest factor restoring the floor
            theta = theta * ((CLAMP_EPS - 1.0) / m)
            np.matmul(Q, theta, out=dots)
        np.add(dots, 1.0, out=z)
        if not 1.0 + m >= CLAMP_EPS:  # rounding is monotone: else the floor is a no-op
            np.maximum(z, CLAMP_EPS, out=z)
        np.subtract(np.log(z, out=r), y, out=r)
        cur = 0.5 * float(np.sum(r**2))  # == loss(theta, Q, y): (a - y)^2 == (y - a)^2
        if not math.isfinite(cur):
            raise DivergenceError(step, f"loss is {cur!r} at step {step}")
        # a step pinned to the clamp floor without improving counts as
        # divergent too: the iterate overshot and is stuck
        if cur > prev or (projected and cur >= prev):
            bad += 1
            if bad >= 10:
                raise DivergenceError(step, f"loss rose for 10 consecutive steps up to step {step}")
        else:
            bad = 0
        prev = cur
    if prev > loss0:
        # overshot into a worse basin than the starting point
        raise DivergenceError(
            params.epochs - 1, f"final loss {prev!r} is above {loss0!r}, the loss at theta = 0"
        )
    return theta


BLUR_DISCOUNT = 0.4


def true_utility(owner) -> float:
    """Ground-truth utility of recruiting an owner: g * ln(1 + n/1000).

    The quality factor g is 1.0 for clean owners and BLUR_DISCOUNT for
    blurred ones, so utility grows concavely with quantity and is
    discounted for low-quality data.
    """
    g = BLUR_DISCOUNT if owner.quality == "blurred" else 1.0
    return g * float(np.log1p(owner.num_samples / 1000.0))


def fit_with_backoff(Q, y, params: EstimatorParams, max_retries: int = 8):
    """Fit, quartering the learning rate on divergence.

    Returns (theta, params actually used).  Large histories make the
    summed gradient steep, so the nominal rate can overshoot.
    """
    lr = params.learning_rate
    for _ in range(max_retries):
        try:
            trial = EstimatorParams(lr, params.epochs)
            return fit(Q, y, trial), trial
        except DivergenceError:
            lr /= 4.0
    raise DivergenceError(-1, f"backoff exhausted after {max_retries} rates, the last {lr * 4.0!r}")
