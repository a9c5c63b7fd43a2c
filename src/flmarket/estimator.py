"""Log-linear utility estimation for bid requests.

A consumer predicts the utility of recruiting a data owner from the
owner's request features q via s(q) = ln(1 + theta.q), with theta the
least-squares fit to the realized utilities of won auctions.  ``fit``
finds it by Levenberg-Marquardt from theta = 0 and reports how it ended:
its iterations, final loss, relative gradient norm and whether it
converged.  It does not raise when it stops short.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# floor on 1 + theta.q, so the log stays finite
CLAMP_EPS = 1e-6
# fit stops once the gradient norm is this fraction of its norm at theta = 0
GRAD_REL_TARGET = 1e-9
# and reports converged when the fraction is at most this
CONVERGED_GRAD_REL = 1e-6


@dataclass(frozen=True)
class FitResult:
    """A fitted theta and how the fit that found it ended."""

    theta: np.ndarray
    iterations: int  # linear solves, accepted or rejected
    loss: float  # ``loss`` at theta
    grad_rel: float  # |gradient(theta)| / |gradient(0)|; 0 when gradient(0) is 0
    converged: bool  # grad_rel <= CONVERGED_GRAD_REL


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


def fit(Q: np.ndarray, y: np.ndarray, max_iterations: int = 200) -> FitResult:
    """Least-squares theta on won records (Q, y) by Levenberg-Marquardt.

    ``Q`` holds one feature row per record and ``y`` its realized
    utility.  From theta = 0, each iteration solves
    (J^T J + mu I) d = -J^T r, with residuals r = ln z - y, z = 1 + Q theta
    and Jacobian J = Q / z, so that J^T r is ``gradient``.  A trial step
    that puts 1 + theta.q below CLAMP_EPS on a record, or does not lower
    the loss, is rejected and mu doubles; an accepted one divides mu by 3.
    The fit stops when the gradient norm falls to GRAD_REL_TARGET of its
    norm at theta = 0, when a step no longer changes theta (no step can
    lower the loss), or after ``max_iterations`` solves.
    """
    if len(y) == 0:
        raise ValueError("history is empty; need at least one won record")
    theta = np.zeros(Q.shape[1])
    z = np.ones(len(y))
    r = -y  # ln 1 - y
    cur = 0.5 * float(r @ r)
    g = (r / z) @ Q
    g0 = float(np.linalg.norm(g))
    J = Q / z[:, None]
    A = J.T @ J
    mu = 1e-3 * float(np.max(np.diag(A)))  # start close to Gauss-Newton
    iterations = 0
    while iterations < max_iterations and np.linalg.norm(g) > GRAD_REL_TARGET * g0:
        iterations += 1
        trial = theta + np.linalg.solve(A + mu * np.eye(len(theta)), -g)
        if np.array_equal(trial, theta):
            break  # the step is below theta's rounding: no step lowers the loss
        z_trial = 1.0 + Q @ trial
        if z_trial.min() >= CLAMP_EPS:
            r_trial = np.log(z_trial) - y
            trial_loss = 0.5 * float(r_trial @ r_trial)
            if trial_loss < cur:
                theta, z, r, cur = trial, z_trial, r_trial, trial_loss
                g = (r / z) @ Q
                J = Q / z[:, None]
                A = J.T @ J
                mu /= 3.0
                continue
        mu *= 2.0
    grad_rel = float(np.linalg.norm(g)) / g0 if g0 > 0 else 0.0
    return FitResult(theta, iterations, cur, grad_rel, grad_rel <= CONVERGED_GRAD_REL)


BLUR_DISCOUNT = 0.4


def true_utility(owner) -> float:
    """Ground-truth utility of recruiting an owner: g * ln(1 + n/1000).

    The quality factor g is 1.0 for clean owners and BLUR_DISCOUNT for
    blurred ones, so utility grows concavely with quantity and is
    discounted for low-quality data.
    """
    g = BLUR_DISCOUNT if owner.quality == "blurred" else 1.0
    return g * float(np.log1p(owner.num_samples / 1000.0))


def fit_with_backoff(Q, y) -> FitResult:
    # The benchmark tracer (bench/spans.py) times and counts fits by this
    # name; keep it until its spans wrap ``fit`` directly.
    return fit(Q, y)
