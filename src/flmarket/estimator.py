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
# or stops after this many linear solves
MAX_SOLVES = 200


@dataclass(frozen=True)
class FitResult:
    """A fitted theta and how the fit that found it ended."""

    theta: np.ndarray
    iterations: int  # linear solves, accepted or rejected
    loss: float  # ``loss`` at theta
    grad_rel: float  # |gradient(theta)| / |gradient(0)|; 0 when gradient(0) is 0
    converged: bool  # grad_rel <= CONVERGED_GRAD_REL


def _residuals(theta: np.ndarray, Q: np.ndarray, y, counts=None):
    """z = 1 + Q theta, unfloored, r = w (ln max(z, CLAMP_EPS) - y) and z / w, where row m
    has weight w = sqrt(counts[m]), or w = 1.0, which keeps every bit, without counts."""
    w = 1.0 if counts is None else np.sqrt(counts)
    z = 1.0 + Q @ theta
    return z, w * (np.log(np.maximum(z, CLAMP_EPS)) - y), z / w


def predict(theta: np.ndarray, q: np.ndarray):
    """s = ln(max(1 + theta.q, CLAMP_EPS)).

    ``q`` is one feature row (returns a float) or a matrix with one row
    per request (returns an array).
    """
    theta = np.asarray(theta, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != theta.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs q {q.shape}")
    s = _residuals(theta, q, 0.0)[1]
    return float(s) if s.ndim == 0 else s


def loss(theta: np.ndarray, Q: np.ndarray, y: np.ndarray, counts=None) -> float:
    """Squared-error loss 0.5 * sum counts_m (y_m - s(q_m))^2 over won records."""
    r = _residuals(theta, Q, y, counts)[1]
    return 0.5 * float(r @ r)


def gradient(theta: np.ndarray, Q: np.ndarray, y: np.ndarray, counts=None) -> np.ndarray:
    """Gradient of ``loss`` above the floor: sum counts [ln(1+theta.q) - y] q / (1 + theta.q)."""
    _, r, zw = _residuals(theta, Q, y, counts)
    return (r / zw) @ Q


def fit(Q: np.ndarray, y: np.ndarray, counts=None) -> FitResult:
    """Least-squares theta on won records (Q, y) by Levenberg-Marquardt.

    ``Q`` holds one feature row per record, ``y`` its realized utility and
    ``counts``, if given, how often it was won: each row stands for that
    many.  From theta = 0, each iteration solves (J^T J + mu I) d = -J^T r,
    with r = w (ln z - y), z = 1 + Q theta, weights w = sqrt(counts) and
    J = Q / (z / w), so that J^T r is ``gradient``.  A trial step
    that puts 1 + theta.q below CLAMP_EPS on a record, or does not lower
    the loss, is rejected and mu doubles, as is a singular A + mu I; an
    accepted one divides mu by 3.  The fit stops when the gradient norm
    falls to GRAD_REL_TARGET of its norm at theta = 0, when a step no
    longer changes theta (no step can lower the loss), or after
    MAX_SOLVES solves.
    """
    if len(y) == 0:
        raise ValueError("history is empty; need at least one won record")

    def state(theta):
        """min(1 + Q theta), ``loss``, ``gradient`` and J^T J at theta."""
        z, r, zw = _residuals(theta, Q, y, counts)
        J = Q / zw[:, None]
        return z.min(), 0.5 * float(r @ r), (r / zw) @ Q, J.T @ J

    theta = np.zeros(Q.shape[1])
    _, cur, g, A = state(theta)
    g0 = float(np.linalg.norm(g))
    mu = 1e-3 * float(np.max(np.diag(A)))  # start close to Gauss-Newton
    eye = np.eye(len(theta))
    iterations = 0
    while iterations < MAX_SOLVES and np.linalg.norm(g) > GRAD_REL_TARGET * g0:
        iterations += 1
        try:
            trial = theta + np.linalg.solve(A + mu * eye, -g)
        except np.linalg.LinAlgError:  # A + mu I is singular: a rejected step
            mu *= 2.0
            continue
        if np.array_equal(trial, theta):
            break  # the step is below theta's rounding: no step lowers the loss
        floor, trial_loss, trial_g, trial_A = state(trial)
        if floor >= CLAMP_EPS and trial_loss < cur:
            theta, cur, g, A = trial, trial_loss, trial_g, trial_A
            mu /= 3.0
        else:
            mu *= 2.0
    grad_rel = float(np.linalg.norm(g)) / g0 if g0 > 0 else 0.0
    return FitResult(theta, iterations, cur, grad_rel, grad_rel <= CONVERGED_GRAD_REL)


BLUR_DISCOUNT = 0.4


def true_utility(num_samples, blurred) -> np.ndarray:
    """Ground-truth utility of recruiting owners: g * ln(1 + n/1000).

    ``num_samples`` and ``blurred`` are arrays with one entry per owner.
    The quality factor g is 1.0 for clean owners and BLUR_DISCOUNT for
    blurred ones, so utility grows concavely with quantity and is
    discounted for low-quality data.
    """
    g = np.where(blurred, BLUR_DISCOUNT, 1.0)
    return g * np.log1p(np.asarray(num_samples) / 1000.0)


def fit_with_backoff(Q, y, counts=None) -> FitResult:
    # The benchmark tracer (bench/spans.py) times and counts fits by this
    # name; keep it until its spans wrap ``fit`` directly.
    return fit(Q, y, counts)
