"""Bidding strategies, the budget Lagrange-multiplier solver and the
optimal-bid oracle.

Baselines: constant bid, uniform random bid, uniform below estimated
utility (Bmub), linear in estimated utility (Lin).  The two closed-form
strategies (``fbs`` for the simple win model, ``fbc`` for the complex
one) maximize the per-request expected surplus

    f(b) = (s - b) W(b) - lambda * b W(b)

where s is the estimated utility, W the consumer's win model and lambda
the shadow price of its budget constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .winmodel import WinForm, WinningFunctionModel, _regula_falsi, win_prob, win_prob_derivative


class Strategy(str, Enum):
    CONST = "const"
    RAND = "rand"
    BMUB = "bmub"
    LIN = "lin"
    FBS = "fbs"
    FBC = "fbc"


NEEDS_THETA = (Strategy.BMUB, Strategy.LIN, Strategy.FBS, Strategy.FBC)  # bid from s(q)
WIN_FORM = {Strategy.FBS: WinForm.SIMPLE, Strategy.FBC: WinForm.COMPLEX}  # the closed forms' models

# the baselines' constants: the config takes no key for them
CONST_BID = 0.5  # the constant bid
RAND_MAX = 1.0  # random bids are uniform on (0, RAND_MAX]
LIN_COEF = 0.5  # the linear bid's slope in estimated utility


@dataclass
class LambdaSolution:
    lam: float
    expected_spend_per_request: float
    target: float
    iterations: int


# The baselines bid on a column of requests: one draw per request from the
# agent's stream, in request order; bmub draws nothing where s <= 0.


def bid_const(n: int) -> np.ndarray:
    return np.full(n, CONST_BID)


def bid_rand(rng: np.random.Generator, n: int) -> np.ndarray:
    # uniform on (0, RAND_MAX]
    return RAND_MAX - rng.uniform(0.0, RAND_MAX, n)


def bid_bmub(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    b = np.zeros_like(s)
    pos = s > 0
    b[pos] = s[pos] - rng.uniform(0.0, s[pos])
    return b


def bid_lin(s: np.ndarray) -> np.ndarray:
    return LIN_COEF * np.maximum(s, 0.0)


def _check_closed_form_args(s: np.ndarray, c, lam):
    if np.any(s < 0) or c <= 0 or lam < 0:
        raise ValueError(f"invalid bid arguments min(s)={np.min(s)}, c={c}, lambda={lam}")


# Both closed forms are evaluated without subtraction, so a bid is never
# negative and keeps full relative accuracy as s -> 0 (Goldberg 1991,
# "What Every Computer Scientist Should Know About Floating-Point
# Arithmetic", section 1.4).  Each takes a scalar or an array of
# utilities and returns a float for a scalar.


def bid_fbs(s, c: float, lam: float):
    """Optimal bid under the simple win model: sqrt(c^2 + x) - c, x = s c/(lam+1).

    Evaluated as x / (sqrt(c^2 + x) + c).
    """
    s = np.asarray(s, dtype=float)
    _check_closed_form_args(s, c, lam)
    x = s * c / (lam + 1.0)
    b = x / (np.sqrt(c * c + x) + c)
    return float(b) if b.ndim == 0 else b


def bid_fbc(s, c: float, lam: float):
    """Optimal bid under the complex win model.

    Equivalently the unique real root of b^3 + 3 c^2 b = 2 c^2 s/(lam+1).
    The root is c (t - 1/t) with t^3 = (s + sqrt(a^2 + s^2))/a, a = c (lam+1).
    Since t^3 - t^-3 = r = 2 s/a, it is evaluated as
    c r / (t^2 + 1 + t^-2) = 2 s/(lam+1) / (t^2 + 1 + t^-2).
    """
    s = np.asarray(s, dtype=float)
    _check_closed_form_args(s, c, lam)
    a = c * (lam + 1.0)
    t2 = ((s + np.sqrt(a * a + s * s)) / a) ** (2.0 / 3.0)
    b = 2.0 * s / (lam + 1.0) / (t2 + 1.0 + 1.0 / t2)
    return float(b) if b.ndim == 0 else b


def closed_form_bid(s, model: WinningFunctionModel, lam: float):
    """Closed-form bid at utility ``s`` (scalar or array); negative ``s`` bids 0."""
    s = np.maximum(s, 0.0)
    if model.form is WinForm.SIMPLE:
        return bid_fbs(s, model.c, lam)
    return bid_fbc(s, model.c, lam)


def check_foc(s: float, b: float, model: WinningFunctionModel, lam: float) -> float:
    """First-order-condition residual f'(b); near zero at the optimal bid.

    Returns (s - (lam+1) b) W'(b) - (lam+1) W(b).  Negative for
    overbidding (b above the optimum), positive below it.
    """
    return (s - (lam + 1.0) * b) * win_prob_derivative(model, b) - (
        lam + 1.0
    ) * win_prob(model, b)


def oracle_optimal_bid(s: float, model: WinningFunctionModel, lam: float) -> float:
    """Reference maximizer of the per-request surplus f(b) = (s - (1+lam) b) W(b).

    f is positive and log-concave on (0, s/(1+lam)) for both win models,
    and negative beyond it, so f' changes sign exactly once there: narrow
    the root of -``check_foc`` to adjacent floats (where f' underflows to 0
    on the whole bracket, any bid in it).  Never calls the closed forms,
    which it certifies in tests; not for the hot path.
    """
    if s <= 0:
        return 0.0
    g = lambda b: -check_foc(s, b, model, lam)
    hi = s / (1.0 + lam)
    return _regula_falsi(g, 0.0, hi, g(0.0), g(hi))[0]


def expected_spend_per_request(
    utility_samples: np.ndarray, model: WinningFunctionModel, lam: float
) -> float:
    """Mean of b(s; lam) * W(b(s; lam)) over the utility samples."""
    bids = closed_form_bid(utility_samples, model, lam)
    return float(np.mean(bids * win_prob(model, bids)))


def solve_lambda(
    utility_samples: Sequence[float],
    model: WinningFunctionModel,
    budget: float,
) -> LambdaSolution:
    """Solve for the budget multiplier: mean expected spend over the N samples = B/N.

    Returns lambda = 0 when the budget constraint is slack at the
    unconstrained optimum.  Otherwise the spend rises with k = 1/(1+lambda)
    from 0 as k -> 0 to above the target at k = 1, so [0, 1] brackets the
    root: narrow k to adjacent floats by regula falsi on spend - target and
    return lambda = 1/lo - 1 for the largest k found whose spend is at most
    the target, with that spend and the number of spend evaluations it took.
    """
    if len(utility_samples) == 0:
        raise ValueError("utility_samples must be non-empty")
    target = budget / len(utility_samples)
    if not target > 0:
        raise ValueError(f"budget / len(utility_samples) must be positive, got {target!r}")
    samples = np.asarray(utility_samples, dtype=float)
    g0 = expected_spend_per_request(samples, model, 0.0)
    if g0 <= target:
        return LambdaSolution(0.0, g0, target, 0)
    spend = {}

    def excess(k):
        spend[k] = expected_spend_per_request(samples, model, 1.0 / k - 1.0)
        return spend[k] - target

    lo, _, evaluations = _regula_falsi(excess, 0.0, 1.0, -target, g0 - target)
    return LambdaSolution(1.0 / lo - 1.0, spend[lo], target, evaluations)
