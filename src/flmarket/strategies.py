"""Bidding strategies, the budget Lagrange-multiplier solver and the
brute-force optimal-bid oracle.

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
from typing import Optional, Sequence

import numpy as np

from .winmodel import WinForm, WinningFunctionModel, win_prob, win_prob_derivative


class Strategy(str, Enum):
    CONST = "const"
    RAND = "rand"
    BMUB = "bmub"
    LIN = "lin"
    FBS = "fbs"
    FBC = "fbc"


NEEDS_THETA = (Strategy.BMUB, Strategy.LIN, Strategy.FBS, Strategy.FBC)  # bid from s(q)


@dataclass
class StrategyParams:
    const_bid: float = 0.5
    rand_max: float = 1.0
    lin_coef: float = 0.5

    def __post_init__(self):
        bad = [f"{k}={v}" for k, v in vars(self).items() if v <= 0]
        if bad:
            raise ValueError(f"strategy constants must be positive: {', '.join(bad)}")


@dataclass
class LambdaSolution:
    lam: float
    expected_spend_per_request: float
    target: float
    iterations: int
    note: Optional[str] = None


# The baselines bid on a column of requests: one draw per request from the
# agent's stream, in request order; bmub draws nothing where s <= 0.


def bid_const(params: StrategyParams, n: int) -> np.ndarray:
    return np.full(n, float(params.const_bid))


def bid_rand(params: StrategyParams, rng: np.random.Generator, n: int) -> np.ndarray:
    # uniform on (0, rand_max]
    return params.rand_max - rng.uniform(0.0, params.rand_max, n)


def bid_bmub(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    b = np.zeros_like(s)
    pos = s > 0
    b[pos] = s[pos] - rng.uniform(0.0, s[pos])
    return b


def bid_lin(s: np.ndarray, params: StrategyParams) -> np.ndarray:
    return params.lin_coef * np.maximum(s, 0.0)


def _check_closed_form_args(s: np.ndarray, c, lam):
    if np.any(s < 0) or c <= 0 or lam < 0:
        raise ValueError(f"invalid bid arguments s={s}, c={c}, lambda={lam}")


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


def surplus(s: float, b, model: WinningFunctionModel, lam: float):
    """Per-request objective f(b) = (s - (1+lam) b) W(b)."""
    return (s - (1.0 + lam) * np.asarray(b, dtype=float)) * win_prob(model, b)


def check_foc(s: float, b: float, model: WinningFunctionModel, lam: float) -> float:
    """First-order-condition residual f'(b); near zero at the optimal bid.

    Returns (s - (lam+1) b) W'(b) - (lam+1) W(b).  Negative for
    overbidding (b above the optimum), positive below it.
    """
    return (s - (lam + 1.0) * b) * win_prob_derivative(model, b) - (
        lam + 1.0
    ) * win_prob(model, b)


def oracle_optimal_bid(
    s: float,
    model: WinningFunctionModel,
    lam: float,
    grid_points: int = 1_000_000,
    bisect_steps: int = 50,
) -> float:
    """Reference maximizer of the per-request surplus by dense grid search.

    Scans b in [0, s] (the optimum never exceeds s for lam >= 0, where
    f(b) < 0), then refines by bisection on f' around the best grid
    point.  Certifies the closed forms in tests; not for the hot path.
    """
    if s <= 0:
        return 0.0
    grid = np.linspace(0.0, s, grid_points)
    f = surplus(s, grid, model, lam)
    i = int(np.argmax(f))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]
    if check_foc(s, lo, model, lam) > 0 > check_foc(s, hi, model, lam):
        for _ in range(bisect_steps):
            mid = 0.5 * (lo + hi)
            if check_foc(s, mid, model, lam) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return float(grid[i])


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
    num_requests: int,
    rel_tol: float = 0.01,
    max_iterations: int = 200,
) -> LambdaSolution:
    """Solve for the budget multiplier by bisection on expected spend.

    Finds lambda >= 0 such that the expected spend per request matches
    the per-request budget B/N, or returns lambda = 0 when the budget
    constraint is slack at the unconstrained optimum.  ``note`` says why
    the solve stopped short: when doubling the bracket reached the 1e12
    cap, or when the bisection ran out of ``max_iterations`` with the
    spend outside ``rel_tol`` of the target.
    """
    if len(utility_samples) == 0:
        raise ValueError("utility_samples must be non-empty")
    if budget <= 0 or num_requests < 1:
        raise ValueError("budget must be positive and num_requests >= 1")
    samples = np.asarray(utility_samples, dtype=float)
    target = budget / num_requests
    if np.all(samples <= 0):
        return LambdaSolution(0.0, 0.0, target, 0, note="all utility samples are zero")
    g0 = expected_spend_per_request(samples, model, 0.0)
    if g0 <= target:
        return LambdaSolution(0.0, g0, target, 0)
    notes = []
    hi = 1.0
    iters = 0
    while expected_spend_per_request(samples, model, hi) >= target:
        hi *= 2.0
        iters += 1
        if hi > 1e12:
            notes.append(f"bracket capped at lambda={hi!r}: spend still at or above target")
            break
    lo = 0.0
    lam = hi
    g = expected_spend_per_request(samples, model, lam)
    while iters < max_iterations:
        lam = 0.5 * (lo + hi)
        g = expected_spend_per_request(samples, model, lam)
        iters += 1
        if abs(g - target) <= rel_tol * target:
            break
        if g > target:
            lo = lam
        else:
            hi = lam
    if abs(g - target) > rel_tol * target:
        notes.append(
            f"bisection stopped at max_iterations={max_iterations} with spend {g!r}, "
            f"target {target!r}"
        )
    return LambdaSolution(lam, g, target, iters, note="; ".join(notes) or None)
