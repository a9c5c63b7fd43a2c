"""Concave win-rate models and their calibration from auction history.

A consumer models its probability of winning an auction as a function of
its own bid.  Two one-parameter families are supported:

* ``simple``:  W(b) = b / (c + b)
* ``complex``: W(b) = b^2 / (c^2 + b^2)

Both satisfy W(0) = 0, W(c) = 0.5 and sup W = 1.  The constant ``c`` is
calibrated against an empirical win-rate curve built from the consumer's
past bids and whether each one won.  The curve is three equal-length
arrays, ``(mid_bid, win_rate, count)``, one entry per non-empty bid bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class InsufficientDataError(ValueError):
    """Raised when history is too small or degenerate for calibration."""


class WinForm(str, Enum):
    SIMPLE = "simple"
    COMPLEX = "complex"


@dataclass(frozen=True)
class WinningFunctionModel:
    form: WinForm
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"winning-function constant must be positive, got {self.c}")


def win_prob(model: WinningFunctionModel, b):
    """Win probability at bid ``b`` (scalar or array). Requires b >= 0."""
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise ValueError("bid must be non-negative")
    if model.form is WinForm.SIMPLE:
        w = b / (model.c + b)
    else:
        b2 = b * b
        w = b2 / (model.c * model.c + b2)
    return float(w) if w.ndim == 0 else w


def win_prob_derivative(model: WinningFunctionModel, b):
    """dW/db at bid ``b`` (scalar or array). Requires b >= 0."""
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise ValueError("bid must be non-negative")
    c = model.c
    if model.form is WinForm.SIMPLE:
        d = c / (c + b) ** 2
    else:
        d = 2.0 * b * c * c / (c * c + b * b) ** 2
    return float(d) if d.ndim == 0 else d


def empirical_win_curve(bids, won, num_buckets: int = 20) -> tuple:
    """Bucket past bids and their outcomes into an empirical win-rate curve.

    ``bids`` and ``won`` are equal-length arrays, one entry per auction.
    ``num_buckets`` >= 2 equal-width bid buckets over [0, max bid]; empty ones omitted.
    Returns the ``(mid_bid, win_rate, count)`` arrays of the other buckets.
    """
    bids = np.asarray(bids, dtype=float)
    if len(bids) == 0:
        raise InsufficientDataError("no records to build a win curve from")
    hi = bids.max()
    if hi <= 0:
        raise InsufficientDataError("all historical bids are zero")
    edges = np.linspace(0.0, hi, num_buckets + 1)
    # against the inner edges, b == hi falls into the last bucket
    idx = np.digitize(bids, edges[1:-1])
    count = np.bincount(idx, minlength=num_buckets)
    won_count = np.bincount(idx, weights=won, minlength=num_buckets)
    keep = count > 0
    mid_bid = 0.5 * (edges[:-1] + edges[1:])
    return mid_bid[keep], won_count[keep] / count[keep], count[keep]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
C_MIN = 1e-4  # lower end of the bracket calibrate_c searches
C_TOL = 1e-6  # bracket width at which its golden-section search stops


def _golden_section(f, lo: float, hi: float, tol: float = C_TOL) -> float:
    """Minimize a unimodal f on [lo, hi]; returns the midpoint of the final bracket."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def calibration_objective(curve: tuple, form: WinForm, c: float) -> float:
    """Count-weighted squared error between the model and the empirical curve."""
    mid_bid, win_rate, count = curve
    model = WinningFunctionModel(form, c)
    return float(np.sum(count * (win_prob(model, mid_bid) - win_rate) ** 2))


def c_bracket(curve: tuple) -> tuple:
    """The interval calibrate_c searches for c: [C_MIN, 10 * max bucket bid]."""
    return C_MIN, 10.0 * float(np.max(curve[0]))


def at_bracket_edge(curve: tuple, c: float) -> bool:
    """Whether c lies within C_TOL of an end of ``c_bracket(curve)``.

    There the objective's minimum may lie outside the bracket, so c is a
    bound on the best fit rather than the fit itself.
    """
    lo, hi = c_bracket(curve)
    return min(c - lo, hi - c) <= C_TOL


def calibrate_c(curve: tuple, form: WinForm) -> float:
    """Fit the constant c by count-weighted least squares on the empirical curve.

    ``curve`` is the ``(mid_bid, win_rate, count)`` arrays of
    ``empirical_win_curve``.  Golden-section search on c in
    ``c_bracket(curve)``.
    """
    mid_bid, win_rate, _ = curve
    if len(mid_bid) < 2:
        raise InsufficientDataError("win curve needs at least 2 buckets")
    if np.all(win_rate == 0.0) or np.all(win_rate == 1.0):
        raise InsufficientDataError(
            "degenerate win curve (all rates 0 or 1); widen bid exploration"
        )
    return _golden_section(lambda c: calibration_objective(curve, form, c), *c_bracket(curve))
