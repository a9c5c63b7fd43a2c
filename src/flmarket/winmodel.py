"""Concave win-rate models and their calibration from auction history.

A consumer models its probability of winning an auction as a function of
its own bid.  Two one-parameter families are supported:

* ``simple``:  W(b) = b / (c + b)
* ``complex``: W(b) = b^2 / (c^2 + b^2)

Both satisfy W(0) = 0, W(c) = 0.5 and sup W = 1.  The constant ``c`` is
fitted by least squares to an empirical win-rate curve built from the
consumer's past bids and whether each one won, with ``_regula_falsi``, the
root finder that the lambda solve and the oracle in ``strategies`` share.
The curve is three equal-length arrays, ``(mid_bid, win_rate, count)``, one
entry per non-empty bid bucket.
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


NUM_BUCKETS = 20  # equal-width bid buckets of the empirical win curve


def empirical_win_curve(bids, won) -> tuple:
    """Bucket past bids and their outcomes into an empirical win-rate curve.

    ``bids`` and ``won`` are equal-length arrays, one entry per auction.
    NUM_BUCKETS equal-width bid buckets over [0, max bid]; empty ones omitted.
    Returns the ``(mid_bid, win_rate, count)`` arrays of the other buckets.
    """
    bids = np.asarray(bids, dtype=float)
    if len(bids) == 0:
        raise InsufficientDataError("no records to build a win curve from")
    hi = bids.max()
    if hi <= 0:
        raise InsufficientDataError("all historical bids are zero")
    edges = np.linspace(0.0, hi, NUM_BUCKETS + 1)
    # against the inner edges, b == hi falls into the last bucket
    idx = np.digitize(bids, edges[1:-1])
    count = np.bincount(idx, minlength=NUM_BUCKETS)
    won_count = np.bincount(idx, weights=won, minlength=NUM_BUCKETS)
    keep = count > 0
    mid_bid = 0.5 * (edges[:-1] + edges[1:])
    return mid_bid[keep], won_count[keep] / count[keep], count[keep]


C_MIN = 1e-4  # lower end of the bracket calibrate_c searches


def _regula_falsi(g, lo: float, hi: float, g_lo: float, g_hi: float) -> tuple:
    """Shrink [lo, hi], given g(lo) = ``g_lo`` <= 0 < ``g_hi`` = g(hi), to adjacent floats.

    Illinois regula falsi (Dowell & Jarratt 1971, BIT 11): step to the chord's
    zero, halving the value kept at an end that two steps in a row leave in
    place.  When the chord's zero rounds onto the end that just moved (g is 0
    there to rounding), step one float inward instead, then twice as far for
    each further such step, up to the midpoint.  Halve the bracket when the
    chord's zero is not strictly inside or the chord is undefined (g is 0 at
    both ends, as when it underflows).  After four steps in a row that have
    not halved the bracket, step to its geometric mean: a tiny target makes
    the chord creep up from ``lo`` by doublings.  Stops when no float lies
    strictly inside.  Where the computed g is monotone, ``lo`` is the largest
    float with g(lo) <= 0, where halving ends too.  Returns
    ``(lo, hi, evaluations)``.
    """
    evaluations, side, step, slow = 0, 0, 0.0, 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        chord = float(lo + (hi - lo) * (g_lo / (g_lo - g_hi))) if g_lo < g_hi else mid
        if side < 0 and chord <= lo or side > 0 and chord >= hi:
            step = 2 * step if step else float(np.spacing(lo if side < 0 else hi))
            x = min(lo + step, mid) if side < 0 else max(hi - step, mid)
        else:
            step = 0.0
            x = chord if slow < 4 else math.sqrt(lo) * math.sqrt(hi) if lo > 0 else mid
            x = x if lo < x < hi else mid
        gx = g(x)
        evaluations += 1
        if gx <= 0:
            slow = 0 if x >= mid else slow + 1
            lo, g_lo, g_hi, side = x, gx, g_hi * (0.5 if side < 0 else 1.0), -1
        else:
            slow = 0 if x <= mid else slow + 1
            hi, g_hi, g_lo, side = x, gx, g_lo * (0.5 if side > 0 else 1.0), 1
    return lo, hi, evaluations


def calibration_objective(curve: tuple, form: WinForm, c: float) -> float:
    """Count-weighted squared error between the model and the empirical curve."""
    mid_bid, win_rate, count = curve
    model = WinningFunctionModel(form, c)
    return float(np.sum(count * (win_prob(model, mid_bid) - win_rate) ** 2))


def calibration_slope(curve: tuple, form: WinForm, c: float) -> float:
    """d/dc of ``calibration_objective``: 2 sum count (W - rate) dW/dc, where dW/dc
    is -W/(c+b) for the simple form and -2cW/(c^2+b^2) for the complex one."""
    b, rate, count = curve
    w = win_prob(WinningFunctionModel(form, c), b)
    dw = -w / (c + b) if form is WinForm.SIMPLE else -2.0 * c * w / (c * c + b * b)
    return float(2.0 * np.sum(count * (w - rate) * dw))


def calibrate_c(curve: tuple, form: WinForm) -> tuple:
    """Fit the constant c by count-weighted least squares on the empirical curve.

    ``curve`` is the ``(mid_bid, win_rate, count)`` arrays of
    ``empirical_win_curve``.  Searches [C_MIN, 10 * max bucket bid] and
    returns ``(c, at_edge)``: the largest c where ``calibration_slope`` is
    <= 0, narrowed to adjacent floats, and False; or, where the slope does
    not change sign inside the bracket, the end it points to and True, as
    that c bounds the best fit rather than being it.
    """
    mid_bid, win_rate, _ = curve
    if len(mid_bid) < 2:
        raise InsufficientDataError("win curve needs at least 2 buckets")
    if np.all(win_rate == 0.0) or np.all(win_rate == 1.0):
        raise InsufficientDataError(
            "degenerate win curve (all rates 0 or 1); widen bid exploration"
        )
    slope = lambda c: calibration_slope(curve, form, c)
    lo, hi = C_MIN, 10.0 * float(np.max(mid_bid))
    if (g_lo := slope(lo)) > 0:
        return lo, True
    if (g_hi := slope(hi)) <= 0:
        return hi, True
    return _regula_falsi(slope, lo, hi, g_lo, g_hi)[0], False
