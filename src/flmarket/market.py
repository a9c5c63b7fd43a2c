"""Data-owner pool, sealed-bid auctions and the sequential market loop.

A pool of data owners each triggers exactly one bid request.  Consumer
agents bid on requests in a seeded random order; the highest positive
bid wins and the winner pays its own bid (first-price).  Bids above an
agent's remaining budget are clamped to the remaining budget, so spend
never exceeds the budget.

Raw bids never depend on budget state, so the market computes them as
one column per agent up front and then clears the rows one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import estimator
from .strategies import (
    Strategy,
    bid_bmub,
    bid_const,
    bid_lin,
    bid_rand,
    closed_form_bid,
)
from .winmodel import WinningFunctionModel


# One row per data owner; ``blurred`` marks the low-quality owners.
POOL_DTYPE = np.dtype([("id", np.int64), ("num_samples", np.int64),
                       ("blurred", bool), ("local_seed", np.int64)])


@dataclass
class ConsumerAgent:
    """One data consumer: a plain record of the config's values and the values
    solve_lambda returns.  No field is checked here; the baselines bid the
    module constants of ``strategies``."""

    name: str
    strategy: Strategy
    budget: float
    theta: Optional[np.ndarray] = None
    win_model: Optional[WinningFunctionModel] = None
    lam: float = 0.0


def outcome_dtype(num_agents: int) -> np.dtype:
    """One row per auction; ``bids`` is NaN for an agent with no budget left and
    ``winner`` is the winning agent's index, or -1 when the owner went unsold."""
    return np.dtype([("owner_id", np.int64), ("num_samples", np.int64),
                     ("bids", float, (num_agents,)), ("winner", np.int64), ("price", float)])


@dataclass
class MarketResult:
    agent_names: list
    outcomes: np.ndarray  # outcome_dtype rows in auction order


@dataclass
class AgentMetrics:
    num_owners_won: int
    total_samples: int
    spend: float
    unit_price_per_1000: Optional[float]


def generate_do_pool(pool_size: int, sample_range: tuple, rng: np.random.Generator) -> np.ndarray:
    """The owner pool as ``POOL_DTYPE`` rows with ids 1..pool_size in row order.

    Sizes are uniform in sample_range and the first half is blurred.  One bounded
    draw takes each owner's size and then its seed, in row order, as scalar calls
    would.  The config checks pool_size >= 2 and 1 <= min <= max <= 2**63 - 1.
    """
    lo, hi = sample_range
    pool = np.zeros(pool_size, POOL_DTYPE)
    pool["id"] = np.arange(1, pool_size + 1)
    pool["blurred"][: math.ceil(pool_size / 2)] = True
    pool["num_samples"], pool["local_seed"] = rng.integers([lo, 0], [hi + 1, 2**31 - 1], size=(pool_size, 2)).T
    return pool


def request_features(owner_id, num_samples, pool_size: int) -> np.ndarray:
    """One row per request: [1.0 bias, id/P, num_samples/10000]."""
    owner_id = np.asarray(owner_id)
    return np.column_stack(
        [np.ones(len(owner_id)), owner_id / pool_size, np.asarray(num_samples) / 10000.0]
    )


def _raw_bids(agent: ConsumerAgent, Q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The agent's bid on every request (rows of ``Q``) before budget clamping."""
    st = agent.strategy
    if st is Strategy.CONST:
        return bid_const(len(Q))
    if st is Strategy.RAND:
        return bid_rand(rng, len(Q))
    s = estimator.predict(agent.theta, Q)
    if st is Strategy.BMUB:
        return bid_bmub(s, rng)
    if st is Strategy.LIN:
        return bid_lin(s)
    return closed_form_bid(s, agent.win_model, agent.lam)


def _clear(raw: np.ndarray, budgets: Sequence[float], names: Sequence[str],
           tie_rng: np.random.Generator):
    """Clear the rows of ``raw`` in auction order: (clamped bids, winner, price) per row.

    Each row clamps its bids to the budgets left, NaN where a budget is spent.  The top
    positive bid wins: the first in name order, or among k tied bids the one
    ``tie_rng.integers(k)`` draws.  The winner pays its bid before the next row clears.
    """
    by_name = sorted(range(len(names)), key=names.__getitem__)
    left = [float(b) for b in budgets]
    bids, winner, price = [], [], []
    for row in raw.tolist():
        # this operand order keeps a NaN bid NaN, as np.minimum did
        live = [(x if x < b else b) if x > 0 else math.nan for b, x in zip(row, left)]
        best = max([v for v in live if v > 0], default=0.0)
        j = -1
        if best > 0:
            top = [i for i in by_name if live[i] == best]
            j = top[0] if len(top) == 1 else top[tie_rng.integers(len(top))]
            left[j] -= best
        bids.append(live)
        winner.append(j)
        price.append(best)
    return np.array(bids, float).reshape(raw.shape), np.array(winner, np.int64), np.array(price, float)


def run_market(
    agents: Sequence[ConsumerAgent],
    pool: np.ndarray,
    rng: np.random.Generator,
) -> MarketResult:
    """Run one sealed-bid market over the full request stream.

    Strategy randomness is drawn for every agent at every request
    (regardless of budget state) so bid streams stay aligned across
    runs that differ only in one agent's budget.  ``_clear`` then clears
    the rows one at a time, in time linear in the rows.  The agents are
    not modified: the remaining budgets live in ``_clear``.
    Agent names should be unique, as the config checks; the result is keyed by them.
    """
    names = [a.name for a in agents]
    order_rng, tie_rng, *agent_rngs = rng.spawn(2 + len(agents))
    order = order_rng.permutation(len(pool))

    out = np.zeros(len(pool), outcome_dtype(len(agents)))
    out["owner_id"] = pool["id"][order]
    out["num_samples"] = pool["num_samples"][order]
    Q = request_features(out["owner_id"], out["num_samples"], len(pool))
    raw = np.column_stack([_raw_bids(a, Q, r) for a, r in zip(agents, agent_rngs)])

    out["bids"], out["winner"], out["price"] = _clear(raw, [a.budget for a in agents], names, tie_rng)
    return MarketResult(names, out)


def random_bid_history(names: Sequence[str], pool: np.ndarray, rng: np.random.Generator, rounds: int):
    """The outcome rows of ``rounds`` markets of ``rand`` agents with unlimited budgets.

    ``rng`` draws every round's owner order, then every round's bids.  No budget binds, so
    each row goes to its first top positive bid in name order, or unsold at price 0.
    """
    n = len(pool)
    out = np.zeros(rounds * n, outcome_dtype(len(names)))
    order = rng.permuted(np.tile(np.arange(n), (rounds, 1)), axis=1).ravel()
    out["owner_id"], out["num_samples"] = pool["id"][order], pool["num_samples"][order]
    for rows in out.reshape(rounds, n):  # the bits of one block draw, without its copy
        rows["bids"] = bid_rand(rng, n * len(names)).reshape(n, -1)
    bids, best = out["bids"], out["price"]
    for column in bids.T:  # the top positive bid, or 0: max is exact in any order
        np.maximum(best, column, out=best)
    won = np.full(len(out), -1)
    # each row's top bids in reverse name order, so that the first in name order is set last
    for j in sorted(range(len(names)), key=names.__getitem__, reverse=True):
        won[bids[:, j] == best] = j
    won[best == 0] = -1
    out["winner"] = won
    return out


def compute_metrics(result: MarketResult) -> dict:
    """Agent name -> AgentMetrics: wins, samples and spend; spend adds prices in auction order."""
    sold = result.outcomes[result.outcomes["winner"] >= 0]
    n = len(result.agent_names)
    wins = np.bincount(sold["winner"], minlength=n)
    samples = np.bincount(sold["winner"], weights=sold["num_samples"], minlength=n)
    spend = np.bincount(sold["winner"], weights=sold["price"], minlength=n)
    per_agent = {}
    for j, name in enumerate(result.agent_names):
        total, sp = int(samples[j]), float(spend[j])
        unit_price = sp / (total / 1000.0) if total > 0 else None
        per_agent[name] = AgentMetrics(int(wins[j]), total, sp, unit_price)
    return per_agent
