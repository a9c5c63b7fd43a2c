"""Data-owner pool, sealed-bid auctions and the sequential market loop.

A pool of data owners each triggers exactly one bid request.  Consumer
agents bid on requests in a seeded random order; the highest positive
bid wins and the winner pays its own bid (first-price).  Bids above an
agent's remaining budget are clamped to the remaining budget, so spend
never exceeds the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import estimator
from .strategies import (
    Strategy,
    StrategyParams,
    bid_bmub,
    bid_const,
    bid_lin,
    bid_rand,
    closed_form_bid,
)
from .winmodel import WinningFunctionModel


class ConfigurationError(ValueError):
    pass


class Quality(str, Enum):
    CLEAN = "clean"
    BLURRED = "blurred"


@dataclass(frozen=True)
class DataOwner:
    id: int
    num_samples: int
    quality: Quality
    local_seed: int


@dataclass(frozen=True)
class BidRequest:
    owner_id: int
    features: np.ndarray


@dataclass
class ConsumerAgent:
    """One data consumer: identity, budget state and decision parameters."""

    name: str
    strategy: Strategy
    budget: float
    remaining_budget: float = field(default=None)  # type: ignore[assignment]
    params: StrategyParams = field(default_factory=StrategyParams)
    theta: Optional[np.ndarray] = None
    win_model: Optional[WinningFunctionModel] = None
    lam: float = 0.0

    def __post_init__(self):
        if self.budget <= 0:
            raise ConfigurationError(f"budget must be positive for agent {self.name}")
        if self.lam < 0:
            raise ConfigurationError("lambda must be non-negative")
        if self.remaining_budget is None:
            self.remaining_budget = self.budget


@dataclass
class AuctionOutcome:
    request: BidRequest
    bids: dict
    winner: Optional[str]
    clearing_price: float


@dataclass
class MarketResult:
    outcomes: list
    agent_names: list
    wins: dict  # agent name -> list[AuctionOutcome]
    spend: dict  # agent name -> float
    samples: dict  # agent name -> int


@dataclass
class AgentMetrics:
    num_owners_won: int
    total_samples: int
    spend: float
    unit_price_per_1000: Optional[float]
    fl_accuracy: Optional[float] = None


@dataclass
class MetricsReport:
    per_agent: dict  # agent name -> AgentMetrics


def generate_do_pool(
    pool_size: int, sample_range: tuple, master_seed
) -> list[DataOwner]:
    """Create the owner pool: sizes uniform in sample_range, first half blurred."""
    lo, hi = sample_range
    if pool_size < 2:
        raise ConfigurationError(f"pool_size must be >= 2, got {pool_size}")
    if lo < 1 or hi < lo:
        raise ConfigurationError(f"invalid sample_range {sample_range}")
    rng = (
        master_seed
        if isinstance(master_seed, np.random.Generator)
        else np.random.default_rng(master_seed)
    )
    half = math.ceil(pool_size / 2)
    pool = []
    for i in range(1, pool_size + 1):
        n = int(rng.integers(lo, hi + 1))
        seed = int(rng.integers(0, 2**31 - 1))
        tier = Quality.BLURRED if i <= half else Quality.CLEAN
        pool.append(DataOwner(id=i, num_samples=n, quality=tier, local_seed=seed))
    return pool


def make_bid_request(owner: DataOwner, pool_size: int) -> BidRequest:
    """Features: [1.0 bias, id/P, num_samples/10000]."""
    q = np.array([1.0, owner.id / pool_size, owner.num_samples / 10000.0])
    return BidRequest(owner_id=owner.id, features=q)


def run_auction(
    request: BidRequest, bids: dict, tie_rng: np.random.Generator
) -> AuctionOutcome:
    """First-price sealed-bid auction; ties broken by a seeded uniform draw."""
    positive = {name: b for name, b in bids.items() if b > 0}
    if not positive:
        return AuctionOutcome(request, dict(bids), None, 0.0)
    best = max(positive.values())
    top = sorted(name for name, b in positive.items() if b == best)
    winner = top[0] if len(top) == 1 else top[int(tie_rng.integers(len(top)))]
    return AuctionOutcome(request, dict(bids), winner, best)


def compute_raw_bid(
    agent: ConsumerAgent, request: BidRequest, rng: np.random.Generator
) -> float:
    """The agent's bid before budget clamping."""
    st = agent.strategy
    if st is Strategy.CONST:
        return bid_const(agent.params)
    if st is Strategy.RAND:
        return bid_rand(agent.params, rng)
    s = estimator.predict(agent.theta, request.features)
    if st is Strategy.BMUB:
        return bid_bmub(s, rng)
    if st is Strategy.LIN:
        return bid_lin(s, agent.params)
    return closed_form_bid(s, agent.win_model, agent.lam)


def run_market(
    agents: Sequence[ConsumerAgent],
    pool: Sequence[DataOwner],
    rng: np.random.Generator,
) -> MarketResult:
    """Run one sealed-bid market over the full request stream.

    Strategy randomness is drawn for every agent at every request
    (regardless of budget state) so bid streams stay aligned across
    runs that differ only in one agent's budget.
    """
    if len(agents) == 0 or len(pool) == 0:
        raise ConfigurationError("need at least one agent and one owner")
    names = [a.name for a in agents]
    if len(set(names)) != len(names):
        raise ConfigurationError("agent names must be unique")
    order_rng, tie_rng, *agent_rngs = rng.spawn(2 + len(agents))
    owners = {o.id: o for o in pool}
    requests = [make_bid_request(o, len(pool)) for o in pool]
    order = order_rng.permutation(len(requests))

    wins = {n: [] for n in names}
    spend = {n: 0.0 for n in names}
    samples = {n: 0 for n in names}
    outcomes = []
    for k in order:
        request = requests[k]
        bids = {}
        for agent, arng in zip(agents, agent_rngs):
            raw = compute_raw_bid(agent, request, arng)
            if agent.remaining_budget <= 0:
                continue
            bids[agent.name] = min(raw, agent.remaining_budget)
        outcome = run_auction(request, bids, tie_rng)
        outcomes.append(outcome)
        if outcome.winner is not None:
            winner = next(a for a in agents if a.name == outcome.winner)
            winner.remaining_budget -= outcome.clearing_price
            wins[winner.name].append(outcome)
            spend[winner.name] += outcome.clearing_price
            samples[winner.name] += owners[request.owner_id].num_samples
    return MarketResult(outcomes, names, wins, spend, samples)


def compute_metrics(result: MarketResult) -> MetricsReport:
    per_agent = {}
    for name in result.agent_names:
        total = result.samples[name]
        sp = result.spend[name]
        up = sp / (total / 1000.0) if total > 0 else None
        per_agent[name] = AgentMetrics(
            num_owners_won=len(result.wins[name]),
            total_samples=total,
            spend=sp,
            unit_price_per_1000=up,
        )
    return MetricsReport(per_agent=per_agent)
