"""Competitive auction market simulator and bidding library for
federated learning data acquisition."""

from .config import AgentSpec, RunConfig, parse_config
from .estimator import EstimatorParams, predict, true_utility
from .experiment import RunArtifacts, bootstrap_history, run_experiment
from .market import (
    ConsumerAgent,
    DataOwner,
    MarketResult,
    Quality,
    compute_metrics,
    generate_do_pool,
    run_market,
)
from .strategies import (
    LambdaSolution,
    Strategy,
    StrategyParams,
    bid_fbc,
    bid_fbs,
    check_foc,
    oracle_optimal_bid,
    solve_lambda,
)
from .winmodel import (
    WinForm,
    WinningFunctionModel,
    calibrate_c,
    empirical_win_curve,
    win_prob,
    win_prob_derivative,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
