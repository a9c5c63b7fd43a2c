"""Run configuration: YAML schema, validation and defaults.

Schema (all keys optional except master_seed):

    master_seed: 7              # required
    pool_size: 100
    sample_range: [1000, 10000]
    budget: 50.0                # per agent, in nominal currency units
    budget_scale: 0.01          # nominal -> market currency rescale
    bootstrap_rounds: 20
    partition: iid              # iid | niid
    shards_per_owner: 2
    noise_rate_blurred: 0.4
    train_fl: true
    local_epochs: 100
    fl_lr: 0.05
    num_buckets: 20
    const_bid: 0.5
    rand_max: 1.0
    lin_coef: 0.5
    output_dir: out
    agents:                     # optional; defaults to the six-agent lineup
      - {name: fbs, strategy: fbs, form: simple}

Unknown keys, and values of the wrong type (a bool is not a number), are
rejected (with a closest-match suggestion for a key).  The estimator
fit takes no keys: it runs to the least-squares theta, and its clamp
floor on 1 + theta.q is estimator.CLAMP_EPS (1e-6).  Each
agent's bootstrap history is one structured array (q, bid, won, utility)
of bootstrap_rounds * pool_size rows.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import yaml

from . import fltrain
from .market import ConfigurationError
from .strategies import NEEDS_THETA, Strategy, StrategyParams
from .winmodel import WinForm


@dataclass
class AgentSpec:
    name: str
    strategy: Strategy
    form: Optional[WinForm] = None
    budget: Optional[float] = None  # nominal; falls back to the run budget


@dataclass
class RunConfig:
    master_seed: int
    pool_size: int = 100
    sample_range: tuple = (1000, 10000)
    budget: float = 50.0
    budget_scale: float = 0.01
    bootstrap_rounds: int = 20
    partition: str = "iid"
    shards_per_owner: int = 2
    noise_rate_blurred: float = 0.4
    train_fl: bool = True
    local_epochs: int = 100
    fl_lr: float = 0.05
    num_buckets: int = 20
    const_bid: float = 0.5
    rand_max: float = 1.0
    lin_coef: float = 0.5
    output_dir: str = "out"
    agents: list = field(default_factory=list)

    def __post_init__(self):
        if not self.agents:
            self.agents = default_agent_lineup()

    def scaled_budget(self, spec: AgentSpec) -> float:
        nominal = spec.budget if spec.budget is not None else self.budget
        return nominal * self.budget_scale

    def strategy_params(self) -> StrategyParams:
        return StrategyParams(self.const_bid, self.rand_max, self.lin_coef)


def default_agent_lineup() -> list:
    """One agent per strategy; the closed-form pair uses its matching model."""
    return [
        AgentSpec("const", Strategy.CONST),
        AgentSpec("rand", Strategy.RAND),
        AgentSpec("bmub", Strategy.BMUB),
        AgentSpec("lin", Strategy.LIN),
        AgentSpec("fbs", Strategy.FBS, form=WinForm.SIMPLE),
        AgentSpec("fbc", Strategy.FBC, form=WinForm.COMPLEX),
    ]


_AGENT_KEYS = {"name", "strategy", "form", "budget"}


def _parse_agent(raw, index: int) -> AgentSpec:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"agents[{index}] must be a mapping")
    unknown = set(raw) - _AGENT_KEYS
    if unknown:
        raise ConfigurationError(
            f"agents[{index}]: unknown key(s) {sorted(unknown)}"
        )
    try:
        strategy = Strategy(str(raw["strategy"]).lower())
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"agents[{index}]: 'strategy' must be one of "
            f"{[s.value for s in Strategy]}"
        )
    form = raw.get("form")
    if form is not None:
        form = WinForm(str(form).lower())
    elif strategy is Strategy.FBS:
        form = WinForm.SIMPLE
    elif strategy is Strategy.FBC:
        form = WinForm.COMPLEX
    budget = raw.get("budget")
    if budget is not None and not (_has_type(budget, "float") and budget > 0):
        raise ConfigurationError(f"agents[{index}]: budget must be a positive number")
    name = str(raw.get("name", strategy.value))
    return AgentSpec(name, strategy, form, None if budget is None else float(budget))


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.pool_size < 2:
        raise ConfigurationError("pool_size must be >= 2")
    lo, hi = cfg.sample_range
    if lo < 1 or hi < lo:
        raise ConfigurationError("sample_range must satisfy 1 <= min <= max")
    for key in ("budget", "budget_scale"):
        if not getattr(cfg, key) > 0:
            raise ConfigurationError(f"{key} must be positive")
    for spec in cfg.agents:
        if not cfg.scaled_budget(spec) / cfg.pool_size > 0:
            raise ConfigurationError(f"agent {spec.name}: budget per request rounds to 0")
    for key in ("bootstrap_rounds", "local_epochs"):
        if getattr(cfg, key) < 0:
            raise ConfigurationError(f"{key} must be non-negative")
    if not cfg.fl_lr > 0:
        raise ConfigurationError("fl_lr must be positive")
    if not 0.0 <= cfg.noise_rate_blurred <= 1.0:
        raise ConfigurationError("noise_rate_blurred must be in [0, 1]")
    fltrain.partition_mode(cfg.partition, cfg.shards_per_owner)
    if cfg.num_buckets < 2:
        raise ConfigurationError("num_buckets must be >= 2")
    try:
        cfg.strategy_params()
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    names = [a.name for a in cfg.agents]
    if len(set(names)) != len(names):
        raise ConfigurationError("agent names must be unique")
    for spec in cfg.agents:
        if spec.strategy in (Strategy.FBS, Strategy.FBC) and spec.form is None:
            raise ConfigurationError(f"agent {spec.name}: closed-form agents need a 'form'")
    needy = [a.name for a in cfg.agents if a.strategy in NEEDS_THETA]
    if cfg.bootstrap_rounds == 0 and needy:
        raise ConfigurationError(f"bootstrap_rounds is 0 but {', '.join(needy)} need history")
    return cfg


# the Python types a YAML value of each scalar annotation may have, and their name
_SCALARS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
            "bool": (bool, "true or false"), "str": (str, "a string")}


def _has_type(value, annotation: str) -> bool:
    """Whether a YAML value fits a field annotation; a bool is not a number."""
    kinds = _SCALARS.get(annotation, (object,))[0]
    return isinstance(value, kinds) and (annotation == "bool" or not isinstance(value, bool))


def config_from_mapping(raw: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    for key in raw:
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigurationError(f"unknown config key {key!r}{suffix}")
    if "master_seed" not in raw:
        raise ConfigurationError("missing required key 'master_seed'")
    for f in fields(RunConfig):
        if f.name in raw and not _has_type(raw[f.name], f.type):
            raise ConfigurationError(f"{f.name} must be {_SCALARS[f.type][1]}, got {raw[f.name]!r}")
    kwargs = dict(raw)
    if "sample_range" in kwargs:
        sr = kwargs["sample_range"]
        if not (isinstance(sr, (list, tuple)) and len(sr) == 2
                and all(_has_type(v, "int") for v in sr)):
            raise ConfigurationError("sample_range must be a [min, max] pair of integers")
        kwargs["sample_range"] = tuple(sr)
    if "agents" in kwargs:
        agents = kwargs["agents"]
        if not isinstance(agents, list):
            raise ConfigurationError("agents must be a list")
        kwargs["agents"] = [_parse_agent(a, i) for i, a in enumerate(agents)]
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc))
    return _validate(cfg)


def parse_config(path) -> RunConfig:
    """Load and validate a YAML run configuration."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return config_from_mapping(raw)


def echo_config(cfg: RunConfig) -> dict:
    """Effective configuration with all defaults applied, as plain data."""
    out = {}
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if f.name == "agents":
            v = [
                {
                    "name": a.name,
                    "strategy": a.strategy.value,
                    "form": a.form.value if a.form else None,
                    "budget": a.budget,
                }
                for a in v
            ]
        elif f.name == "sample_range":
            v = list(v)
        out[f.name] = v
    return out
