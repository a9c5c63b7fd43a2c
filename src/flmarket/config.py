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
    output_dir: out
    agents:                     # optional; defaults to the six-agent lineup
      - {name: fbs, strategy: fbs, budget: 80}

An agent's strategy fixes its win model: fbs bids for W(b) = b/(c+b)
and fbc for W(b) = b^2/(c^2+b^2), so an agent takes no 'form' key.
``_check_fields`` rejects unknown keys (with a closest-match hint) and
values of the wrong type (a bool is not a number) for the run and each
agent alike, and ``_validate`` checks the values; the library takes what
they passed as given.  The estimator fit takes no keys: it runs to the
least-squares theta, and its clamp floor on 1 + theta.q is
estimator.CLAMP_EPS (1e-6).  The bootstrap history is one structured
array that all agents share: the bootstrap markets' outcome rows,
bootstrap_rounds * pool_size of them.

The config describes the experiment; the model's constants take no key
and are module constants: the baselines' CONST_BID, RAND_MAX and
LIN_COEF in strategies, the fit's cap of estimator.MAX_SOLVES solves,
the winmodel.NUM_BUCKETS bid buckets of the win curve and the FedAvg
step size fltrain.LR.
"""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import yaml

from . import fltrain
from .strategies import NEEDS_THETA, Strategy


class ConfigurationError(ValueError):
    """A configuration that cannot be run."""


@dataclass
class AgentSpec:
    name: str
    strategy: Strategy
    budget: Optional[float] = None  # nominal; falls back to the run budget


def default_agent_lineup() -> list:
    """One agent per strategy, named after it."""
    return [AgentSpec(s.value, s) for s in Strategy]


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
    output_dir: str = "out"
    agents: list = field(default_factory=default_agent_lineup)

    def scaled_budget(self, spec: AgentSpec) -> float:
        nominal = spec.budget if spec.budget is not None else self.budget
        return nominal * self.budget_scale


def _parse_agent(raw, index: int) -> AgentSpec:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"agents[{index}] must be a mapping")
    _check_fields(AgentSpec, raw, f"agents[{index}]: ")
    try:
        strategy = Strategy(str(raw["strategy"]).lower())
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"agents[{index}]: 'strategy' must be one of "
            f"{[s.value for s in Strategy]}"
        )
    return AgentSpec(**{"name": strategy.value, **raw, "strategy": strategy})


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.master_seed < 0:
        raise ConfigurationError("master_seed must be non-negative")
    if cfg.pool_size < 2:
        raise ConfigurationError("pool_size must be >= 2")
    lo, hi = cfg.sample_range
    if not 1 <= lo <= hi <= 2**63 - 1:  # the pool draws sizes as int64
        raise ConfigurationError("sample_range must satisfy 1 <= min <= max <= 2**63 - 1")
    for key in ("budget", "budget_scale"):
        if not getattr(cfg, key) > 0:  # written so that NaN fails too
            raise ConfigurationError(f"{key} must be positive")
    for spec in cfg.agents:
        try:  # YAML integers can be too large for a float, alone or multiplied
            if not float(cfg.scaled_budget(spec)) / cfg.pool_size > 0:
                raise ConfigurationError(f"agent {spec.name}: budget per request must be positive")
        except OverflowError:
            raise ConfigurationError(f"agent {spec.name}: scaled budget is too large for a float") from None
    for key in ("bootstrap_rounds", "local_epochs"):
        if getattr(cfg, key) < 0:
            raise ConfigurationError(f"{key} must be non-negative")
    if not 0.0 <= cfg.noise_rate_blurred <= 1.0:
        raise ConfigurationError("noise_rate_blurred must be in [0, 1]")
    if cfg.partition not in ("iid", "niid"):
        raise ConfigurationError(f"unknown partition mode {cfg.partition!r}")
    shards, most = cfg.shards_per_owner, fltrain.NUM_CLASSES
    if cfg.partition == "niid" and not 1 <= shards <= most:
        raise ConfigurationError(f"shards_per_owner must be in [1, {most}], got {shards}")
    names = [a.name for a in cfg.agents]
    if not names:
        raise ConfigurationError("need at least one agent")
    if len(set(names)) != len(names):
        raise ConfigurationError("agent names must be unique")
    needy = [a.name for a in cfg.agents if a.strategy in NEEDS_THETA]
    if cfg.bootstrap_rounds == 0 and needy:
        raise ConfigurationError(f"bootstrap_rounds is 0 but {', '.join(needy)} need history")
    return cfg


# the Python types a YAML value of each field annotation may have, and their name;
# the other fields (sample_range, strategy) are checked where they are converted
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "Optional[float]": ((int, float, type(None)), "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string"), "list": (list, "a list")}


def _has_type(value, annotation: str) -> bool:
    """Whether a YAML value fits a field annotation in _TYPES; a bool is not a number."""
    kinds = _TYPES[annotation][0]
    return isinstance(value, kinds) and (annotation == "bool" or not isinstance(value, bool))


def _check_fields(cls, raw: dict, where: str) -> None:
    """Reject a key that is no field of ``cls``, and a value that does not fit its field."""
    known = [f.name for f in fields(cls)]
    for key in raw:
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigurationError(f"{where}unknown config key {key!r}{suffix}")
    for f in fields(cls):
        if f.name in raw and f.type in _TYPES and not _has_type(raw[f.name], f.type):
            raise ConfigurationError(f"{where}{f.name} must be {_TYPES[f.type][1]}, got {raw[f.name]!r}")


def config_from_mapping(raw: dict) -> RunConfig:
    _check_fields(RunConfig, raw, "")
    if "master_seed" not in raw:
        raise ConfigurationError("missing required key 'master_seed'")
    kwargs = dict(raw)
    if "sample_range" in kwargs:
        sr = kwargs["sample_range"]
        if not (isinstance(sr, (list, tuple)) and len(sr) == 2
                and all(_has_type(v, "int") for v in sr)):
            raise ConfigurationError("sample_range must be a [min, max] pair of integers")
        kwargs["sample_range"] = tuple(sr)
    if "agents" in kwargs:
        kwargs["agents"] = [_parse_agent(a, i) for i, a in enumerate(kwargs["agents"])]
    return _validate(RunConfig(**kwargs))


def parse_config(path, master_seed=None, output_dir=None) -> RunConfig:
    """Load and validate a YAML run configuration.

    A ``master_seed`` or ``output_dir`` that is not None replaces the
    file's value before validation, so it is checked like one.
    """
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    overrides = {"master_seed": master_seed, "output_dir": output_dir}
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    return config_from_mapping(raw)


def echo_config(cfg: RunConfig) -> dict:
    """Effective configuration with all defaults applied, as plain data."""
    out = asdict(cfg)
    out["sample_range"] = list(cfg.sample_range)
    for agent in out["agents"]:
        agent["strategy"] = agent["strategy"].value
    return out
