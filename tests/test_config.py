import pytest
import yaml

from flmarket.cli import main
from flmarket.config import (
    AgentSpec,
    RunConfig,
    config_from_mapping,
    default_agent_lineup,
    echo_config,
    parse_config,
)
from flmarket.market import ConfigurationError
from flmarket.strategies import Strategy
from flmarket.winmodel import WinForm


def write_config(tmp_path, mapping):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(mapping))
    return path


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"master_seed": 7}))
    assert cfg.master_seed == 7
    assert cfg.pool_size == 100
    assert cfg.sample_range == (1000, 10000)
    assert cfg.budget == 50.0
    assert cfg.budget_scale == 0.01
    assert cfg.bootstrap_rounds == 20
    assert len(cfg.agents) == 6
    assert [a.strategy for a in cfg.agents] == [
        Strategy.CONST, Strategy.RAND, Strategy.BMUB,
        Strategy.LIN, Strategy.FBS, Strategy.FBC,
    ]


def test_missing_master_seed(tmp_path):
    with pytest.raises(ConfigurationError, match="master_seed"):
        parse_config(write_config(tmp_path, {"pool_size": 10}))


def test_negative_budget_names_key(tmp_path):
    with pytest.raises(ConfigurationError, match="budget"):
        parse_config(write_config(tmp_path, {"master_seed": 1, "budget": -1}))


def test_unknown_key_suggestion(tmp_path):
    with pytest.raises(ConfigurationError, match="budget"):
        parse_config(write_config(tmp_path, {"master_seed": 1, "budgt": 10}))


def test_bad_sample_range():
    with pytest.raises(ConfigurationError, match="sample_range"):
        config_from_mapping({"master_seed": 1, "sample_range": [10, 5]})


def test_bad_partition():
    with pytest.raises(ConfigurationError, match="partition"):
        config_from_mapping({"master_seed": 1, "partition": "sharded"})


def test_non_mapping_top_level(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigurationError):
        parse_config(path)


def test_agent_parsing():
    cfg = config_from_mapping(
        {
            "master_seed": 1,
            "agents": [
                {"name": "x", "strategy": "const"},
                {"name": "y", "strategy": "fbs"},
                {"name": "z", "strategy": "fbc", "form": "simple", "budget": 80},
            ],
        }
    )
    assert cfg.agents[1].form is WinForm.SIMPLE
    assert cfg.agents[2].form is WinForm.SIMPLE
    assert cfg.scaled_budget(cfg.agents[2]) == pytest.approx(0.8)
    assert cfg.scaled_budget(cfg.agents[0]) == pytest.approx(0.5)


def test_agent_unknown_key():
    with pytest.raises(ConfigurationError, match="agents\\[0\\]"):
        config_from_mapping(
            {"master_seed": 1, "agents": [{"name": "x", "strategy": "const", "budgt": 2}]}
        )


def test_duplicate_agent_names():
    with pytest.raises(ConfigurationError, match="unique"):
        config_from_mapping(
            {
                "master_seed": 1,
                "agents": [
                    {"name": "x", "strategy": "const"},
                    {"name": "x", "strategy": "rand"},
                ],
            }
        )


def test_bad_strategy_name():
    with pytest.raises(ConfigurationError, match="strategy"):
        config_from_mapping({"master_seed": 1, "agents": [{"name": "x", "strategy": "fancy"}]})


def test_echo_roundtrips_defaults():
    cfg = RunConfig(master_seed=3)
    echoed = echo_config(cfg)
    assert echoed["master_seed"] == 3
    assert echoed["sample_range"] == [1000, 10000]
    assert len(echoed["agents"]) == 6
    assert echoed["agents"][4] == {
        "name": "fbs", "strategy": "fbs", "form": "simple", "budget": None,
    }


def test_default_lineup_forms():
    lineup = default_agent_lineup()
    assert lineup[4].form is WinForm.SIMPLE
    assert lineup[5].form is WinForm.COMPLEX


@pytest.mark.parametrize(
    "key,value",
    [
        ("num_buckets", 1),
        ("num_buckets", 0),
        ("const_bid", -1),
        ("rand_max", 0),
        ("lin_coef", -0.5),
        ("const_bid", float("nan")),
        ("rand_max", float("nan")),
        ("lin_coef", float("nan")),
        ("budget", float("nan")),
        ("budget_scale", float("nan")),
        ("budget", 1.0e-320),  # positive, but 0 once scaled and split over the pool
    ],
)
def test_bad_bidding_values_rejected(key, value):
    with pytest.raises(ConfigurationError, match=key):
        config_from_mapping({"master_seed": 1, key: value})


@pytest.mark.parametrize("shards", [0, 11])
def test_niid_shards_out_of_range(shards):
    with pytest.raises(ConfigurationError, match="shards_per_owner"):
        config_from_mapping({"master_seed": 1, "partition": "niid", "shards_per_owner": shards})


def test_iid_ignores_shards_per_owner():
    assert config_from_mapping({"master_seed": 1, "shards_per_owner": 0}).shards_per_owner == 0


@pytest.mark.parametrize(
    "key,value",
    [
        ("budget", "fifty"),
        ("pool_size", "100"),
        ("estimator_lr", "1e-3"),  # YAML 1.1 reads 1e-3 without a dot as a string
        ("num_buckets", 2.5),
        ("const_bid", True),
        ("master_seed", None),
        ("train_fl", "no"),
        ("train_fl", 1),
        ("output_dir", 5),
        ("sample_range", ["1000", 10000]),
    ],
)
def test_wrong_value_type_names_key(key, value):
    with pytest.raises(ConfigurationError, match=key):
        config_from_mapping({"master_seed": 1, key: value})


def test_agent_budget_must_be_a_number():
    with pytest.raises(ConfigurationError, match="agents\\[0\\]: budget"):
        config_from_mapping(
            {"master_seed": 1, "agents": [{"name": "x", "strategy": "const", "budget": "ten"}]}
        )


@pytest.mark.parametrize(
    "key,value",
    [("num_buckets", 1), ("const_bid", -1), ("budget", "fifty"), ("budget", float("nan")),
     ("rand_max", float("nan"))],
)
def test_cli_rejects_bad_value_before_running(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"master_seed": 1, "train_fl": False, key: value})
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.rglob("market_*.csv"))


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("estimator_lr", -0.05, "positive"),
        ("estimator_lr", 0, "positive"),
        ("estimator_lr", float("nan"), "positive"),
        ("fl_lr", -1, "positive"),
        ("fl_lr", 0, "positive"),
        ("estimator_epochs", -3, "non-negative"),
        ("local_epochs", -1, "non-negative"),
        ("bootstrap_rounds", 0, "bmub, lin, fbs, fbc need history"),
    ],
)
def test_bad_training_values_rejected(key, value, message):
    with pytest.raises(ConfigurationError, match=f"{key}.*{message}"):
        config_from_mapping({"master_seed": 1, key: value})


def test_zero_bootstrap_rounds_without_needy_agents():
    agents = [{"name": "c", "strategy": "const"}, {"name": "r", "strategy": "rand"}]
    cfg = config_from_mapping({"master_seed": 1, "bootstrap_rounds": 0, "agents": agents})
    assert cfg.bootstrap_rounds == 0


def test_cli_rejects_zero_bootstrap_rounds_before_creating_output(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"master_seed": 1, "train_fl": False, "bootstrap_rounds": 0})
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert "bootstrap_rounds" in capsys.readouterr().err
    assert not out.exists()
