import json
import textwrap
from dataclasses import fields

import pytest
import yaml

from flmarket import config
from flmarket.cli import main
from flmarket.config import (
    AgentSpec,
    ConfigurationError,
    RunConfig,
    config_from_mapping,
    echo_config,
    parse_config,
)
from flmarket.experiment import run_experiment
from flmarket.strategies import WIN_FORM, Strategy
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


def test_sample_range_bounded_by_int64():
    # the pool draws sizes with rng.integers(lo, hi + 1), which needs hi <= 2**63 - 1
    with pytest.raises(ConfigurationError, match="sample_range"):
        config_from_mapping({"master_seed": 1, "sample_range": [1, 2**63]})
    cfg = config_from_mapping({"master_seed": 1, "sample_range": [1, 2**63 - 1]})
    assert cfg.sample_range == (1, 2**63 - 1)


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
                {"name": "z", "strategy": "fbc", "budget": 80},
            ],
        }
    )
    assert cfg.scaled_budget(cfg.agents[2]) == pytest.approx(0.8)
    assert cfg.scaled_budget(cfg.agents[0]) == pytest.approx(0.5)


@pytest.mark.parametrize("key,value", [("budgt", 2), ("form", "simple")])
def test_agent_unknown_key(key, value):
    # an agent's keys pass the run's gate, hint and all; fbs and fbc fix their
    # own win model, so an agent takes no 'form'
    hint = {"budgt": "; did you mean 'budget'?", "form": ""}[key]
    with pytest.raises(ConfigurationError) as info:
        config_from_mapping(
            {"master_seed": 1, "agents": [{"name": "x", "strategy": "fbs", key: value}]}
        )
    assert str(info.value) == f"agents[0]: unknown config key {key!r}{hint}"


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
        "name": "fbs", "strategy": "fbs", "budget": None,
    }


def test_default_lineup_forms(tmp_path):
    assert WIN_FORM == {Strategy.FBS: WinForm.SIMPLE, Strategy.FBC: WinForm.COMPLEX}
    cfg = RunConfig(master_seed=7, pool_size=20, bootstrap_rounds=8, train_fl=False,
                    output_dir=str(tmp_path))
    report = json.loads(run_experiment(cfg).calibration_report.read_text())["agents"]
    assert report["fbs"]["win_form"] == "simple"
    assert report["fbc"]["win_form"] == "complex"


@pytest.mark.parametrize(
    "key,value",
    [
        ("budget", float("nan")),
        ("budget", 0),
        ("budget_scale", float("nan")),
        ("budget", 1.0e-320),  # positive, but 0 once scaled and split over the pool
        ("pool_size", 1),
    ],
)
def test_bad_bidding_values_rejected(key, value):
    with pytest.raises(ConfigurationError, match=key):
        config_from_mapping({"master_seed": 1, key: value})


@pytest.mark.parametrize("shards", [0, 11])
def test_niid_shards_out_of_range(shards):
    with pytest.raises(ConfigurationError, match="shards_per_owner"):
        config_from_mapping({"master_seed": 1, "partition": "niid", "shards_per_owner": shards})


@pytest.mark.parametrize("shards", [1, 10])
def test_niid_shards_in_range_accepted(shards):
    cfg = config_from_mapping({"master_seed": 1, "partition": "niid", "shards_per_owner": shards})
    assert (cfg.partition, cfg.shards_per_owner) == ("niid", shards)


def test_iid_ignores_shards_per_owner():
    assert config_from_mapping({"master_seed": 1, "shards_per_owner": 0}).shards_per_owner == 0


@pytest.mark.parametrize(
    "key,value",
    [
        ("budget", "fifty"),
        ("pool_size", "100"),
        ("budget_scale", "1e-3"),  # YAML 1.1 reads 1e-3 without a dot as a string
        ("bootstrap_rounds", 2.5),
        ("budget", True),
        ("master_seed", None),
        ("train_fl", "no"),
        ("train_fl", 1),
        ("output_dir", 5),
        ("sample_range", ["1000", 10000]),
        ("sample_range", True),
        ("agents", True),
    ],
)
def test_wrong_value_type_names_key(key, value):
    with pytest.raises(ConfigurationError, match=key):
        config_from_mapping({"master_seed": 1, key: value})


@pytest.mark.parametrize("name", [None, [1, 2], 1])
def test_agent_name_must_be_a_string(name):
    with pytest.raises(ConfigurationError, match=r"^agents\[0\]: name must be a string, got "):
        config_from_mapping({"master_seed": 1, "agents": [{"name": name, "strategy": "const"}]})


@pytest.mark.parametrize("budget", [-1, float("nan")])
def test_agent_budget_must_be_positive(budget):
    with pytest.raises(ConfigurationError, match="^agent x: budget per request must be positive$"):
        config_from_mapping(
            {"master_seed": 1, "agents": [{"name": "x", "strategy": "const", "budget": budget}]}
        )


def test_agent_budget_must_be_a_number():
    with pytest.raises(ConfigurationError, match="agents\\[0\\]: budget"):
        config_from_mapping(
            {"master_seed": 1, "agents": [{"name": "x", "strategy": "const", "budget": "ten"}]}
        )


@pytest.mark.parametrize(
    "key,value",
    [("budget", "fifty"), ("budget", float("nan")), ("master_seed", -1)],
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
        ("local_epochs", -1, "non-negative"),
        ("bootstrap_rounds", 0, "bmub, lin, fbs, fbc need history"),
    ],
)
def test_bad_training_values_rejected(key, value, message):
    with pytest.raises(ConfigurationError, match=f"{key}.*{message}"):
        config_from_mapping({"master_seed": 1, key: value})


@pytest.mark.parametrize("key,value", [("estimator_lr", 0.05), ("estimator_epochs", 5000)])
def test_gradient_descent_keys_are_unknown(tmp_path, capsys, key, value):
    # the estimator fit runs to the least-squares theta and takes no settings
    out = tmp_path / "out"
    path = write_config(tmp_path, {"master_seed": 1, "train_fl": False, key: value})
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown config key {key!r}")
    assert not out.exists()


@pytest.mark.parametrize("key", ["fl_lr", "num_buckets", "const_bid", "rand_max", "lin_coef"])
def test_model_constant_keys_are_unknown(tmp_path, capsys, key):
    # the model's constants are the library's defaults; the config takes no key for them
    out = tmp_path / "out"
    path = write_config(tmp_path, {"master_seed": 1, "train_fl": False, key: 0.5})
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown config key {key!r}")
    assert not out.exists()


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


def _yaml_syntax_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("master_seed: 1\nagents: [\n")
    return ["run", str(path)]


def _sweep_with_bad_second_file(tmp_path):
    # a.yaml is valid; the sweep must check b.yaml before it runs a.yaml
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "a.yaml").write_text(yaml.safe_dump({"master_seed": 1, "train_fl": False}))
    (config_dir / "b.yaml").write_text(yaml.safe_dump({"master_seed": 1, "budgt": 3}))
    return ["sweep", str(config_dir)]


def _sweep_with_duplicate_stem(tmp_path):
    # a.yaml and a.yml would both write into <out>/a
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "a.yaml").write_text(yaml.safe_dump({"master_seed": 1, "train_fl": False}))
    (config_dir / "a.yml").write_text(yaml.safe_dump({"master_seed": 2, "train_fl": False}))
    return ["sweep", str(config_dir)]


@pytest.mark.parametrize(
    "argv,message",
    [
        (_yaml_syntax_error, "invalid YAML"),
        (lambda tmp_path: ["run", str(tmp_path)], "Is a directory"),
        (lambda tmp_path: ["sweep", str(write_config(tmp_path, {"master_seed": 1}))],
         "Not a directory"),
        (lambda tmp_path: ["--seed", "-3", "run", str(write_config(tmp_path, {"master_seed": 1}))],
         "master_seed must be non-negative"),
        (lambda tmp_path: ["run", str(write_config(tmp_path, {
            "master_seed": 1, "agents": [{"name": "fbs", "strategy": "fbs", "form": "simple"}]}))],
         "error: agents[0]: unknown config key 'form'\n"),
        (lambda tmp_path: ["run", str(write_config(tmp_path, {
            "master_seed": 1, "agents": [{"name": None, "strategy": "fbs"}]}))],
         "error: agents[0]: name must be a string, got None\n"),
        (lambda tmp_path: ["run", str(write_config(tmp_path, {"master_seed": 1, "agents": []}))],
         "need at least one agent"),
        (_sweep_with_bad_second_file, "error: b.yaml: unknown config key 'budgt'"),
        (_sweep_with_duplicate_stem, "error: a.yaml and a.yml"),
    ],
    ids=["yaml_syntax", "config_is_dir", "sweep_on_file", "seed_flag",
         "agent_form", "agent_name_null", "no_agents", "sweep_bad_second_file", "sweep_duplicate_stem"],
)
def test_cli_bad_input_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()


def test_schema_docstring_names_every_key():
    # the module docstring's indented schema block is itself a valid YAML config
    schema = config.__doc__.split("\n\n")[2]
    example = yaml.safe_load(textwrap.dedent(schema))
    assert set(example) == {f.name for f in fields(RunConfig)}
    assert set(example["agents"][0]) == {f.name for f in fields(AgentSpec)}
    config_from_mapping(example)
