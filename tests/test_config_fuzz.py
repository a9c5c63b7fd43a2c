"""What the config gate accepts, the program runs.

Each config is run through ``cli.main``, most without FL training and a
few with short local training on small owners.  It must exit 0, or exit
2 with one ``error:`` line: a config can still stop during the run, for
example when an agent wins no bootstrap auction, but never with a
traceback.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from flmarket import estimator
from flmarket.cli import main
from flmarket.strategies import Strategy


def run_cli(raw: dict):
    """Exit status, stderr and calibration report of one ``flmarket run``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["--out", str(Path(tmp) / "out"), "run", str(path)])
        reports = list(Path(tmp).glob("out/calibration_*.json"))
        report = json.loads(reports[0].read_text())["agents"] if reports else None
    return status, err.getvalue(), report


def log_uniform(lo, hi):
    return hs.floats(0.0, 1.0).map(lambda t: lo * (hi / lo) ** t)


def amounts(lo, hi):
    """Log-uniform floats, and one draw in ten a YAML integer of up to 400 digits,
    which may be past the float range."""
    return hs.integers(0, 9).flatmap(
        lambda k: hs.integers(1, 10**400) if k == 0 else log_uniform(lo, hi)
    )


sample_ranges = hs.one_of(
    hs.integers(10**5, 10**9).map(lambda n: [n, n]),  # every owner one size
    hs.lists(hs.integers(1, 10**9), min_size=2, max_size=2).map(sorted),
)
agent_lists = hs.lists(
    hs.fixed_dictionaries(
        {"strategy": hs.sampled_from([s.value for s in Strategy])},
        optional={"budget": amounts(1e-6, 1e6)},
    ),
    min_size=1,
    max_size=7,
).map(lambda agents: [dict(a, name=f"a{i}") for i, a in enumerate(agents)])
configs = hs.fixed_dictionaries(
    {
        "master_seed": hs.integers(0, 2**32 - 1),
        "pool_size": hs.integers(2, 100),
        "sample_range": sample_ranges,
        "budget": amounts(1e-6, 1e6),
        "budget_scale": amounts(1e-6, 100.0),
        "bootstrap_rounds": hs.integers(1, 20),
        "train_fl": hs.just(False),
    },
    optional={"agents": agent_lists},
)


def assert_runs_or_stops_with_one_error_line(raw):
    status, err, _ = run_cli(raw)
    assert status in (0, 2), err
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs)
def test_every_accepted_config_runs(raw):
    assert_runs_or_stops_with_one_error_line(raw)


# FL trains every won owner, so these keep owners small and training short
fl_configs = hs.tuples(
    configs, hs.integers(1, 3), hs.lists(hs.integers(1, 2000), min_size=2, max_size=2).map(sorted)
).map(lambda t: {**t[0], "train_fl": True, "local_epochs": t[1], "sample_range": t[2]})


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=fl_configs)
def test_every_accepted_config_runs_with_fl(raw):
    assert_runs_or_stops_with_one_error_line(raw)


def test_fl_with_an_agent_that_wins_no_owner(tmp_path):
    # a1 never runs out of budget and outbids a0's bid, capped at its tiny budget
    raw = {"master_seed": 1, "pool_size": 12, "sample_range": [100, 300], "local_epochs": 2,
           "agents": [{"name": "a0", "strategy": "const", "budget": 1e-4},
                      {"name": "a1", "strategy": "rand", "budget": 1e6}]}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 0
    with open(tmp_path / "out" / "summary_seed1.csv") as fh:
        rows = {row["agent"]: row for row in csv.DictReader(fh)}
    assert rows["a0"]["total_samples"] == "0" and rows["a0"]["accuracy_iid"] == ""
    assert 0.0 < float(rows["a1"]["accuracy_iid"]) <= 1.0


def test_one_size_for_every_owner_runs():
    # the size feature is then a multiple of the bias column, and the estimator's
    # damped solve turns singular; that step is rejected instead of raising
    for seed in range(4):
        raw = {"master_seed": seed, "sample_range": [10**6, 10**6], "train_fl": False}
        status, err, report = run_cli(raw)
        assert status == 0, err
        for agent in report.values():
            if "estimator_converged" in agent:
                converged = agent["estimator_grad_rel"] <= estimator.CONVERGED_GRAD_REL
                assert agent["estimator_converged"] == converged


@pytest.mark.parametrize(
    "raw",
    [
        {"budget": 10**400},
        {"budget_scale": 10**400},
        {"budget": 10**200, "budget_scale": 10**200},  # each fits a float, the product does not
        {"agents": [{"name": "x", "strategy": "const", "budget": 10**400}]},
    ],
)
def test_budget_too_large_for_a_float_is_rejected(raw):
    status, err, report = run_cli({"master_seed": 1, "train_fl": False, **raw})
    assert status == 2 and report is None
    assert err.startswith("error: agent ") and err.endswith("scaled budget is too large for a float\n")
