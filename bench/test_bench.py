"""The benchmark's own tests: every workload at a tiny size, and every output
check against a corrupted artifact.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    result = run.run_benchmark(workload, seed=1, seconds=0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["fl_default", "budget_sweep", "oracle_certify"])
def test_tiny_traced_run_reports_every_layer(workload):
    result = run.run_benchmark(workload, seed=1, seconds=0, trace=1, tiny=True)
    assert result["correct"] and result["failed"] == 0
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(layers) == set(run.LAYER_UNITS)
    trace_dir = ROOT / "bench" / "out" / "trace" / f"{workload}-seed1-tiny"
    spans = [json.loads(line) for line in (trace_dir / "spans.jsonl").read_text().splitlines()]
    assert json.loads((trace_dir / "layers.json").read_text())["layers"] == layers
    if workload == "oracle_certify":
        assert layers["strategies.oracle_calls"] == 4 and layers["market.auctions"] == 0
        return
    assert {s["name"] for s in spans} >= {"cli.main", "experiment.run_market", "estimator.fit"}
    assert layers["market.auctions"] > 0 and layers["estimator.fit_s"] > 0
    assert (layers["fltrain.local_train_calls"] > 0) == (workload == "fl_default")
    assert (layers["experiment.plot_s"] > 0) == (workload == "budget_sweep")
    assert layers["estimator.won_records"] <= layers["experiment.history_records"]


def test_inputs_follow_the_seed(tmp_path):
    def configs(seed, name):
        return [op["config"] for op in workloads.make_inputs("budget_sweep", seed, tmp_path / name)["ops"]]

    assert configs(5, "a") == configs(5, "b") != configs(6, "c")
    assert workloads.make_triples(5, 3) == workloads.make_triples(5, 3) != workloads.make_triples(6, 3)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle_certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0 and '"correct"' not in done.stdout


# --- every check rejects a corrupted artifact -------------------------------


@pytest.fixture(scope="module")
def sweep_run():
    """A tiny budget_sweep run's first operation: its config and output directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        run.run_benchmark("budget_sweep", seed=1, seconds=0, trace=0, tiny=True)
    spec = json.loads((ROOT / "bench/out/work/budget_sweep-seed1-tiny/spec.json").read_text())
    op = spec["ops"][0]
    return op["config"], ROOT / spec["out_dir"] / op["stem"]


@pytest.fixture
def artifacts(sweep_run, tmp_path):
    config, run_dir = sweep_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    tag = f"seed{config['master_seed']}"
    return config, copy, copy / f"market_{tag}.csv", copy / f"summary_{tag}.csv"


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _write_rows(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


def _problems(config, run_dir):
    return "\n".join(checks.check_market_run(run_dir, config, plot=True))


def test_clean_artifacts_pass(artifacts):
    config, run_dir, _, _ = artifacts
    assert _problems(config, run_dir) == ""


def test_bid_above_remaining_budget_is_rejected(artifacts):
    config, run_dir, market, _ = artifacts
    header, rows = _rows(market)
    col = header.index("bid_const")
    budget = config["budget"] * config["budget_scale"]
    rows[0][col] = repr(budget * 1.5)
    _write_rows(market, header, rows)
    assert "exceeds remaining budget" in _problems(config, run_dir)


def test_swapped_winner_is_rejected(artifacts):
    config, run_dir, market, _ = artifacts
    header, rows = _rows(market)
    winner = header.index("winner")
    agents = [h[4:] for h in header if h.startswith("bid_")]
    row = next(r for r in rows if r[winner])
    row[winner] = next(a for a in agents if a != row[winner])
    _write_rows(market, header, rows)
    assert "is not the highest bid" in _problems(config, run_dir)


def test_summary_total_off_by_one_sample_is_rejected(artifacts):
    config, run_dir, _, summary = artifacts
    header, rows = _rows(summary)
    col = header.index("total_samples")
    rows[0][col] = str(int(rows[0][col]) + 1)
    _write_rows(summary, header, rows)
    assert "total_samples" in _problems(config, run_dir)


def test_fbc_bid_off_by_1e6_is_rejected(artifacts):
    config, run_dir, market, _ = artifacts
    header, rows = _rows(market)
    col = header.index("bid_fbc")
    row = next(r for r in rows if r[col] and float(r[col]) > 0)
    row[col] = repr(float(row[col]) + 1e-6)
    _write_rows(market, header, rows)
    assert "recomputed" in _problems(config, run_dir)


def test_owner_auctioned_twice_is_rejected(artifacts):
    config, run_dir, market, _ = artifacts
    header, rows = _rows(market)
    col = header.index("owner_id")
    rows[1][col] = rows[0][col]
    _write_rows(market, header, rows)
    assert "exactly once" in _problems(config, run_dir)


def test_unpaced_lambda_is_rejected(artifacts):
    config, run_dir, _, _ = artifacts
    path = next(run_dir.glob("calibration_*.json"))
    report = json.loads(path.read_text())
    report["agents"]["fbs"]["expected_spend_per_request"] *= 1.05
    path.write_text(json.dumps(report))
    assert "paces spend" in _problems(config, run_dir)


def test_svg_missing_a_bar_is_rejected(artifacts):
    config, run_dir, _, _ = artifacts
    chart = sorted(run_dir.glob("*.svg"))[0]
    tree = ET.parse(chart)
    tree.getroot().remove(tree.getroot().findall(f"{SVG}rect")[-1])
    tree.write(chart)
    assert "bars for" in _problems(config, run_dir)


def test_oracle_bid_off_the_maximum_is_rejected():
    s, c, lam = 2.0, 0.7, 0.3
    simple = checks.closed_form_root("simple", s, c, lam)
    complex_ = checks.closed_form_root("complex", s, c, lam)
    good = [s, c, lam, simple, simple, complex_, complex_]
    assert checks.check_oracle_row(good) == []
    bad = good[:5] + [0.9 * complex_] * 2
    assert any("below grid maximum" in p for p in checks.check_oracle_row(bad))
