import csv
import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
import yaml

from flmarket import estimator, experiment
from flmarket.cli import main
from flmarket.config import RunConfig, default_agent_lineup
from flmarket.experiment import (
    bootstrap_history,
    emit_plots,
    market_csv_header,
    run_experiment,
    summary_csv_header,
)
from flmarket.market import ConfigurationError, generate_do_pool

from conftest import assert_matches_row_predict

SVG_NS = "http://www.w3.org/2000/svg"


def small_config(seed=7, out="out", **kw):
    defaults = dict(
        master_seed=seed,
        pool_size=20,
        bootstrap_rounds=8,
        local_epochs=20,
        output_dir=out,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestBootstrap:
    def test_zero_rounds_fails_closed(self, tmp_path):
        cfg = small_config(out=str(tmp_path), bootstrap_rounds=0)
        pool = generate_do_pool(cfg.pool_size, cfg.sample_range, 1)
        with pytest.raises(ConfigurationError, match="bootstrap_rounds"):
            bootstrap_history(cfg, pool, np.random.default_rng(0))

    def test_calibration_is_finite(self, tmp_path):
        cfg = small_config(out=str(tmp_path))
        pool = generate_do_pool(cfg.pool_size, cfg.sample_range, 1)
        cal = bootstrap_history(cfg, pool, np.random.default_rng(0))
        for name in ("fbs", "fbc"):
            assert cal[name].win_model.c > 0
            assert np.isfinite(cal[name].win_model.c)
            assert cal[name].lambda_solution.lam >= 0
            assert np.all(np.isfinite(cal[name].theta))

    def test_history_columns(self, tmp_path):
        cfg = small_config(out=str(tmp_path))
        pool = generate_do_pool(cfg.pool_size, cfg.sample_range, 1)
        cal = bootstrap_history(cfg, pool, np.random.default_rng(0))
        histories = [cal[a.name].history for a in cfg.agents]
        for h in histories:
            assert len(h) == cfg.bootstrap_rounds * cfg.pool_size
            assert np.all(h["bid"] > 0)
            np.testing.assert_array_equal(np.isfinite(h["utility"]), h["won"])
            np.testing.assert_array_equal(h["q"], histories[0]["q"])
        # every bootstrap bid is positive, so every auction has one winner
        assert np.all(sum(h["won"].astype(int) for h in histories) == 1)
        for name in ("fbs", "fbc"):
            theta, Q = cal[name].theta, cal[name].history["q"]
            assert_matches_row_predict(theta, Q, estimator.predict(theta, Q))

    def test_reproducible(self, tmp_path):
        cfg = small_config(out=str(tmp_path))
        pool = generate_do_pool(cfg.pool_size, cfg.sample_range, 1)
        a = bootstrap_history(cfg, pool, np.random.default_rng(5))
        b = bootstrap_history(cfg, pool, np.random.default_rng(5))
        for name in a:
            if a[name].theta is not None:
                np.testing.assert_array_equal(a[name].theta, b[name].theta)
            if a[name].win_model is not None:
                assert a[name].win_model == b[name].win_model
                assert a[name].lambda_solution.lam == b[name].lambda_solution.lam


class TestRunExperiment:
    def test_summary_schema(self, tmp_path):
        art = run_experiment(small_config(out=str(tmp_path)))
        with open(art.summary_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == summary_csv_header("iid")
        assert rows[0] == [
            "agent", "strategy", "budget", "total_samples",
            "unit_price", "spend", "accuracy_iid",
        ]
        assert len(rows) == 7

    def test_market_schema(self, tmp_path):
        art = run_experiment(small_config(out=str(tmp_path), train_fl=False))
        with open(art.market_csv) as fh:
            rows = list(csv.reader(fh))
        names = [a.name for a in art.config.agents]
        assert rows[0] == market_csv_header(names)
        assert len(rows) == 1 + art.config.pool_size

    def test_spend_within_budget(self, tmp_path):
        art = run_experiment(small_config(out=str(tmp_path), train_fl=False))
        with open(art.summary_csv) as fh:
            for row in csv.DictReader(fh):
                assert float(row["spend"]) <= float(row["budget"]) + 1e-12

    def test_unit_price_recomputable_from_market_csv(self, tmp_path):
        art = run_experiment(small_config(out=str(tmp_path), train_fl=False))
        spend = {}
        samples = {}
        with open(art.market_csv) as fh:
            for row in csv.DictReader(fh):
                if row["winner"]:
                    spend[row["winner"]] = spend.get(row["winner"], 0.0) + float(
                        row["clearing_price"]
                    )
                    samples[row["winner"]] = samples.get(row["winner"], 0) + int(
                        row["num_samples"]
                    )
        with open(art.summary_csv) as fh:
            for row in csv.DictReader(fh):
                if row["unit_price"]:
                    recomputed = spend[row["agent"]] / (samples[row["agent"]] / 1000.0)
                    assert abs(float(row["unit_price"]) - recomputed) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        a = run_experiment(small_config(out=str(tmp_path / "a")))
        b = run_experiment(small_config(out=str(tmp_path / "b")))
        assert a.market_csv.read_bytes() == b.market_csv.read_bytes()
        assert a.summary_csv.read_bytes() == b.summary_csv.read_bytes()
        assert a.calibration_report.read_bytes() == b.calibration_report.read_bytes()

    def test_zero_utility_samples_complete(self, tmp_path):
        # 40 of the fbc agent's utility samples clamp to 0 here, and the
        # lambda search needs their bids to be exactly 0, not negative
        art = run_experiment(RunConfig(master_seed=19, budget=50.0, train_fl=False, output_dir=str(tmp_path)))
        assert art.calibration["fbc"].lambda_solution.lam > 0
        assert art.summary_csv.exists()

    def test_calibration_report_contents(self, tmp_path):
        art = run_experiment(small_config(out=str(tmp_path), train_fl=False))
        report = json.loads(art.calibration_report.read_text())
        assert report["budget_scale"] == 0.01
        for name in ("fbs", "fbc"):
            entry = report["agents"][name]
            assert entry["c"] > 0
            assert entry["lambda"] >= 0
            assert entry["c_at_bracket_edge"] is art.calibration[name].c_at_bracket_edge is False
        for name in ("bmub", "lin", "fbs", "fbc"):
            entry, fit = report["agents"][name], art.calibration[name].fit
            assert entry["theta"] == fit.theta.tolist()
            assert entry["estimator_final_loss"] == fit.loss
            assert entry["estimator_iterations"] == fit.iterations > 0
            assert entry["estimator_grad_rel"] == fit.grad_rel <= 1e-6
            assert entry["estimator_converged"] is fit.converged is True
            assert "estimator_lr_used" not in entry

    def test_calibration_report_lambda_note(self, tmp_path, monkeypatch):
        cfg = small_config(out=str(tmp_path / "full"), train_fl=False)
        full = json.loads(run_experiment(cfg).calibration_report.read_text())["agents"]
        solve = experiment.solve_lambda

        def noted(*args):
            return replace(solve(*args), note="forced note")

        monkeypatch.setattr(experiment, "solve_lambda", noted)
        art = run_experiment(replace(cfg, output_dir=str(tmp_path / "short")))
        report = json.loads(art.calibration_report.read_text())["agents"]
        for name in ("fbs", "fbc"):
            assert "lambda_note" not in full[name]
            assert report[name]["lambda_note"] == "forced note"
            assert report[name]["lambda_note"] == art.calibration[name].lambda_solution.note


class TestCli:
    def _write_cfg(self, tmp_path, **kw):
        mapping = dict(
            master_seed=3, pool_size=15, bootstrap_rounds=6,
            local_epochs=10, train_fl=False,
        )
        mapping.update(kw)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(mapping))
        return path

    def test_run_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        rc = main(["--out", str(tmp_path / "out"), "run", str(cfg)])
        assert rc == 0
        assert (tmp_path / "out" / "summary_seed3.csv").exists()

    def test_seed_override(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        rc = main(["--seed", "11", "--out", str(tmp_path / "out"), "run", str(cfg)])
        assert rc == 0
        assert (tmp_path / "out" / "summary_seed11.csv").exists()

    def test_bad_config_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("budgt: 1\n")
        rc = main(["run", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_sweep(self, tmp_path):
        self._write_cfg(tmp_path)
        rc = main(["--out", str(tmp_path / "sweep_out"), "sweep", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sweep_out" / "cfg" / "summary_seed3.csv").exists()

    def test_plot_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(cfg)]) == 0
        assert main(["plot", str(out)]) == 0
        assert list(out.glob("*.svg"))
        charts = tmp_path / "charts" / "missing"
        assert main(["--out", str(charts), "plot", str(out)]) == 0
        assert sorted(p.name for p in charts.glob("*.svg")) == sorted(p.name for p in out.glob("*.svg"))


class TestPlots:
    def test_charts_per_metric(self, tmp_path):
        art = run_experiment(small_config(out=str(tmp_path), train_fl=False))
        written = emit_plots(tmp_path)
        names = [p.name for p in written]
        assert any(n.startswith("total_samples") for n in names)
        assert any(n.startswith("unit_price") for n in names)
        assert all("seed7" in n for n in names)
        with open(art.summary_csv) as fh:
            agents = [r["agent"] for r in csv.DictReader(fh)]
        assert sorted(names) == [
            "total_samples_budget0.5_seed7.svg",
            "unit_price_budget0.5_seed7.svg",
        ]
        for path in written:
            root = ET.parse(path).getroot()
            assert root.tag == f"{{{SVG_NS}}}svg"
            assert len(root.findall(f"{{{SVG_NS}}}rect")) == len(agents)
            labels = [t.text for t in root.findall(f"{{{SVG_NS}}}text")]
            assert all(a in labels for a in agents)

    def test_per_agent_budgets_share_one_chart(self, tmp_path):
        agents = default_agent_lineup()
        for spec in agents[::2]:
            spec.budget = 150.0
        run_experiment(small_config(out=str(tmp_path), train_fl=False, agents=agents))
        written = emit_plots(tmp_path)
        assert sorted(p.name for p in written) == [
            "total_samples_budget0.5-1.5_seed7.svg",
            "unit_price_budget0.5-1.5_seed7.svg",
        ]
        for path in written:
            root = ET.parse(path).getroot()
            assert len(root.findall(f"{{{SVG_NS}}}rect")) == len(agents)
            labels = [t.text for t in root.findall(f"{{{SVG_NS}}}text")]
            assert all(spec.name in labels for spec in agents)

    def test_empty_dir_notice(self, tmp_path, capsys):
        assert emit_plots(tmp_path) == []
        assert "no summary rows" in capsys.readouterr().out

    def test_svg_bytes_deterministic_and_zero_safe(self, tmp_path):
        (tmp_path / "summary_seed1.csv").write_text(
            "agent,strategy,budget,total_samples,unit_price,spend,fl_accuracy\n"
            "a,const,0.5,0,,0,\n"
            "b & <c>,lin,0.5,0,,0,\n"
        )
        first = {p.name: p.read_bytes() for p in emit_plots(tmp_path)}
        second = {p.name: p.read_bytes() for p in emit_plots(tmp_path)}
        assert first == second and len(first) == 2
        for path in tmp_path.glob("*.svg"):
            root = ET.parse(path).getroot()
            heights = [float(r.get("height")) for r in root.findall(f"{{{SVG_NS}}}rect")]
            assert heights == [0.0, 0.0]
            assert "b & <c>" in [t.text for t in root.findall(f"{{{SVG_NS}}}text")]
