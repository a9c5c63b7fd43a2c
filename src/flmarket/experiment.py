"""Two-phase experiment protocol and artifact emission.

Phase 1 (bootstrap): warm-up markets where every agent bids uniformly
at random build each consumer's auction history.  Consumers that need
utility estimates fit theta on their won records; closed-form consumers
additionally calibrate their win model and solve the budget multiplier.

Phase 2 (market): the competitive market runs once over the pool, then
each consumer trains a FedAvg model on the owners it won.

Artifacts: a market CSV (one row per auction), a summary CSV (one row
per agent), a calibration report and optional bar charts.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import estimator, fltrain, winmodel
from .config import RunConfig, echo_config
from .market import (
    ConfigurationError,
    ConsumerAgent,
    MarketResult,
    MetricsReport,
    compute_metrics,
    generate_do_pool,
    request_features,
    run_market,
)
from .strategies import NEEDS_THETA, LambdaSolution, Strategy, solve_lambda
from .winmodel import WinningFunctionModel, at_bracket_edge, calibrate_c, empirical_win_curve

_CLOSED_FORM = (Strategy.FBS, Strategy.FBC)

# One row per auction an agent bid in; utility is NaN where it lost.
HISTORY_DTYPE = np.dtype(
    [("q", float, 3), ("bid", float), ("won", bool), ("utility", float)]
)


@dataclass
class AgentCalibration:
    fit: Optional[estimator.FitResult] = None
    win_model: Optional[WinningFunctionModel] = None
    c_at_bracket_edge: Optional[bool] = None
    lambda_solution: Optional[LambdaSolution] = None
    history: Optional[np.ndarray] = None  # HISTORY_DTYPE rows

    @property
    def theta(self) -> Optional[np.ndarray]:
        return None if self.fit is None else self.fit.theta


@dataclass
class RunArtifacts:
    config: RunConfig
    result: MarketResult
    metrics: MetricsReport
    calibration: dict  # agent name -> AgentCalibration
    market_csv: Path
    summary_csv: Path
    calibration_report: Path


def bootstrap_history(cfg: RunConfig, pool, rng: np.random.Generator) -> dict:
    """Warm-up markets with all-random bidding, then per-agent calibration.

    Bootstrap budgets are unconstrained: the warm-up exists to explore
    the bid range, not to spend real money.
    """
    params = cfg.strategy_params()
    names = [a.name for a in cfg.agents]
    n = len(pool)
    histories = {name: np.empty(cfg.bootstrap_rounds * n, HISTORY_DTYPE) for name in names}
    utility = np.zeros(max(o.id for o in pool) + 1)  # indexed by owner id
    utility[[o.id for o in pool]] = [estimator.true_utility(o) for o in pool]
    boot_agents = [
        ConsumerAgent(name=name, strategy=Strategy.RAND, budget=math.inf, params=params)
        for name in names
    ]
    for r in range(cfg.bootstrap_rounds):
        out = run_market(boot_agents, pool, rng.spawn(1)[0]).outcomes
        # every agent bids in every auction: budgets are unlimited
        Q = request_features(out["owner_id"], out["num_samples"], n)
        u = utility[out["owner_id"]]
        for j, name in enumerate(names):
            rows = histories[name][r * n : (r + 1) * n]
            rows["q"] = Q
            rows["bid"] = out["bids"][:, j]
            rows["won"] = out["winner"] == j
            rows["utility"] = np.where(rows["won"], u, np.nan)

    calibration = {}
    for spec in cfg.agents:
        history = histories[spec.name]
        cal = AgentCalibration(history=history)
        if spec.strategy in NEEDS_THETA:
            won = history[history["won"]]
            if len(won) == 0:
                raise ConfigurationError(
                    f"agent {spec.name} won no bootstrap auctions; "
                    "increase bootstrap_rounds or rand_max"
                )
            # contiguous copies: the fit reads them once per iteration
            Q, y = np.ascontiguousarray(won["q"]), np.ascontiguousarray(won["utility"])
            cal.fit = estimator.fit_with_backoff(Q, y)
        if spec.strategy in _CLOSED_FORM:
            curve = empirical_win_curve(history["bid"], history["won"], cfg.num_buckets)
            c = calibrate_c(curve, spec.form)
            cal.win_model = WinningFunctionModel(spec.form, c)
            cal.c_at_bracket_edge = at_bracket_edge(curve, c)
            samples = estimator.predict(cal.theta, np.ascontiguousarray(history["q"]))
            cal.lambda_solution = solve_lambda(
                samples, cal.win_model, cfg.scaled_budget(spec), cfg.pool_size
            )
        calibration[spec.name] = cal
    return calibration


def build_market_agents(cfg: RunConfig, calibration: dict) -> list:
    params = cfg.strategy_params()
    agents = []
    for spec in cfg.agents:
        cal = calibration[spec.name]
        agents.append(
            ConsumerAgent(
                name=spec.name,
                strategy=spec.strategy,
                budget=cfg.scaled_budget(spec),
                params=params,
                theta=cal.theta,
                win_model=cal.win_model,
                lam=cal.lambda_solution.lam if cal.lambda_solution else 0.0,
            )
        )
    return agents


def train_federated(cfg: RunConfig, pool, result: MarketResult, rng: np.random.Generator) -> dict:
    """Per-agent FedAvg over won owners; returns agent -> test accuracy."""
    centers_rng, shard_rng, test_rng = rng.spawn(3)
    centers = fltrain.make_class_centers(centers_rng)
    K = centers.shape[0]
    mode, shards = fltrain.partition_mode(cfg.partition, cfg.shards_per_owner, K)
    class_support = {}
    for owner in pool:
        if mode == "niid":
            class_support[owner.id] = np.sort(shard_rng.choice(K, shards, replace=False))
        else:
            class_support[owner.id] = None
    test_labels = test_rng.integers(0, K, 2000)
    test_X = centers[test_labels] + test_rng.standard_normal((2000, centers.shape[1]))

    owners = {o.id: o for o in pool}
    accuracy = {}
    for j, name in enumerate(result.agent_names):
        won_ids = np.sort(result.outcomes["owner_id"][result.outcomes["winner"] == j]).tolist()
        if not won_ids:
            accuracy[name] = None
            continue
        updates = []
        for oid in won_ids:
            owner = owners[oid]
            data = fltrain.synth_dataset(
                owner,
                centers,
                cfg.noise_rate_blurred,
                np.random.default_rng(owner.local_seed),
                classes=class_support[oid],
            )
            w = fltrain.local_train(
                fltrain.zero_model(K, centers.shape[1]),
                data,
                local_epochs=cfg.local_epochs,
                lr=cfg.fl_lr,
            )
            updates.append((w, owner.num_samples))
        accuracy[name] = fltrain.evaluate(fltrain.fedavg(updates), test_X, test_labels)
    return accuracy


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def market_csv_header(agent_names) -> list:
    return (
        ["auction_index", "owner_id", "num_samples"]
        + [f"bid_{n}" for n in agent_names]
        + ["winner", "clearing_price"]
    )


def summary_csv_header(partition: str) -> list:
    return [
        "agent",
        "strategy",
        "budget",
        "total_samples",
        "unit_price",
        "spend",
        f"accuracy_{partition}",
    ]


def write_market_csv(path, result: MarketResult):
    names = result.agent_names
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(market_csv_header(names))
        out = result.outcomes
        columns = [out[c].tolist() for c in ("owner_id", "num_samples", "bids", "winner", "price")]
        for i, (oid, n, bids, winner, price) in enumerate(zip(*columns)):
            cells = ["" if math.isnan(b) else repr(b) for b in bids]
            w.writerow([i, oid, n, *cells, names[winner] if winner >= 0 else "", repr(price)])


def write_summary_csv(path, cfg: RunConfig, metrics: MetricsReport, accuracy: dict):
    specs = {a.name: a for a in cfg.agents}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(summary_csv_header(cfg.partition))
        for name, m in metrics.per_agent.items():
            spec = specs[name]
            w.writerow(
                [
                    name,
                    spec.strategy.value,
                    _fmt(cfg.scaled_budget(spec)),
                    m.total_samples,
                    _fmt(m.unit_price_per_1000),
                    _fmt(m.spend),
                    _fmt(accuracy.get(name)),
                ]
            )


def write_calibration_report(path, cfg: RunConfig, calibration: dict):
    report = {
        "schema_version": 1,
        "budget_scale": cfg.budget_scale,
        "agents": {},
    }
    for name, cal in calibration.items():
        entry = {}
        if cal.fit is not None:
            entry["theta"] = [float(t) for t in cal.fit.theta]
            entry["estimator_final_loss"] = cal.fit.loss
            entry["estimator_iterations"] = cal.fit.iterations
            entry["estimator_grad_rel"] = cal.fit.grad_rel
            entry["estimator_converged"] = cal.fit.converged
        if cal.win_model is not None:
            entry["win_form"] = cal.win_model.form.value
            entry["c"] = cal.win_model.c
            entry["c_at_bracket_edge"] = cal.c_at_bracket_edge
        if cal.lambda_solution is not None:
            sol = cal.lambda_solution
            entry["lambda"] = sol.lam
            entry["expected_spend_per_request"] = sol.expected_spend_per_request
            entry["spend_target"] = sol.target
            if sol.note is not None:
                entry["lambda_note"] = sol.note
        report["agents"][name] = entry
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def run_experiment(cfg: RunConfig, train_fl: Optional[bool] = None) -> RunArtifacts:
    """Bootstrap, competitive market, FedAvg evaluation, artifact emission."""
    root = np.random.SeedSequence(cfg.master_seed)
    pool_rng, boot_rng, market_rng, fl_rng = [
        np.random.default_rng(s) for s in root.spawn(4)
    ]
    pool = generate_do_pool(cfg.pool_size, cfg.sample_range, pool_rng)
    calibration = bootstrap_history(cfg, pool, boot_rng)
    agents = build_market_agents(cfg, calibration)
    result = run_market(agents, pool, market_rng)
    metrics = compute_metrics(result)
    do_fl = cfg.train_fl if train_fl is None else train_fl
    accuracy = (
        train_federated(cfg, pool, result, fl_rng)
        if do_fl
        else {n: None for n in result.agent_names}
    )
    for name, m in metrics.per_agent.items():
        m.fl_accuracy = accuracy[name]

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"seed{cfg.master_seed}"
    market_csv = out / f"market_{tag}.csv"
    summary_csv = out / f"summary_{tag}.csv"
    calibration_report = out / f"calibration_{tag}.json"
    write_market_csv(market_csv, result)
    write_summary_csv(summary_csv, cfg, metrics, accuracy)
    write_calibration_report(calibration_report, cfg, calibration)
    (out / f"config_echo_{tag}.json").write_text(
        json.dumps(echo_config(cfg), indent=2, sort_keys=True) + "\n"
    )
    return RunArtifacts(
        config=cfg,
        result=result,
        metrics=metrics,
        calibration=calibration,
        market_csv=market_csv,
        summary_csv=summary_csv,
        calibration_report=calibration_report,
    )


def _svg_text(parent, x, y, text, anchor="middle", **attrs):
    el = ET.SubElement(parent, "text", {"x": str(x), "y": str(y), "text-anchor": anchor}, **attrs)
    el.text = text


def _write_bar_svg(path, title, ylabel, labels, values):
    """Write a bar chart as a self-contained SVG file.

    The output holds no timestamp or version string, so equal inputs give
    equal bytes.  An all-zero chart draws zero-height bars.
    """
    width, height = 600, 350
    left, right, top, bottom = 60, 10, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    base = top + plot_h
    peak = max(values, default=0.0)
    vmax = peak or 1.0
    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(height),
        viewBox=f"0 0 {width} {height}",
    )
    _svg_text(svg, width // 2, 20, title)
    mid = top + plot_h // 2
    _svg_text(svg, 15, mid, ylabel, transform=f"rotate(-90 15 {mid})")
    _svg_text(svg, left - 5, top + 5, f"{peak:g}", anchor="end")
    ET.SubElement(
        svg, "line", x1=str(left), y1=str(base), x2=str(width - right), y2=str(base), stroke="black"
    )
    slot = plot_w / max(len(labels), 1)
    for i, (label, value) in enumerate(zip(labels, values)):
        bar_h = plot_h * value / vmax
        x = left + i * slot
        ET.SubElement(
            svg,
            "rect",
            x=f"{x + 0.1 * slot:.2f}",
            y=f"{base - bar_h:.2f}",
            width=f"{0.8 * slot:.2f}",
            height=f"{bar_h:.2f}",
            fill="steelblue",
        )
        _svg_text(svg, f"{x + 0.5 * slot:.2f}", base + 15, label)
    ET.ElementTree(svg).write(path, encoding="utf-8", xml_declaration=True)


def emit_plots(artifacts_dir, out_dir=None) -> list:
    """Bar charts of total samples and unit price from summary CSVs.

    One SVG chart per metric per summary file (seed), with a bar for every
    agent in it.  The name carries the budget, or the distinct per-agent
    budgets joined with '-'.
    """
    artifacts_dir = Path(artifacts_dir)
    out_dir = Path(out_dir) if out_dir else artifacts_dir
    rows = []
    for path in sorted(artifacts_dir.glob("summary_seed*.csv")):
        seed = path.stem.replace("summary_", "")
        with open(path) as fh:
            for rec in csv.DictReader(fh):
                rec["_seed"] = seed
                rows.append(rec)
    if not rows:
        print("no summary rows found; no charts emitted")
        return []
    out_dir.mkdir(parents=True, exist_ok=True)

    written = []
    by_seed = {}
    for rec in rows:
        by_seed.setdefault(rec["_seed"], []).append(rec)
    for seed, group in sorted(by_seed.items()):
        budget = "-".join(sorted({r["budget"] for r in group}, key=float))
        agents = [r["agent"] for r in group]
        for metric, column in (("total_samples", "total_samples"), ("unit_price", "unit_price")):
            values = [float(r[column]) if r[column] else 0.0 for r in group]
            path = out_dir / f"{metric}_budget{budget}_{seed}.svg"
            _write_bar_svg(path, f"{metric} at budget {budget} ({seed})", metric, agents, values)
            written.append(path)
    return written
