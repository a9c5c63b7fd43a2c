"""Two-phase experiment protocol and artifact emission.

Phase 1 (bootstrap): ``market.random_bid_history`` draws the warm-up
markets, where every agent bids uniformly at random, from the bootstrap
generator alone, as one auction history that all consumers share.
Consumers that need utility estimates fit theta on the records they won;
closed-form consumers also calibrate their win model, keeping the
``(c, at_edge)`` that ``calibrate_c`` returns, and solve the budget
multiplier.

Phase 2 (market): the competitive market runs once over the pool, then
each consumer trains a FedAvg model on the owners it won, which
``fltrain.evaluate`` scores on one ``fltrain.synth_dataset`` test set.

Artifacts: a market CSV (one row per auction), a summary CSV (one row
per agent), a calibration report and optional bar charts.
"""

from __future__ import annotations

import csv
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import estimator, fltrain
from .config import ConfigurationError, RunConfig, echo_config
from .market import (
    ConsumerAgent,
    MarketResult,
    compute_metrics,
    generate_do_pool,
    random_bid_history,
    request_features,
    run_market,
)
from .strategies import NEEDS_THETA, WIN_FORM, LambdaSolution, solve_lambda
from .winmodel import (
    InsufficientDataError,
    WinningFunctionModel,
    calibrate_c,
    empirical_win_curve,
)


@dataclass
class AgentCalibration:
    fit: Optional[estimator.FitResult] = None
    win_model: Optional[WinningFunctionModel] = None
    c_at_bracket_edge: Optional[bool] = None
    lambda_solution: Optional[LambdaSolution] = None
    history: Optional[np.ndarray] = None  # the bootstrap markets' outcome_dtype rows, shared

    @property
    def theta(self) -> Optional[np.ndarray]:
        return None if self.fit is None else self.fit.theta


@dataclass
class RunArtifacts:
    config: RunConfig
    result: MarketResult
    metrics: dict  # agent name -> AgentMetrics
    accuracy: dict  # agent name -> FedAvg test accuracy, None if it won nothing; empty without FL
    calibration: dict  # agent name -> AgentCalibration
    market_csv: Path
    summary_csv: Path
    calibration_report: Path


def bootstrap_history(cfg: RunConfig, pool: np.ndarray, rng: np.random.Generator) -> dict:
    """Warm-up markets with all-random bidding, then per-agent calibration.

    Bootstrap budgets are unconstrained: the warm-up exists to explore
    the bid range, not to spend real money.  Every agent bids in every
    auction, so the markets' outcome rows are one history for all of
    them: agent j's bids are ``history["bids"][:, j]`` and it won where
    ``history["winner"] == j``.  The rounds repeat the pool, so theta is fitted
    on the owners an agent won, weighted by win count, and lambda paces over the pool.
    """
    n = len(pool)
    history = random_bid_history([a.name for a in cfg.agents], pool, rng, cfg.bootstrap_rounds)
    Q = request_features(pool["id"], pool["num_samples"], n)
    utility = estimator.true_utility(pool["num_samples"], pool["blurred"])

    calibration = {}
    for j, spec in enumerate(cfg.agents):
        won = history["winner"] == j
        cal = AgentCalibration(history=history)
        if spec.strategy in NEEDS_THETA:
            if not won.any():
                raise ConfigurationError(
                    f"agent {spec.name} won no bootstrap auctions; "
                    "increase bootstrap_rounds"
                )
            wins = np.bincount(history["owner_id"][won] - 1, minlength=n)  # per pool row
            owned = wins > 0
            cal.fit = estimator.fit_with_backoff(Q[owned], utility[owned], wins[owned])
        form = WIN_FORM.get(spec.strategy)
        if form is not None:
            try:
                curve = empirical_win_curve(history["bids"][:, j], won)
                c, cal.c_at_bracket_edge = calibrate_c(curve, form)
            except InsufficientDataError as exc:
                raise ConfigurationError(
                    f"agent {spec.name} cannot calibrate its win model: {exc}"
                ) from None
            cal.win_model = WinningFunctionModel(form, c)
            samples = estimator.predict(cal.theta, Q)
            cal.lambda_solution = solve_lambda(samples, cal.win_model, cfg.scaled_budget(spec))
        calibration[spec.name] = cal
    return calibration


def train_federated(
    cfg: RunConfig, pool: np.ndarray, result: MarketResult, rng: np.random.Generator
) -> dict:
    """Per-agent FedAvg over won owners; returns agent -> test accuracy.

    The test set is 2,000 noise-free points of every class.  Owners train on
    one thread per available CPU; no output bit depends on how many there are.
    """
    centers_rng, shard_rng, test_rng = rng.spawn(3)
    centers = fltrain.make_class_centers(centers_rng)
    K, d = centers.shape
    niid = cfg.partition == "niid"
    # one draw per pool row, in pool order, whether or not the owner is won
    class_support = [
        np.sort(shard_rng.choice(K, cfg.shards_per_owner, replace=False)) if niid else None
        for _ in range(len(pool))
    ]
    test_set = fltrain.synth_dataset(2000, False, centers, 0.0, test_rng)
    w0 = np.zeros((K, d + 1))  # local_train copies it

    def train_owner(oid):
        _, num_samples, blurred, local_seed = pool[oid - 1].tolist()
        data = fltrain.synth_dataset(num_samples, blurred, centers, cfg.noise_rate_blurred,
                                     np.random.default_rng(local_seed), classes=class_support[oid - 1])
        return fltrain.local_train(w0, data, local_epochs=cfg.local_epochs), num_samples

    winner, owner_id = result.outcomes["winner"], result.outcomes["owner_id"]
    won = [np.sort(owner_id[winner == j]).tolist() for j in range(len(result.agent_names))]
    # each owner trains alone from the zero model, and numpy releases the GIL
    # in its BLAS products and array loops: threads change no bit
    import concurrent.futures  # here, off the CLI's import path

    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with concurrent.futures.ThreadPoolExecutor(threads) as executor:
        updates = executor.map(train_owner, [oid for ids in won for oid in ids])
        by_agent = [[next(updates) for _ in ids] for ids in won]
    return {
        name: fltrain.evaluate(fltrain.fedavg(ups), test_set) if ups else None
        for name, ups in zip(result.agent_names, by_agent)
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_market_csv(path, result: MarketResult):
    names = result.agent_names
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["auction_index", "owner_id", "num_samples", *(f"bid_{n}" for n in names),
                    "winner", "clearing_price"])
        out = result.outcomes
        columns = [out[c].tolist() for c in ("owner_id", "num_samples", "bids", "winner", "price")]
        for i, (oid, n, bids, winner, price) in enumerate(zip(*columns)):
            cells = ["" if math.isnan(b) else repr(b) for b in bids]
            w.writerow([i, oid, n, *cells, names[winner] if winner >= 0 else "", repr(price)])


def write_summary_csv(path, cfg: RunConfig, metrics: dict, accuracy: dict):
    specs = {a.name: a for a in cfg.agents}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["agent", "strategy", "budget", "total_samples", "unit_price", "spend",
                    f"accuracy_{cfg.partition}"])
        for name, m in metrics.items():
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
        report["agents"][name] = entry
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def run_experiment(cfg: RunConfig) -> RunArtifacts:
    """Bootstrap, competitive market, FedAvg evaluation, artifact emission."""
    root = np.random.SeedSequence(cfg.master_seed)
    pool_rng, boot_rng, market_rng, fl_rng = [
        np.random.default_rng(s) for s in root.spawn(4)
    ]
    pool = generate_do_pool(cfg.pool_size, cfg.sample_range, pool_rng)
    calibration = bootstrap_history(cfg, pool, boot_rng)
    agents = []
    for spec in cfg.agents:
        cal = calibration[spec.name]
        lam = cal.lambda_solution.lam if cal.lambda_solution else 0.0
        agents.append(ConsumerAgent(spec.name, spec.strategy, cfg.scaled_budget(spec),
                                    theta=cal.theta, win_model=cal.win_model, lam=lam))
    result = run_market(agents, pool, market_rng)
    metrics = compute_metrics(result)
    accuracy = train_federated(cfg, pool, result, fl_rng) if cfg.train_fl else {}

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
        accuracy=accuracy,
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
    written = []
    for path in sorted(artifacts_dir.glob("summary_seed*.csv")):
        seed = path.stem.replace("summary_", "")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            continue
        out_dir.mkdir(parents=True, exist_ok=True)
        budget = "-".join(sorted({r["budget"] for r in rows}, key=float))
        agents = [r["agent"] for r in rows]
        for metric in ("total_samples", "unit_price"):
            values = [float(r[metric]) if r[metric] else 0.0 for r in rows]
            chart = out_dir / f"{metric}_budget{budget}_{seed}.svg"
            _write_bar_svg(chart, f"{metric} at budget {budget} ({seed})", metric, agents, values)
            written.append(chart)
    if not written:
        print("no summary rows found; no charts emitted")
    return written
