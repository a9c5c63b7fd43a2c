"""Output checks, computed apart from the program.

Nothing here imports flmarket. Each check either recomputes a number
from the run's inputs and its other outputs, or tests a property the
method must have; none compares against a stored copy of earlier output.
Each function returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

BID_REL_TOL = 1e-9  # closed-form bid against the numpy.roots root
SUM_REL_TOL = 1e-12  # float sums recomputed in the program's order
ORACLE_TOL = 1e-4  # |oracle - closed form| / (1 + oracle), as acceptance criterion 1
GRID_POINTS = 10_001
PACING_TOL = 0.01  # solve_lambda's documented tolerance on expected spend
CHANCE_ACCURACY = 0.1  # ten classes


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def closed_form_root(form: str, s: float, c: float, lam: float) -> float:
    """The optimal bid as the non-negative root of the first-order condition.

    simple:  b^2 + 2cb - sc/(lam+1) = 0
    complex: b^3 + 3c^2 b - 2c^2 s/(lam+1) = 0
    """
    if form == "simple":
        roots = np.roots([1.0, 2.0 * c, -s * c / (lam + 1.0)])
    else:
        roots = np.roots([1.0, 0.0, 3.0 * c * c, -2.0 * c * c * s / (lam + 1.0)])
    real = roots[np.argsort(np.abs(roots.imag))[: 2 if form == "simple" else 1]].real
    return max(float(real.max()), 0.0)


def utility_estimate(theta, owner_id: int, num_samples: int, pool_size: int) -> float:
    """s = max(ln max(1 + theta.q, 1e-6), 0) with q = [1, id/P, n/10000]."""
    q = (1.0, owner_id / pool_size, num_samples / 10000.0)
    dot = sum(t * x for t, x in zip(theta, q))
    return max(math.log(max(1.0 + dot, 1e-6)), 0.0)


def check_market_run(run_dir: Path, config: dict, plot: bool) -> list:
    """Every check on one run_experiment's market, summary and calibration files."""
    tag = f"seed{config['master_seed']}"
    try:
        market = _read_csv(run_dir / f"market_{tag}.csv")
        summary = _read_csv(run_dir / f"summary_{tag}.csv")
        calibration = json.loads((run_dir / f"calibration_{tag}.json").read_text())["agents"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"missing or unreadable output: {exc}"]
    problems = []
    pool = config["pool_size"]
    budget = config["budget"] * config["budget_scale"]
    names = [row["agent"] for row in summary]

    owner_ids = sorted(int(row["owner_id"]) for row in market)
    if owner_ids != list(range(1, pool + 1)):
        problems.append("owner ids 1..pool_size are not each auctioned exactly once")

    closed = {
        name: (entry["theta"], entry["c"], entry["lambda"], entry["win_form"])
        for name, entry in calibration.items()
        if "lambda" in entry
    }
    remaining = {n: budget for n in names}
    spent = {n: 0.0 for n in names}
    samples = {n: 0 for n in names}
    for row in market:
        where = f"auction {row['auction_index']}"
        owner_id, num_samples = int(row["owner_id"]), int(row["num_samples"])
        bids = {n: float(row[f"bid_{n}"]) for n in names if row[f"bid_{n}"] != ""}
        for n in names:
            if (n in bids) != (remaining[n] > 0):
                problems.append(f"{where}: {n} has a bid but no budget, or budget but no bid")
        for n, b in bids.items():
            if not b >= 0.0:
                problems.append(f"{where}: {n} bid {b!r} is negative")
            if b > remaining[n]:
                problems.append(f"{where}: {n} bid {b!r} exceeds remaining budget {remaining[n]!r}")
        winner, price = row["winner"], float(row["clearing_price"])
        positive = {n: b for n, b in bids.items() if b > 0}
        if positive:
            best = max(positive.values())
            if positive.get(winner) != best or price != best:
                problems.append(f"{where}: winner {winner!r} paying {price!r} is not the highest bid {best!r}")
        elif winner != "" or price != 0.0:
            problems.append(f"{where}: winner {winner!r} with no positive bid")
        for n, (theta, c, lam, form) in closed.items():
            if n in bids:
                s = utility_estimate(theta, owner_id, num_samples, pool)
                expected = min(closed_form_root(form, s, c, lam), remaining[n])
                if not _close(expected, bids[n], BID_REL_TOL):
                    problems.append(f"{where}: {n} bid {bids[n]!r}, recomputed {expected!r}")
        if winner in remaining:
            remaining[winner] -= price
            spent[winner] += price
            samples[winner] += num_samples
            if spent[winner] > budget * (1.0 + SUM_REL_TOL):
                problems.append(f"{where}: {winner} spent {spent[winner]!r} of budget {budget!r}")

    accuracy_column = f"accuracy_{config['partition']}"
    for row in summary:
        n = row["agent"]
        if int(row["total_samples"]) != samples[n]:
            problems.append(f"summary {n}: total_samples {row['total_samples']} != {samples[n]}")
        if not _close(float(row["spend"]), spent[n], SUM_REL_TOL):
            problems.append(f"summary {n}: spend {row['spend']} != {spent[n]!r}")
        unit_price = spent[n] / (samples[n] / 1000.0) if samples[n] else None
        if unit_price is None:
            if row["unit_price"] != "":
                problems.append(f"summary {n}: unit_price given with no samples")
        elif row["unit_price"] == "" or not _close(float(row["unit_price"]), unit_price, SUM_REL_TOL):
            problems.append(f"summary {n}: unit_price {row['unit_price']!r} != {unit_price!r}")
        if config["train_fl"]:
            acc = row[accuracy_column]
            if (acc != "") != (samples[n] > 0):
                problems.append(f"summary {n}: accuracy {acc!r} with {samples[n]} samples won")
            elif acc and not CHANCE_ACCURACY < float(acc) <= 1.0:
                problems.append(f"summary {n}: accuracy {acc} not in (0.1, 1]")

    for n, entry in calibration.items():
        if "lambda" not in entry:
            continue
        lam, spend, target = entry["lambda"], entry["expected_spend_per_request"], entry["spend_target"]
        if not _close(target, budget / pool, SUM_REL_TOL):
            problems.append(f"calibration {n}: spend target {target!r} != budget / pool_size")
        if not (abs(spend - target) <= PACING_TOL * target or (lam == 0.0 and spend <= target)):
            problems.append(f"calibration {n}: lambda {lam!r} paces spend {spend!r} to target {target!r}")

    if plot:
        problems += check_charts(run_dir, summary, tag)
    return problems


def check_charts(run_dir: Path, summary: list, tag: str) -> list:
    """One parseable SVG per metric for the run's (seed, budget) group, one bar per agent."""
    problems = []
    budget = summary[0]["budget"]
    expected = {f"{metric}_budget{budget}_{tag}.svg" for metric in ("total_samples", "unit_price")}
    found = {p.name for p in run_dir.glob("*.svg")}
    if found != expected:
        problems.append(f"charts {sorted(found)} != {sorted(expected)}")
    for name in sorted(found & expected):
        try:
            root = ET.parse(run_dir / name).getroot()
        except ET.ParseError as exc:
            problems.append(f"{name}: does not parse: {exc}")
            continue
        bars = root.findall("{http://www.w3.org/2000/svg}rect")
        if not root.tag.endswith("svg") or len(bars) != len(summary):
            problems.append(f"{name}: {len(bars)} bars for {len(summary)} agents")
    return problems


def surplus(s: float, c: float, lam: float, form: str, b):
    """(s - (1+lam) b) W(b), with W(b) = b/(c+b) or b^2/(c^2+b^2)."""
    b = np.asarray(b, dtype=float)
    win = b / (c + b) if form == "simple" else b * b / (c * c + b * b)
    return (s - (1.0 + lam) * b) * win


def check_oracle_row(row: list) -> list:
    """Closed forms against the oracle, and the oracle against an independent grid."""
    s, c, lam = row[:3]
    problems = []
    grid = np.linspace(0.0, s, GRID_POINTS)
    for form, (oracle, closed) in (("simple", row[3:5]), ("complex", row[5:7])):
        err = abs(closed - oracle) / (1.0 + oracle)
        if not err <= ORACLE_TOL:
            problems.append(f"{form}: closed form {closed!r} vs oracle {oracle!r}, error {err:.2e}")
        best = float(surplus(s, c, lam, form, grid).max())
        at_oracle = float(surplus(s, c, lam, form, oracle))
        if not at_oracle >= best - 1e-12 * abs(best):
            problems.append(f"{form}: oracle surplus {at_oracle!r} below grid maximum {best!r}")
    return problems


def check_oracle(out_dir: Path, triples: list, failed: set) -> dict:
    """Problems per triple index from oracle.json; raised triples are skipped."""
    try:
        rows = json.loads((out_dir / "oracle.json").read_text())
    except (OSError, ValueError) as exc:
        return {i: [f"missing or unreadable oracle.json: {exc}"] for i in range(len(triples))}
    kept = [i for i in range(len(triples)) if i not in failed]
    if len(rows) != len(kept):
        return {i: ["oracle.json has the wrong number of rows"] for i in kept}
    problems = {}
    for i, row in zip(kept, rows):
        found = (["row does not match its triple"] if row[:3] != triples[i] else []) + check_oracle_row(row)
        if found:
            problems[i] = found
    return problems


def check_workload(spec: dict, failed: set) -> dict:
    """Problems per operation index for the outputs of the last round."""
    out_dir = Path(spec["out_dir"])
    if spec["workload"] == "oracle_certify":
        return check_oracle(out_dir, spec["triples"], failed)
    problems = {}
    for i, op in enumerate(spec["ops"]):
        if i in failed:
            continue
        found = check_market_run(out_dir / op["stem"], op["config"], spec["plot"])
        if found:
            problems[i] = found
    return problems
