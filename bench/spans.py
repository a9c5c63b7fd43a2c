"""Spans around calls into flmarket's modules, recorded from outside the program.

Each wrapped function is replaced at the attribute its caller looks it up
by, so ``experiment`` calling ``run_market`` is timed at
``flmarket.experiment.run_market``. A span is (name, start, end, parent,
error); self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute) pairs wrapped in a traced run. The span name is
# "<module>.<attribute>" without the package prefix.
WRAPPED = (
    ("flmarket.cli", "main"),
    ("flmarket.cli", "parse_config"),
    ("flmarket.cli", "run_experiment"),
    ("flmarket.cli", "emit_plots"),
    ("flmarket.experiment", "generate_do_pool"),
    ("flmarket.experiment", "bootstrap_history"),
    ("flmarket.experiment", "run_market"),
    ("flmarket.experiment", "empirical_win_curve"),
    ("flmarket.experiment", "calibrate_c"),
    ("flmarket.experiment", "solve_lambda"),
    ("flmarket.experiment", "train_federated"),
    ("flmarket.experiment", "write_market_csv"),
    ("flmarket.experiment", "write_summary_csv"),
    ("flmarket.experiment", "write_calibration_report"),
    ("flmarket.estimator", "fit_with_backoff"),
    ("flmarket.estimator", "fit"),
    ("flmarket.estimator", "predict"),
    ("flmarket.winmodel", "calibration_objective"),
    ("flmarket.strategies", "expected_spend_per_request"),
    ("flmarket.strategies", "oracle_optimal_bid"),
    ("flmarket.market", "closed_form_bid"),
    ("flmarket.fltrain", "synth_dataset"),
    ("flmarket.fltrain", "local_train"),
    ("flmarket.fltrain", "fedavg"),
    ("flmarket.fltrain", "evaluate"),
)


def _count_work(counts, name, args, kwargs, result):
    """Counts taken at the boundary, from arguments and return values."""
    if name == "experiment.run_market":
        counts["auctions"] += len(result.outcomes)
    elif name == "experiment.bootstrap_history":
        counts["history_records"] += sum(len(cal.history) for cal in result.values())
    elif name == "estimator.fit_with_backoff":
        counts["won_records"] += len(args[0])
    elif name == "experiment.solve_lambda":
        counts["lambda_iterations"] += result.iterations
    elif name == "strategies.expected_spend_per_request":
        counts["closed_form_bids"] += len(args[0])
    elif name == "market.closed_form_bid":
        counts["closed_form_bids"] += 1
    elif name == "fltrain.local_train":
        dataset = args[1] if len(args) > 1 else kwargs["dataset"]
        counts["sample_steps"] += len(dataset.labels) * kwargs.get("local_epochs", 100)


class Tracer:
    """Holds the spans and counts of one traced round in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._originals = []

    def install(self, modules: dict) -> None:
        for module_name, attr in WRAPPED:
            module = modules[module_name]
            name = f"{module_name.removeprefix('flmarket.')}.{attr}"
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, error)
            _count_work(self.counts, name, args, kwargs, return_value)
            return return_value

        return traced

    def layer_metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "error": error}) + "\n")


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one round from its spans and counts."""
    total = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    child_time = defaultdict(float)  # parent index -> time covered by its children
    for name, start, end, parent, error in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        errors[name] += error is not None
        if parent >= 0:
            child_time[parent] += duration
    self_time = defaultdict(float)
    market_by_phase = defaultdict(float)
    for index, (name, start, end, parent, error) in enumerate(spans):
        self_time[name] += (end - start) - child_time[index]
        if name == "experiment.run_market":
            market_by_phase[spans[parent][0]] += end - start
    # cli.main calls run_experiment and emit_plots; its own share is the rest
    cli_self = total["cli.main"] - total["cli.run_experiment"] - total["cli.emit_plots"]
    bootstrap_markets = market_by_phase["experiment.bootstrap_history"]
    competitive = market_by_phase["cli.run_experiment"]
    auctions = counts["auctions"]
    local_train = total["fltrain.local_train"]
    oracle_calls = calls["strategies.oracle_optimal_bid"]
    return {
        "config.parse_s": total["cli.parse_config"],
        "cli.self_s": cli_self,
        "market.pool_s": total["experiment.generate_do_pool"],
        "market.bootstrap_markets_s": bootstrap_markets,
        "market.competitive_s": competitive,
        "market.auctions": auctions,
        "market.us_per_auction": 1e6 * (bootstrap_markets + competitive) / auctions if auctions else 0.0,
        "estimator.fit_s": total["estimator.fit_with_backoff"],
        "estimator.predict_s": total["estimator.predict"],
        "estimator.fits": calls["estimator.fit_with_backoff"],
        "estimator.won_records": counts["won_records"],
        "estimator.predict_calls": calls["estimator.predict"],
        "estimator.lr_backoffs": errors["estimator.fit"],
        "winmodel.curve_s": total["experiment.empirical_win_curve"],
        "winmodel.calibrate_s": total["experiment.calibrate_c"],
        "winmodel.objective_evals": calls["winmodel.calibration_objective"],
        "strategies.solve_lambda_s": total["experiment.solve_lambda"],
        "strategies.lambda_iterations": counts["lambda_iterations"],
        "strategies.spend_evals": calls["strategies.expected_spend_per_request"],
        "strategies.closed_form_bids": counts["closed_form_bids"],
        "strategies.oracle_s": total["strategies.oracle_optimal_bid"],
        "strategies.oracle_calls": oracle_calls,
        "strategies.oracle_ms_per_call": 1e3 * total["strategies.oracle_optimal_bid"] / oracle_calls if oracle_calls else 0.0,
        "fltrain.synth_s": total["fltrain.synth_dataset"],
        "fltrain.local_train_s": local_train,
        "fltrain.fedavg_s": total["fltrain.fedavg"],
        "fltrain.evaluate_s": total["fltrain.evaluate"],
        "fltrain.local_train_calls": calls["fltrain.local_train"],
        "fltrain.sample_steps": counts["sample_steps"],
        "fltrain.sample_steps_per_s": counts["sample_steps"] / local_train if local_train else 0.0,
        "experiment.bootstrap_self_s": self_time["experiment.bootstrap_history"],
        "experiment.train_federated_self_s": self_time["experiment.train_federated"],
        "experiment.write_s": sum(total[f"experiment.write_{what}"] for what in
                                  ("market_csv", "summary_csv", "calibration_report")),
        "experiment.plot_s": total["cli.emit_plots"],
        "experiment.history_records": counts["history_records"],
    }
