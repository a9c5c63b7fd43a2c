"""The flmarket benchmark. Run from the root of the repository:

    python3 bench/run.py --workload <name> [--seed 1] [--seconds 25] [--trace 0|1]

Workloads: fl_default, budget_sweep, large_pool, oracle_certify (see
bench/README.md). The inputs are made from --seed. The workload runs in a
fresh worker process with BLAS and OpenMP threads fixed to one, after
separate processes have timed the set-up. The outputs of the last round
are checked, a digest of them is printed, and the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb. With
--trace 1 they are the per-layer metrics of a traced run, which also
writes its spans and metrics under bench/out/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

SETUP_SAMPLES = 9  # fresh processes timed per run; a first, untimed one compiles bytecode
DEADLINE_S = 170  # the whole run must end within 180 s
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "config.parse_s": "s",
    "cli.self_s": "s",
    "market.pool_s": "s",
    "market.bootstrap_markets_s": "s",
    "market.competitive_s": "s",
    "market.auctions": "count",
    "market.us_per_auction": "us",
    "estimator.fit_s": "s",
    "estimator.predict_s": "s",
    "estimator.fits": "count",
    "estimator.won_records": "count",
    "estimator.predict_calls": "count",
    "estimator.lr_backoffs": "count",
    "winmodel.curve_s": "s",
    "winmodel.calibrate_s": "s",
    "winmodel.objective_evals": "count",
    "strategies.solve_lambda_s": "s",
    "strategies.lambda_iterations": "count",
    "strategies.spend_evals": "count",
    "strategies.closed_form_bids": "count",
    "strategies.oracle_s": "s",
    "strategies.oracle_calls": "count",
    "strategies.oracle_ms_per_call": "ms",
    "fltrain.synth_s": "s",
    "fltrain.local_train_s": "s",
    "fltrain.fedavg_s": "s",
    "fltrain.evaluate_s": "s",
    "fltrain.local_train_calls": "count",
    "fltrain.sample_steps": "count",
    "fltrain.sample_steps_per_s": "1/s",
    "experiment.bootstrap_self_s": "s",
    "experiment.train_federated_self_s": "s",
    "experiment.write_s": "s",
    "experiment.plot_s": "s",
    "experiment.history_records": "count",
    "experiment.bytes_written": "B",
    "trace.overhead_s": "s",
}


def worker_env(root: Path) -> dict:
    """The worker's environment: one BLAS/OpenMP thread, and src/ importable."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def time_setup(worker: list, env: dict) -> list:
    """Set-up times of fresh processes, from before each starts to its first operation."""
    times = []
    for sample in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(worker + ["--setup-only"], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        if sample:
            times.append(float(done.stdout.split()[-1]) - start)
    return times


def set_wall_time(rounds: list) -> float:
    """Wall time of the workload's fixed set of operations.

    Each operation's time is the median over the run's rounds, so that a
    slow burst of the host during one round does not move the result.
    """
    return sum(statistics.median(times) for times in zip(*(r["op_walls"] for r in rounds)))


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One run of one workload from the current directory; returns the result object.

    ``tiny`` shrinks the inputs for the benchmark's own tests.
    """
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "flmarket" / "__init__.py").is_file():
        raise BenchError("src/flmarket not found; run from the root of the repository")
    name = f"{workload}-seed{seed}" + ("-tiny" if tiny else "")
    work_dir = Path("bench", "out", "work", name)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spec = workloads.make_inputs(workload, seed, work_dir, tiny)
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")), str(work_dir / "spec.json")]
    env = worker_env(root)
    result_path = work_dir / "result.json"
    trace_dir = Path("bench", "out", "trace", name)
    try:
        setup_times = time_setup(worker, env)
        subprocess.run(
            worker + ["--seconds", str(seconds), "--trace", str(trace),
                      "--result", str(result_path), "--trace-dir", str(trace_dir)],
            env=env, stdout=subprocess.DEVNULL, check=True,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"worker failed: {exc}\n{getattr(exc, 'stderr', None) or ''}") from exc
    result = json.loads(result_path.read_text())

    rounds = result["rounds"]
    ops = len(spec.get("ops") or spec.get("triples"))
    raised = {i for r in rounds for i, _ in r["failures"]}
    problems = checks.check_workload(spec, raised)
    failed = sum(len({i for i, _ in r["failures"]} | set(problems)) for r in rounds)
    for i, reasons in sorted(problems.items()):
        print(f"bench: operation {i} failed its checks: {reasons[:3]}", file=sys.stderr)
    for i, reason in sorted({tuple(f) for r in rounds for f in r["failures"]}):
        print(f"bench: operation {i} raised: {reason}", file=sys.stderr)
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        print(f"bench: rounds of one run wrote different outputs: {sorted(digests)}", file=sys.stderr)
    print(f"digest {workload} seed {seed}: {rounds[-1]['digest']}")

    untraced = [r for r in rounds if not r["traced"]]
    wall = set_wall_time(untraced)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        traced_wall = set_wall_time(traced)
        layers["trace.overhead_s"] = traced_wall - wall
        (trace_dir / "layers.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "untraced_wall_s": wall,
             "traced_wall_s": traced_wall, "layers": layers}, indent=1, sort_keys=True) + "\n")
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setup_times), "wall_s": wall,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
    return {"correct": len(digests) == 1, "attempted": ops * len(rounds),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flmarket benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
