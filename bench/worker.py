"""One workload process: set up, then run whole rounds of operations in a closed loop.

Run by bench/run.py, never by hand:

    python3 bench/worker.py <spec.json> --setup-only
    python3 bench/worker.py <spec.json> --seconds S --trace 0|1 --result <file>

``--setup-only`` does the set-up and prints the monotonic clock, so the
parent can time the set-up from before it started the process. Otherwise
the worker runs rounds until the next one would end after ``S`` seconds
(always at least one), and writes each operation's wall time in each round,
failed operations, output digests and peak memory to ``--result``. With ``--trace 1``
untraced and traced rounds alternate; the spans of the traced ones give
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def setup(spec: dict) -> dict:
    """What every operation needs before it can begin: the modules and parsed configs."""
    import flmarket
    import flmarket.cli
    from flmarket.config import parse_config

    for op in spec.get("ops", []):
        parse_config(Path(op["config_dir"]) / f"{op['stem']}.yaml")
    return {name: module for name, module in sys.modules.items()
            if name == "flmarket" or name.startswith("flmarket.")}


def market_round(spec: dict, modules: dict) -> tuple:
    """One sweep (and one plot on budget_sweep) per config.

    Returns each operation's wall time, the failed operations as
    [index, reason], and no extra output: the program writes its own files.
    """
    cli = modules["flmarket.cli"]
    out_dir = spec["out_dir"]
    walls, failures = [], []
    for index, op in enumerate(spec["ops"]):
        start = time.perf_counter()
        try:
            code = cli.main(["--out", out_dir, "sweep", op["config_dir"]])
            if code == 0 and spec["plot"]:
                code = cli.main(["plot", f"{out_dir}/{op['stem']}"])
            if code != 0:
                failures.append([index, f"exit code {code}"])
        except Exception as exc:
            failures.append([index, f"{type(exc).__name__}: {exc}"])
        walls.append(time.perf_counter() - start)
    return walls, failures, None


def oracle_round(spec: dict, modules: dict) -> tuple:
    """Certify both closed forms on each triple.

    Returns each operation's wall time, the failed operations and one row
    per triple: [s, c, lambda, oracle simple, fbs, oracle complex, fbc].
    """
    strategies = modules["flmarket.strategies"]
    winmodel = modules["flmarket.winmodel"]
    forms = ((winmodel.WinForm.SIMPLE, "bid_fbs"), (winmodel.WinForm.COMPLEX, "bid_fbc"))
    walls, rows, failures = [], [], []
    for index, (s, c, lam) in enumerate(spec["triples"]):
        start = time.perf_counter()
        try:
            row = [s, c, lam]
            for form, closed_form in forms:
                model = winmodel.WinningFunctionModel(form, c)
                row += [strategies.oracle_optimal_bid(s, model, lam),
                        getattr(strategies, closed_form)(s, c, lam)]
            rows.append(row)
        except Exception as exc:
            failures.append([index, f"{type(exc).__name__}: {exc}"])
        walls.append(time.perf_counter() - start)
    return walls, failures, rows


def digest_outputs(out_dir: Path) -> tuple:
    """sha256 over every output file's relative path and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
        size += len(data)
    return h.hexdigest(), size


def one_round(spec: dict, modules: dict, tracer=None) -> dict:
    """Run the round from an empty output directory; time, digest and trace it."""
    run_round = oracle_round if spec["workload"] == "oracle_certify" else market_round
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if tracer is not None:
        tracer.reset()
        tracer.install(modules)
    try:
        walls, failures, rows = run_round(spec, modules)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if rows is not None:
        (out_dir / "oracle.json").write_text(json.dumps(rows) + "\n")
    digest, size = digest_outputs(out_dir)
    record = {"op_walls": walls, "failures": failures, "digest": digest, "traced": tracer is not None}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["layers"]["experiment.bytes_written"] = size
    return record


def run_rounds(spec: dict, modules: dict, seconds: float, tracer=None) -> list:
    """Whole rounds until the next would likely end after ``seconds``.

    With a tracer, rounds alternate untraced and traced, starting untraced,
    and the run ends after a traced round, so that both kinds see the same
    state of the host.
    """
    rounds = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(one_round(spec, modules, tracer if traced else None))
        if tracer is not None and not traced:
            continue
        step = sum(sum(r["op_walls"]) for r in rounds[-2 if traced else -1:])
        if time.perf_counter() - started + step > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text())
    modules = setup(spec)
    if args.setup_only:
        print(repr(time.perf_counter()), flush=True)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    result = {"rounds": run_rounds(spec, modules, args.seconds, tracer)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / "spans.jsonl")  # spans of the last traced round
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
