"""Golden outputs: the sha256 of the market, summary and calibration file of
a fixed set of runs, the paper's table over them, and one fit on the clamp
floor.

    python3 tests/golden.py --write   # regenerate tests/golden.json
    python3 tests/golden.py --diff    # print what moved against tests/golden.json
    python3 tests/golden.py           # print the current outputs as JSON

The set is seeds 0-9 at budgets 50, 150 and 300 without FL, pool_size
1,000 at seed 4 without FL, ten const agents with budgets 50, 100, ..., 500
at seed 0 without FL (every bid ties until budgets run out), three more
edges at seed 0 without FL (every owner holding 1,000,000 samples, so the
size feature is constant and the fits are rank-deficient; a pool of two
owners; and a pool of ten owners with one bootstrap round, whose fits
predict 1 + theta.q as low as -4.55, so those predictions end on the clamp
floor), and three FL runs: seed 5 iid, seed 6 niid, and seed 7 niid with
one class per owner and three local epochs.  It runs in one child process
pinned to OpenBLAS's SSE3 (Prescott) kernels on one thread and to numpy's
baseline (X86_V2) SIMD loops, so the bytes depend on the numpy and
OpenBLAS builds and not on the CPU.  The config echo is left out: it holds
the output path.

No searched config that the gate accepts ends a fit on the clamp floor
(1 + theta.q at CLAMP_EPS over the fit's own rows), so the fit's floor is
pinned on the library: what ``estimator.fit`` returns on
``make_history([-0.2, 0.5, -1.0], 20)`` drawn from the suite's generator
(seed 12345), whose least-squares theta lies beyond the floor, so the fit
ends on it after 200 solves.

``--diff`` exits 1 when a digest or the floor fit moved or a run was added
or removed, and 0 otherwise, so it can gate a change that keeps the bits.

The table gives, per budget, each strategy's mean ``total_samples`` over
the ten seeds, and on how many seeds fbs and fbc won more samples than
each baseline.  A change that moves output bits regenerates the file, and
its diff shows what the move did to that result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
PINNED = {
    "OPENBLAS_CORETYPE": "Prescott",
    "OPENBLAS_NUM_THREADS": "1",
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}
SEEDS = range(10)
BUDGETS = (50, 150, 300)
BASELINES = ("const", "rand", "bmub", "lin")


def runs() -> dict:
    """Run name -> RunConfig keyword arguments, output_dir aside."""
    from flmarket.config import AgentSpec
    from flmarket.strategies import Strategy

    out = {
        f"seed{seed}_budget{budget}": dict(master_seed=seed, budget=float(budget), train_fl=False)
        for budget in BUDGETS
        for seed in SEEDS
    }
    out["pool1000_seed4"] = dict(master_seed=4, pool_size=1000, train_fl=False)
    # the tie edge: equal const bids tie on every row while budgets bind
    ties = [AgentSpec(f"c{i}", Strategy.CONST, 50.0 * (i + 1)) for i in range(10)]
    out["const_ties_seed0"] = dict(master_seed=0, train_fl=False, agents=ties)
    # the size edges: one owner size for the whole pool, and the smallest pool
    out["samples1e6_seed0"] = dict(master_seed=0, sample_range=(10**6, 10**6), train_fl=False)
    out["pool2_seed0"] = dict(master_seed=0, pool_size=2, train_fl=False)
    # the prediction floor: at seed 0 predict sees 1 + theta.q as low as -4.55
    out["predict_floor_seed0"] = dict(master_seed=0, pool_size=10, bootstrap_rounds=1, train_fl=False)
    out["fl_iid_seed5"] = dict(master_seed=5, partition="iid")
    out["fl_niid_seed6"] = dict(master_seed=6, partition="niid")
    # the FL edge: one class per owner, three local steps
    out["fl_niid_shard1_seed7"] = dict(master_seed=7, partition="niid", shards_per_owner=1,
                                       local_epochs=3)
    return out


def floor_fit() -> dict:
    """``estimator.fit`` on a history whose fit ends on the clamp floor."""
    import numpy as np

    from conftest import make_history
    from flmarket.estimator import fit

    result = fit(*make_history([-0.2, 0.5, -1.0], 20, np.random.default_rng(12345)))
    return {"theta": result.theta.tolist(), "iterations": result.iterations, "loss": result.loss,
            "grad_rel": result.grad_rel, "converged": result.converged}


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def table(samples: dict) -> dict:
    """The paper's result from {(seed, budget): {agent: total_samples}}."""
    mean, more = {}, {}
    for budget in BUDGETS:
        rows = [samples[seed, budget] for seed in SEEDS]
        mean[str(budget)] = {name: sum(r[name] for r in rows) / len(rows) for name in rows[0]}
        more[str(budget)] = {
            fb: {base: sum(r[fb] > r[base] for r in rows) for base in BASELINES}
            for fb in ("fbs", "fbc")
        }
    return {"mean_total_samples": mean, "seeds_with_more_samples": more}


def outputs() -> dict:
    """Run the set in this process and digest its files."""
    from flmarket.config import RunConfig
    from flmarket.experiment import run_experiment

    digests, samples = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, kwargs in runs().items():
            art = run_experiment(RunConfig(output_dir=str(Path(tmp) / name), **kwargs))
            digests[name] = {
                "market": sha256(art.market_csv),
                "summary": sha256(art.summary_csv),
                "calibration": sha256(art.calibration_report),
            }
            if name.startswith("seed"):  # the seed x budget grid makes the table
                key = kwargs["master_seed"], int(kwargs["budget"])
                samples[key] = {n: m.total_samples for n, m in art.metrics.items()}
    return {"versions": versions(), "table": table(samples), "runs": digests, "floor_fit": floor_fit()}


def pinned_outputs() -> dict:
    """``outputs()`` from a child process under the pinned kernels."""
    path = [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **PINNED)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        env=env, capture_output=True, text=True,
    )
    if child.returncode != 0:
        raise RuntimeError(f"golden run failed:\n{child.stderr}")
    return json.loads(child.stdout)


def row(cells) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


def diff(old: dict, new: dict) -> str:
    """What moved from the golden outputs ``old`` to ``new``: the digests by run, the
    runs added or removed, and both tables side by side as ``old -> new``."""
    lines = []
    if old["versions"] != new["versions"]:
        lines.append(f"versions: {old['versions']} -> {new['versions']}")
    kept = sorted(old["runs"].keys() & new["runs"].keys())
    moved = {run: [kind for kind, digest in old["runs"][run].items() if new["runs"][run].get(kind) != digest]
             for run in kept}
    total = sum(len(old["runs"][run]) for run in kept)
    lines.append(f"{sum(map(len, moved.values()))} of {total} digests moved:")
    lines += [f"  {run}: {' '.join(kinds)}" for run, kinds in moved.items() if kinds]
    for label, a, b in (("added", new, old), ("removed", old, new)):
        lines.append(f"{label}: {', '.join(sorted(a['runs'].keys() - b['runs'].keys())) or 'none'}")
    fields = [key for key, value in old["floor_fit"].items() if new["floor_fit"].get(key) != value]
    lines.append(f"floor fit moved: {' '.join(fields) or 'none'}")

    mean = [out["table"]["mean_total_samples"] for out in (old, new)]
    names = list(mean[1][str(BUDGETS[0])])
    lines += ["", "mean total_samples, old -> new:", row(["budget", *names]), row(["---"] * (len(names) + 1))]
    for budget in map(str, BUDGETS):
        cells = [" -> ".join(f"{m[budget].get(name, math.nan):,.0f}" for m in mean) for name in names]
        lines.append(row([budget, *cells]))
    more = [out["table"]["seeds_with_more_samples"] for out in (old, new)]
    lines += ["", "seeds_with_more_samples, old -> new:", row(["budget", "strategy", *BASELINES]),
              row(["---"] * (len(BASELINES) + 2))]
    for budget in map(str, BUDGETS):
        for fb in ("fbs", "fbc"):
            cells = [" -> ".join(str(m[budget][fb][base]) for m in more) for base in BASELINES]
            lines.append(row([budget, fb, *cells]))
    return "\n".join(lines) + "\n"


def changed(old: dict, new: dict) -> bool:
    """Whether a digest or the floor fit moved, or a run was added or removed."""
    return old["runs"] != new["runs"] or old["floor_fit"] != new["floor_fit"]


def main(argv) -> int:
    if argv == ["--child"]:
        print(json.dumps(outputs()))
        return 0
    if argv not in ([], ["--write"], ["--diff"]):
        print(__doc__, file=sys.stderr)
        return 2
    found = pinned_outputs()
    if argv == ["--diff"]:
        old = json.loads(GOLDEN.read_text())
        sys.stdout.write(diff(old, found))
        return int(changed(old, found))
    text = json.dumps(found, indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
