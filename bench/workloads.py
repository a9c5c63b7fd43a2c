"""The benchmark's workloads: the inputs each one runs, made from the workload seed.

A market workload is a list of run configs. Each config is one operation:
the worker runs it with ``flmarket --out <out> sweep <dir holding that config>``
and, on ``budget_sweep``, ``flmarket plot`` on its output directory.
``oracle_certify`` is a list of (s, c, lambda) triples; one operation
certifies both closed forms on one triple against the grid oracle.

The workload seed picks the master seeds, budgets, partitions and order
of the configs, and draws the triples. The same seed always gives the
same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("fl_default", "budget_sweep", "large_pool", "oracle_certify")

# The market of configs/default.yaml, written out here so that the
# benchmark's inputs do not change when that file does.
DEFAULT_CONFIG = {
    "master_seed": 7,
    "pool_size": 100,
    "sample_range": [1000, 10000],
    "budget": 50,
    "budget_scale": 0.01,
    "bootstrap_rounds": 20,
    "partition": "iid",
    "shards_per_owner": 2,
    "noise_rate_blurred": 0.4,
    "train_fl": True,
}

# Master seeds whose runs complete at every budget at pool_size 100
# (seeds 0-39), and at budget 50 at pool_size 1000 (seeds 0-15; seed 0
# also stops at budget 150 there). The others stop in
# solve_lambda with "bid must be non-negative": bid_fbc returns a bid of
# about -1e-16 for an estimated utility of 0. That crash depends on the
# seed, so those runs are left out here; CHANGES.md records the fault.
MARKET_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                18, 20, 21, 25, 26, 29, 31, 32, 33, 34, 35, 36, 37, 38, 39)
LARGE_POOL_SEEDS = (0, 1, 4, 5, 7, 8, 9, 10, 11, 12, 14, 15)
# fl_default runs the same three markets on every seed, among them the
# master seed of configs/default.yaml. FedAvg time follows the samples
# the agents win, which differ by 11% (coefficient of variation) between
# markets; a round of three markets drawn at random would then differ by
# about 6% from seed to seed, against a benchmark bound of 25%.
FL_SEEDS = (5, 6, 7)

BUDGETS = (50, 150, 300)
PARTITIONS = ("iid", "niid")


def _size(workload: str, tiny: bool) -> dict:
    """Master seeds or triples per round, and config overrides.

    A round takes about 6-9 s, so that a 25 s run holds two to four
    rounds and each operation's time can be taken as a median over them.
    budget_sweep holds nine markets per round because run time depends on
    the market a seed draws (how many estimator fits back off).
    """
    if tiny:
        small = {"pool_size": 30, "bootstrap_rounds": 5}
        return {
            "fl_default": {"seeds": 2, "overrides": dict(small, local_epochs=3)},
            "budget_sweep": {"seeds": 3, "overrides": small},
            "large_pool": {"seeds": 1, "overrides": dict(small, pool_size=60)},
            "oracle_certify": {"triples": 2},
        }[workload]
    return {
        "fl_default": {"seeds": 3, "overrides": {}},
        "budget_sweep": {"seeds": 9, "overrides": {}},
        "large_pool": {"seeds": 1, "overrides": {"pool_size": 1000}},
        "oracle_certify": {"triples": 150},
    }[workload]


def _yaml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_yaml_value(v) for v in value) + "]"
    return str(value)


def write_config(path: Path, mapping: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k}: {_yaml_value(v)}\n" for k, v in mapping.items()))


def _market_configs(workload: str, seed: int, tiny: bool) -> list:
    """One config per operation, in the order the round runs them."""
    size = _size(workload, tiny)
    rng = random.Random(seed)
    if workload == "fl_default":
        master_seeds = rng.sample(FL_SEEDS, size["seeds"])
        extras = [{"partition": rng.choice(PARTITIONS)} for _ in master_seeds]
    elif workload == "budget_sweep":
        master_seeds = rng.sample(MARKET_SEEDS, size["seeds"])
        extras = [{"budget": BUDGETS[i % 3], "train_fl": False} for i in range(len(master_seeds))]
    else:
        master_seeds = rng.sample(LARGE_POOL_SEEDS, size["seeds"])
        extras = [{"train_fl": False} for _ in master_seeds]
    configs = []
    for ms, extra in zip(master_seeds, extras):
        stem = "_".join([f"s{ms}"] + [str(extra[k]) for k in ("partition", "budget") if k in extra])
        mapping = dict(DEFAULT_CONFIG, master_seed=ms, **extra, **size["overrides"])
        configs.append({"stem": stem, "config": mapping})
    return configs


def make_triples(seed: int, count: int) -> list:
    """(s, c, lambda) drawn as in acceptance criterion 1."""
    rng = random.Random(seed)
    return [
        [rng.uniform(1e-3, 10.0), rng.uniform(1e-3, 5.0), rng.uniform(0.0, 5.0)]
        for _ in range(count)
    ]


def make_inputs(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> dict:
    """Write the workload's inputs under work_dir and return the worker's spec.

    Paths in the spec are relative to the directory the benchmark runs in,
    so the config echo the program writes, and so the output digest, do
    not depend on where the checkout lives.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = {"workload": workload, "seed": seed, "out_dir": str(work_dir / "out")}
    if workload == "oracle_certify":
        spec["triples"] = make_triples(seed, _size(workload, tiny)["triples"])
    else:
        spec["plot"] = workload == "budget_sweep"
        spec["ops"] = []
        for entry in _market_configs(workload, seed, tiny):
            config_dir = work_dir / "configs" / entry["stem"]
            write_config(config_dir / f"{entry['stem']}.yaml", entry["config"])
            spec["ops"].append(dict(entry, config_dir=str(config_dir)))
    (work_dir / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    return spec
