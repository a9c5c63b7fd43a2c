"""One-line mutants of the solvers, each with the outcome the suite should give.

    python3 tests/mutants.py            # run every mutant
    python3 tests/mutants.py NAME ...   # run the named ones
    python3 tests/mutants.py --list     # print the list

Each mutant replaces one exact piece of text in one file of a temporary copy
of the repository, then runs the Tier-1 suite there with ``-x``, less
``test_mutants.py``, which fails on any mutated copy.  A mutant is killed
when the suite fails or runs past ``TIMEOUT_S``, and survives when it
passes.  An ``equivalent`` mutant cannot change any output, so it is expected
to survive; every other mutant is expected to be killed.  The copy goes under
``TMPDIR``.  Prints one line per mutant and exits non-zero when an outcome
differs from the expected one.  Standard library only; not collected by the
suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # about 20 times the suite's run time
IGNORE = shutil.ignore_patterns(".git", "out", "__pycache__", ".hypothesis", ".pytest_cache")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    equivalent: str = ""  # why no output can change; empty when it should be killed


MUTANTS = [
    Mutant("lm_damping_down", "src/flmarket/estimator.py", "mu /= 3.0", "mu /= 2.0"),
    Mutant("grad_rel_target", "src/flmarket/estimator.py",
           "GRAD_REL_TARGET = 1e-9", "GRAD_REL_TARGET = 1e-7"),
    Mutant("clamp_eps", "src/flmarket/estimator.py", "CLAMP_EPS = 1e-6", "CLAMP_EPS = 2e-6"),
    Mutant("max_solves", "src/flmarket/estimator.py", "MAX_SOLVES = 200", "MAX_SOLVES = 199"),
    Mutant("no_reserve_winner", "src/flmarket/market.py",
           "won[best == 0] = -1", "won[best < 0] = -1"),
    Mutant("nan_clamp_order", "src/flmarket/market.py", "(x if x < b else b)", "(b if b < x else x)"),
    Mutant("spent_budget_bids_zero", "src/flmarket/market.py",
           "if x > 0 else math.nan", "if x >= 0 else math.nan"),
    Mutant("tie_takes_last", "src/flmarket/market.py", "top[tie_rng.integers(len(top))]", "top[-1]"),
    Mutant("winners_agent_order", "src/flmarket/market.py",
           "sorted(range(len(names)), key=names.__getitem__, reverse=True)",
           "reversed(range(len(names)))"),
    Mutant("history_tie_takes_last", "src/flmarket/market.py", "reverse=True", "reverse=False"),
    Mutant("class_order_reversed", "src/flmarket/fltrain.py", "col += P[k]", "col += P[K - k]"),
    Mutant("fl_step_size", "src/flmarket/fltrain.py", "LR = 0.05", "LR = 0.04"),
    Mutant("test_set_size", "src/flmarket/experiment.py",
           "synth_dataset(2000,", "synth_dataset(1999,"),
    Mutant("regula_falsi_slow", "src/flmarket/winmodel.py", "slow < 4", "slow < 6"),
    Mutant("digitize_right", "src/flmarket/winmodel.py",
           "np.digitize(bids, edges[1:-1])", "np.digitize(bids, edges[1:-1], right=True)"),
    Mutant("c_min", "src/flmarket/winmodel.py", "C_MIN = 1e-4", "C_MIN = 1e-3"),
    Mutant("num_buckets", "src/flmarket/winmodel.py", "NUM_BUCKETS = 20", "NUM_BUCKETS = 19"),
    Mutant("slope_sign", "src/flmarket/winmodel.py",
           "return float(2.0 * np.sum(", "return float(-2.0 * np.sum("),
    Mutant("edge_returns_swapped", "src/flmarket/winmodel.py",
           "> 0:\n        return lo, True\n    if (g_hi := slope(hi)) <= 0:\n        return hi, True",
           "> 0:\n        return hi, True\n    if (g_hi := slope(hi)) <= 0:\n        return lo, True"),
    Mutant("edge_flag_dropped", "src/flmarket/winmodel.py", "return lo, True", "return lo, False"),
    Mutant("const_bid", "src/flmarket/strategies.py", "CONST_BID = 0.5", "CONST_BID = 0.4"),
    Mutant("rand_max", "src/flmarket/strategies.py", "RAND_MAX = 1.0", "RAND_MAX = 0.9"),
    Mutant("lin_coef", "src/flmarket/strategies.py", "LIN_COEF = 0.5", "LIN_COEF = 0.4"),
    Mutant("plus_zero", "src/flmarket/winmodel.py",
           "mid_bid = 0.5 * (edges[:-1] + edges[1:])",
           "mid_bid = 0.5 * (edges[:-1] + edges[1:]) + 0.0",
           equivalent="x + 0.0 == x for every x >= 0, and bucket midpoints are >= 0"),
    Mutant("times_one", "src/flmarket/strategies.py",
           "np.mean(bids * win_prob(model, bids))", "np.mean(1.0 * bids * win_prob(model, bids))",
           equivalent="1.0 * x is x exactly in IEEE arithmetic"),
]


def run(mutant: Mutant) -> tuple:
    """(killed, seconds) of the suite on a copy with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: {mutant.old!r} is not in {mutant.path} exactly once")
        target.write_text(text.replace(mutant.old, mutant.new))
        paths = ["src", os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        start = time.perf_counter()
        try:
            child = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore", "tests/test_mutants.py"],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # a mutant that hangs the suite is caught
            return True, time.perf_counter() - start
        return child.returncode != 0, time.perf_counter() - start


def main(argv: list) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            note = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
            print(f"{m.name:22} {m.path}: {m.old!r} -> {m.new!r}{note}")
        return 0
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(unknown)}")
    failures = 0
    for m in [by_name[name] for name in argv] or MUTANTS:
        killed, seconds = run(m)
        expected = "survived" if m.equivalent else "killed"
        outcome = "killed" if killed else "survived"
        failures += outcome != expected
        mark = "ok" if outcome == expected else "UNEXPECTED"
        print(f"{m.name:22} {outcome:8} (expected {expected}) {seconds:5.1f} s  {mark}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
