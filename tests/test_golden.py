"""The committed golden outputs: every digested file, the paper's table and the
fit on the clamp floor.

A change that moves output bits regenerates tests/golden.json with
``python3 tests/golden.py --write`` and says in CHANGES.md which files
moved and why.
"""

import copy
import json

import pytest

import golden


def test_outputs_match_golden_file():
    expected = json.loads(golden.GOLDEN.read_text())
    found = golden.pinned_outputs()
    assert found["versions"] == expected["versions"], (
        f"tests/golden.json was written under {expected['versions']}, "
        f"this host has {found['versions']}; the pinned bytes depend on both builds"
    )
    moved = [
        f"{run}/{kind}"
        for run, files in expected["runs"].items()
        for kind, digest in files.items()
        if found["runs"].get(run, {}).get(kind) != digest
    ]
    assert not moved, f"{len(moved)} files moved: {moved}"
    assert found["runs"].keys() == expected["runs"].keys()
    assert found["table"] == expected["table"]
    assert found["floor_fit"] == expected["floor_fit"]


def small_outputs() -> dict:
    """Outputs of the golden's shape with one run, for checks that start no child."""
    names = (*golden.BASELINES, "fbs", "fbc")
    samples = {(seed, budget): dict.fromkeys(names, 1) for seed in golden.SEEDS for budget in golden.BUDGETS}
    return {
        "versions": {"numpy": "1", "blas": "b"},
        "table": golden.table(samples),
        "runs": {"a": {"market": "0" * 64, "summary": "1" * 64}},
        "floor_fit": {"theta": [0.5, -0.25], "iterations": 3, "loss": 0.125, "grad_rel": 0.0, "converged": True},
    }


def move_digest(out):
    out["runs"]["a"]["summary"] = "2" * 64


def add_run(out):
    out["runs"]["b"] = {"market": "3" * 64}


def remove_run(out):
    del out["runs"]["a"]


def move_floor_fit(out):
    out["floor_fit"]["theta"][1] = -0.25000000000000006


@pytest.mark.parametrize("edit,status", [(None, 0), (move_digest, 1), (add_run, 1), (remove_run, 1),
                                         (move_floor_fit, 1)],
                         ids=["same", "digest_moved", "run_added", "run_removed", "floor_fit_moved"])
def test_diff_exit_status(tmp_path, monkeypatch, capsys, edit, status):
    old, new = small_outputs(), small_outputs()
    if edit:
        edit(new)
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden.json")
    golden.GOLDEN.write_text(json.dumps(old))
    monkeypatch.setattr(golden, "pinned_outputs", lambda: copy.deepcopy(new))
    assert golden.main(["--diff"]) == status
    assert capsys.readouterr().out == golden.diff(old, new)
