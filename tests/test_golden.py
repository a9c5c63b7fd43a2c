"""The committed golden outputs: every digested file and the paper's table.

A change that moves output bits regenerates tests/golden.json with
``python3 tests/golden.py --write`` and says in CHANGES.md which files
moved and why.
"""

import json

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
