"""tests/snapshot.py --compare on crafted snapshot files."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).with_name("snapshot.py")


def point(z, multiplicity=1, zero_pattern=(), on_torus=True):
    return {"multiplicity": multiplicity, "zero_pattern": list(zero_pattern),
            "on_torus": on_torus, "z": [[x, 0.0] for x in z]}


OLD = {
    "lines27 11/0": {"solutions": [point([1.0, 2.0, 3.0]), point([4.0, 0.0, 1.0],
                                                                 2, [1], False)]},
    "lines27 11/1": {"raised": "ClusteringError", "message": "no gap"},
    "dense P^2 degree 8": {"solutions": [point([0.5, -1.0, 1.0])]},
}


def write(path, records):
    lines = [json.dumps({"case": case, **record}, sort_keys=True)
             for case, record in records.items()]
    # a census line, which the comparison skips
    lines.append("lines27: 2 solves, raised 1 (ClusteringError 1), missed a pin 0")
    path.write_text("\n".join(lines) + "\n")
    return path


def compare(tmp_path, new):
    old_path = write(tmp_path / "old.jsonl", OLD)
    new_path = write(tmp_path / "new.jsonl", new)
    return subprocess.run([sys.executable, str(SNAPSHOT), "--compare", old_path, new_path],
                          capture_output=True, text=True, timeout=120)


def test_identical_snapshots_do_not_move(tmp_path):
    run = compare(tmp_path, OLD)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "lines27: 2 cases, 0 with structural differences, largest z move 0 over 2 points",
        "dense: 1 cases, 0 with structural differences, largest z move 0 over 1 points",
    ]


def test_moved_z_is_reported_and_passes(tmp_path):
    new = copy.deepcopy(OLD)
    new["dense P^2 degree 8"]["solutions"][0]["z"][1][0] = -1.0 + 3e-12
    # the order of the points does not matter
    new["lines27 11/0"]["solutions"].reverse()
    run = compare(tmp_path, new)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == (
        "dense: 1 cases, 0 with structural differences, largest z move 3e-12 over 1 points")
    assert "largest z move 0 over 2 points" in run.stdout.splitlines()[0]


@pytest.mark.parametrize("change, report", [
    (lambda new: new["lines27 11/0"]["solutions"][1].update(multiplicity=1),
     "lines27 11/0: routes (multiplicity, zero pattern, on torus)"),
    (lambda new: new["lines27 11/0"]["solutions"].pop(),
     "lines27 11/0: 2 -> 1 solutions"),
    (lambda new: new["lines27 11/1"].update(raised="RecoveryError"),
     "lines27 11/1: raised ClusteringError -> RecoveryError"),
    (lambda new: new.update({"lines27 11/1": OLD["dense P^2 degree 8"]}),
     "lines27 11/1: raised ClusteringError -> None"),
], ids=["route", "count", "raised type", "raised to solved"])
def test_structural_difference_fails(tmp_path, change, report):
    new = copy.deepcopy(OLD)
    change(new)
    run = compare(tmp_path, new)
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines()[0].startswith(report)
    assert "lines27: 2 cases, 1 with structural differences" in run.stdout
