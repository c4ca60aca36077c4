"""tests/snapshot.py --compare on crafted snapshot files."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).with_name("snapshot.py")


def point(z, multiplicity=1, zero_pattern=(), on_torus=True):
    # a torus point's t stands for its torus coordinates, which the
    # comparison reads beside |z|
    return {"multiplicity": multiplicity, "zero_pattern": list(zero_pattern),
            "on_torus": on_torus, "non_simplicial": False, "z": [[x, 0.0] for x in z],
            "t": [[x, 0.0] for x in z[:2]] if on_torus else None}


P2 = {"rays": [[1, 0], [0, 1], [-1, -1]]}
OLD = {
    "lines27 11/0": {"metadata": P2, "solutions": [
        point([1.0, 2.0, 3.0]), point([4.0, 0.0, 1.0], 2, [1], False)]},
    "lines27 11/1": {"raised": "ClusteringError", "message": "no gap"},
    "dense P^2 degree 8": {"metadata": P2, "solutions": [point([0.5, -1.0, 1.0])]},
    "sweep 7 e=13.5": {"e": "13.5", "max_res": "2.7e-08", "mean_res": "9.1e-09",
                       "min_res": "3.5e-15", "max_norm": "10324837.89", "delta_plus": "3",
                       "status": "ok"},
    # a row whose solve raised keeps the CSV's columns, empty
    "sweep 7 e=14.0": {"e": "14.0", "max_res": "", "mean_res": "", "min_res": "",
                       "max_norm": "", "delta_plus": "", "status": "schur"},
}


def write(path, records):
    lines = [json.dumps({"case": case, **record}, sort_keys=True)
             for case, record in records.items()]
    # census lines, which the comparison skips
    lines += ["lines27: 2 solves, raised 1 (ClusteringError 1), missed a pin 0",
              "lines27 11/1: ClusteringError"]
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
        "lines27: 2 cases, 2 byte-identical, 0 with structural differences, "
        "largest z move 0 over 2 points",
        "dense: 1 cases, 1 byte-identical, 0 with structural differences, "
        "largest z move 0 over 1 points",
        "sweep: 2 cases, 2 byte-identical, 0 with structural differences, "
        "largest max_norm move 0 over 1 rows",
    ]


def test_moved_z_is_reported_and_passes(tmp_path):
    new = copy.deepcopy(OLD)
    new["dense P^2 degree 8"]["solutions"][0]["z"][1][0] = -1.0 + 3e-12
    # the order of the points does not matter
    new["lines27 11/0"]["solutions"].reverse()
    run = compare(tmp_path, new)
    assert run.returncode == 0, run.stderr
    # the reversed points are the same bytes in another order
    assert run.stdout.splitlines()[:2] == [
        "lines27: 2 cases, 1 byte-identical, 0 with structural differences, "
        "largest z move 0 over 2 points",
        "dense: 1 cases, 0 byte-identical, 0 with structural differences, "
        "largest z move 3e-12 over 1 points (dense P^2 degree 8)",
    ]


def test_compare_names_the_case_that_moved_most(tmp_path):
    """Per workload: the byte-identical cases, and the label of the case
    with the largest move, the first of equal ones; a sweep row moves by
    its max_norm."""
    new = copy.deepcopy(OLD)
    new["lines27 11/0"]["solutions"][0]["z"][2][0] = 3.0 * (1 + 1e-9)
    new["lines27 11/0"]["solutions"][1]["z"][2][0] = 1.0 + 1e-10
    new["sweep 7 e=13.5"]["max_norm"] = "10324837.90"
    run = compare(tmp_path, new)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == ("lines27: 2 cases, 1 byte-identical, 0 with structural differences, "
                        "largest z move 1e-09 over 2 points (lines27 11/0)")
    assert lines[2] == ("sweep: 2 cases, 1 byte-identical, 0 with structural differences, "
                        "largest max_norm move 9.7e-10 over 1 rows (sweep 7 e=13.5)")


@pytest.mark.parametrize("change, report", [
    (lambda row: row.update(status="schur"), "sweep 7 e=13.5: status ok -> schur"),
    (lambda row: row.update(delta_plus="4"), "sweep 7 e=13.5: delta_plus 3 -> 4"),
], ids=["status", "delta_plus"])
def test_sweep_row_status_or_count_is_structural(tmp_path, change, report):
    new = copy.deepcopy(OLD)
    change(new["sweep 7 e=13.5"])
    run = compare(tmp_path, new)
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines()[0] == report
    assert "sweep: 2 cases, 1 byte-identical, 1 with structural differences" in run.stdout


@pytest.mark.parametrize("change, report", [
    (lambda new: new["lines27 11/0"]["solutions"][1].update(multiplicity=1),
     "lines27 11/0: routes (multiplicity, zero pattern, on torus, non-simplicial)"),
    (lambda new: new["lines27 11/0"]["solutions"][1].update(non_simplicial=True),
     "lines27 11/0: routes (multiplicity, zero pattern, on torus, non-simplicial)"),
    (lambda new: new["lines27 11/0"]["solutions"].pop(),
     "lines27 11/0: 2 -> 1 solutions"),
    (lambda new: new["lines27 11/1"].update(raised="RecoveryError"),
     "lines27 11/1: raised ClusteringError -> RecoveryError"),
    (lambda new: new.update({"lines27 11/1": OLD["dense P^2 degree 8"]}),
     "lines27 11/1: raised ClusteringError -> None"),
], ids=["route", "non_simplicial", "count", "raised type", "raised to solved"])
def test_structural_difference_fails(tmp_path, change, report):
    new = copy.deepcopy(OLD)
    change(new)
    run = compare(tmp_path, new)
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines()[0].startswith(report)
    assert "lines27: 2 cases, 1 byte-identical, 1 with structural differences" in run.stdout


PILLOW = """
import copy, json, sys
sys.path.insert(0, sys.argv[1])
import snapshot
from systems import PILLOW_RAYS_SOLVE, pillow_laurent
from toricsolve import solve
from toricsolve.formats import solution_file_dict
old = solution_file_dict(solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=0))
new = copy.deepcopy(old)
for sol in new["solutions"]:
    for j in (0, 3):
        sol["z"][j] = [-x for x in sol["z"][j]]
print(json.dumps({
    "rays": old["metadata"]["rays"],
    "boundary": [not sol["on_torus"] for sol in old["solutions"]],
    "compared": snapshot.compare_case(old, new),
    "z": [snapshot._move(snapshot._z(a), snapshot._z(b))
          for a, b in zip(old["solutions"], new["solutions"])],
}))
"""


def test_group_that_fixes_a_point_does_not_move_it():
    """z and lambda^q z, q an integer relation sum q_j u_j = 0 among the
    rays, are one point: the comparison reads no move between them, where
    the moves of the coordinates of z are 2. Here lambda = -1 and q = (1,
    0, 0, 1) on pillow's rays, on its two boundary points."""
    run = subprocess.run([sys.executable, "-c", PILLOW, str(SNAPSHOT.parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    rays = out["rays"]
    assert [a + b for a, b in zip(rays[0], rays[3])] == [0, 0]
    assert out["boundary"] == [True, True]
    diffs, moves = out["compared"]
    assert diffs == [] and moves == [0.0] * len(out["z"])
    assert out["z"] == [2.0] * len(out["z"])


CENSUS = """
import sys
from collections import Counter
sys.path.insert(0, sys.argv[1])
import snapshot
pins = [("miss", "torus residual 1.2e-08 > 1e-08"), ("miss", "torus multiplicities [1, 2]")]
census = {
    "lines27": [3, Counter(ClusteringError=1), 1,
                [("lines27 11/1", "ClusteringError"), ("lines27 11/2", snapshot.missed(pins))]],
    "pillow": [4, Counter(), None, []],
}
print("\\n".join(snapshot.census_lines(census)))
"""


def test_census_names_every_failing_case_and_its_cause():
    run = subprocess.run([sys.executable, "-c", CENSUS, str(SNAPSHOT.parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # the pins are named without their values, so a diff of two censuses
    # lists only the cases that joined or left the failing set
    assert run.stdout.splitlines() == [
        "lines27: 3 solves, raised 1 (ClusteringError 1), missed a pin 1",
        "lines27 11/1: ClusteringError",
        "lines27 11/2: missed torus residual, torus multiplicities",
        "pillow: 4 solves, raised 0, no pins",
    ]


def test_rotated_census_counts_stable_and_sensitive_draws():
    """A rotated workload's census line adds its stable and sensitive
    draws; an unrotated one's stays as it was."""
    census = CENSUS.replace(
        '("lines27 11/2", snapshot.missed(pins))]],',
        '("lines27 11/2", "ok, fails in 1 of 3 orientations (ClusteringError 1)")],'
        ' Counter(stable=1, sensitive=1)],')
    run = subprocess.run([sys.executable, "-c", census, str(SNAPSHOT.parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "lines27: 3 solves, raised 1 (ClusteringError 1), missed a pin 1, stable 1, sensitive 1",
        "lines27 11/1: ClusteringError",
        "lines27 11/2: ok, fails in 1 of 3 orientations (ClusteringError 1)",
        "pillow: 4 solves, raised 0, no pins",
    ]


ROTATION = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import snapshot
from systems import PILLOW_RAYS_SOLVE, pillow_laurent
from toricsolve import eigensolver, solver
from toricsolve.cox import homogenize
from toricsolve.eigensolver import assemble_res
from toricsolve.regularity import improved_pair

U = snapshot.haar(45, 1)
system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
pair = improved_pair(system)
res = assemble_res(system, pair.top, pair.alpha0)
N = solver.cokernel(res).N
with snapshot.rotated(2):
    turned = solver.cokernel(res).N
print(json.dumps({
    "unitary": float(np.abs(U.conj().T @ U - np.eye(45)).max()),
    "repeats": bool(np.array_equal(U, snapshot.haar(45, 1))),
    "seeded": bool(not np.allclose(U, snapshot.haar(45, 2))),
    "rows": len(N),
    "turned": bool(np.array_equal(turned, snapshot.haar(len(N), 2) @ N)),
    "span": float(np.abs(turned.conj().T @ turned - N.conj().T @ N).max()),
    "restored": solver.cokernel is eigensolver.cokernel,
}))
"""


def test_rotation_is_a_seeded_unitary_of_the_same_span():
    """--rotate turns N by a Haar unitary that repeats per seed: the
    rotated N spans the same rows, and the wrapper is gone after use."""
    run = subprocess.run([sys.executable, "-c", ROTATION, str(SNAPSHOT.parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["unitary"] <= 1e-13
    assert out["repeats"] and out["seeded"] and out["turned"] and out["restored"]
    assert out["rows"] == 4 and out["span"] <= 1e-13


SWEEP = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import snapshot
from toricsolve import SWEEP_HEADER
rows = [f"{e / 2},3e-16,2e-16,1e-16,{1.414213532799484e8 if e == 16 else 5.0},3,ok,1"
        for e in range(29)]
rows[27] = "13.5,2.7e-08,9.1e-09,3.5e-15,10324837.89,3,ok,2"
rows[28] = "14.0,,,,,,schur,1"
print(json.dumps({
    "records": list(snapshot.sweep_records(7, [SWEEP_HEADER] + rows)),
    "seeds": snapshot.sweep_seeds([11, 12]),
}))
"""


def test_sweep_rows_are_records_with_their_causes():
    """A sweep pass writes one record per CSV row without wall_ms, and the
    cause of a row check_sweep_rows flags: the status of a row whose
    solve raised, else the pins it missed, without their values. Each
    argument gives the solve seed of the benchmark's first pass at it,
    and SWEEP_SEED comes last."""
    run = subprocess.run([sys.executable, "-c", SWEEP, str(SNAPSHOT.parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    records = out["records"]
    assert len(records) == 29
    assert [label for label, *_ in records[26:]] == [
        "sweep 7 e=13.0", "sweep 7 e=13.5", "sweep 7 e=14.0"]
    assert all("wall_ms" not in record for _, record, *_ in records)
    assert records[27][1] == {"e": "13.5", "max_res": "2.7e-08", "mean_res": "9.1e-09",
                              "min_res": "3.5e-15", "max_norm": "10324837.89",
                              "delta_plus": "3", "status": "ok"}
    assert [(status, cause) for *_, status, cause in records if cause] == [
        ("ok", "missed max_res"), ("schur", "schur")]
    seeds = out["seeds"]
    assert len(seeds) == 3 and seeds[-1] == 1531391094 and seeds[0] != seeds[1]
