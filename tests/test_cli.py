"""Command line surface: solve, regpair, sweep."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from toricsolve.cli import main

from systems import (
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    PILLOW_RAYS_SOLVE,
    intro_laurent,
    lines27_laurent,
    pillow_laurent,
)
from test_formats import as_file_dict, write_file


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def intro_doc(eps=1.0):
    return as_file_dict(intro_laurent(eps), rays=HIRZEBRUCH_RAYS)


def intro_template_doc():
    doc = intro_doc(1.0)
    doc["equations"][1]["terms"][2]["coeff"] = "5-2*10**(-e)"
    return doc


def test_solve_pillow_file(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE))
    out = tmp_path / "sol.json"
    res = run("solve", path, "--output", out)
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert sorted(s["multiplicity"] for s in doc["solutions"]) == [2, 2]
    assert doc["metadata"]["delta_plus"] == 4


def test_solve_writes_to_stdout_by_default(tmp_path):
    path = write_file(tmp_path, intro_doc())
    res = run("solve", path)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["metadata"]["delta_plus"] == 3


def test_solve_intro_exact_roots(tmp_path):
    path = write_file(tmp_path, intro_doc())
    out = tmp_path / "sol.json"
    assert run("solve", path, "--output", out).exit_code == 0
    doc = json.loads(out.read_text())
    got = sorted(
        [
            (s["t"][0][0] + 1j * s["t"][0][1], s["t"][1][0] + 1j * s["t"][1][1])
            for s in doc["solutions"]
            if s["on_torus"]
        ],
        key=lambda p: p[0].real,
    )
    r2 = math.sqrt(2.0)
    want = sorted(
        [(-2.0, 1.0), (1 / r2, -3 / r2 + 2), (-1 / r2, 3 / r2 + 2)],
        key=lambda p: p[0],
    )
    assert len(got) == 3
    for (ga, gb), (wa, wb) in zip(got, want):
        assert abs(ga - wa) <= 1e-10 and abs(gb - wb) <= 1e-10


def test_solve_empty_equations_exits_2(tmp_path):
    doc = intro_doc()
    doc["equations"] = []
    path = write_file(tmp_path, doc)
    res = run("solve", path)
    assert res.exit_code == 2
    assert "at least one equation" in res.output


def test_solve_nan_coefficient_exits_2(tmp_path):
    doc = intro_doc()
    doc["equations"][0]["terms"][1]["coeff"] = [float("nan"), 0.0]
    path = write_file(tmp_path, doc)
    res = run("solve", path)
    assert res.exit_code == 2
    assert res.output.startswith("error (input): coefficients must be finite")


def _set_exponent(doc):
    doc["equations"][0]["terms"][1]["exponent"] = [True, 0]


def _set_coeff_imag(doc):
    doc["equations"][1]["terms"][0]["coeff"] = [-2, False]


def _set_coeff_real(doc):
    doc["equations"][1]["terms"][3]["coeff"] = [True, 0.0]


def _set_ray(doc):
    doc["fan"]["rays"][0] = [True, 0]


def _set_pair(doc):
    doc["pair"] = {"alpha": [0, 0, True, 2], "alpha0": [0, 0, 1, 2]}


@pytest.mark.parametrize("edit, where", [
    (_set_exponent, "equation 1, term 2: exponent"),
    (_set_coeff_imag, "equation 2, term 1: coefficient"),
    (_set_coeff_real, "equation 2, term 4: coefficient"),
    (_set_ray, "fan ray [True, 0]"),
    (_set_pair, "pair alpha"),
], ids=["exponent", "coeff_imag", "coeff_real", "ray", "pair"])
def test_solve_json_boolean_exits_2(tmp_path, edit, where):
    # JSON true/false load as bool, which Python counts as int
    doc = intro_doc()
    edit(doc)
    res = run("solve", write_file(tmp_path, doc))
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): ")
    assert where in res.output


def test_solve_missing_file_exits_2(tmp_path):
    res = run("solve", tmp_path / "nope.json")
    assert res.exit_code == 2


def test_solve_template_without_value_exits_2(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    res = run("solve", path)
    assert res.exit_code == 2
    assert "unresolved parameter" in res.output


def test_solve_pair_flag_and_provenance(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE))
    out = tmp_path / "sol.json"
    res = run("solve", path, "--pair", "2,2,2,2;1,1,1,1", "--output", out)
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["metadata"]["pair"]["provenance"] == "UserSupplied"
    assert doc["metadata"]["pair"]["alpha"] == [2, 2, 2, 2]


def test_solve_bad_pair_exits_3(tmp_path):
    path = write_file(tmp_path, intro_doc())
    res = run("solve", path, "--pair", "0,0,2,4;0,0,2,0")
    assert res.exit_code == 3
    assert "pair" in res.output


def test_solve_wrong_fan_flag_exits_2(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent()))
    res = run("solve", path, "--fan", "1,0;0,1;-1,0;0,-1")
    assert res.exit_code == 2


def test_solve_seed_flag_changes_nothing_essential(tmp_path):
    path = write_file(tmp_path, intro_doc())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", path, "--seed", 0, "--output", out1).exit_code == 0
    assert run("solve", path, "--seed", 5, "--output", out2).exit_code == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    t1 = sorted(round(s["t"][0][0], 8) for s in d1["solutions"])
    t2 = sorted(round(s["t"][0][0], 8) for s in d2["solutions"])
    assert t1 == t2


def test_solve_deterministic_bytes(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", path, "--seed", 3, "--output", out1).exit_code == 0
    assert run("solve", path, "--seed", 3, "--output", out2).exit_code == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1["metadata"].pop("timings_ms")
    d2["metadata"].pop("timings_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_solve_emit_csv_diagnostics(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE))
    diag = tmp_path / "diag"
    out = tmp_path / "sol.json"
    res = run("solve", path, "--output", out, "--emit-csv", diag)
    assert res.exit_code == 0, res.output
    sigma = (diag / "res_singular_values.csv").read_text().splitlines()
    leak = (diag / "block_leakage.csv").read_text().splitlines()
    assert sigma[0] == "index,value" and leak[0] == "index,value"
    assert len(sigma) > 1 and len(leak) > 1


def test_regpair_lines27(tmp_path):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    path = write_file(tmp_path, as_file_dict(lines27_laurent(c), rays=LINES27_RAYS))
    res = run("regpair", path)
    assert res.exit_code == 0, res.output
    assert "shape=1296x2256" in res.output
    assert "shape=441x552" in res.output
    assert "SumOfDegrees" in res.output
    assert "Multihomogeneous" in res.output
    assert "alpha=(0, 0, 6, 6, 0, 0)" in res.output
    assert "alpha=(4, 4, 0, 0, 0, 0)" in res.output
    assert "alpha0=(1, 1, 0, 0, 0, 0)" in res.output


def test_regpair_p2_macaulay(tmp_path):
    rng = np.random.default_rng(3)

    def dense(d):
        pts = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        return [((i, j), complex(*rng.standard_normal(2))) for i, j in pts]

    path = write_file(tmp_path, as_file_dict([dense(2), dense(3)]))
    res = run("regpair", path)
    assert res.exit_code == 0, res.output
    assert "Macaulay" in res.output
    assert "alpha=(3, 0, 0)" in res.output
    assert "alpha0=(1, 0, 0)" in res.output


def test_regpair_single_equation_trivial(tmp_path):
    path = write_file(tmp_path, as_file_dict([[((0,), -2.0), ((1,), 1.0)]]))
    res = run("regpair", path)
    assert res.exit_code == 0, res.output
    line = next(l for l in res.output.splitlines() if l.startswith("default"))
    assert "alpha=(1, 0)" in line and "alpha0=(1, 0)" in line


def test_regpair_overdetermined_exits_3(tmp_path):
    eqs = intro_laurent(1.0) + [[((0, 0), 1.0), ((1, 1), 1.0)]]
    path = write_file(tmp_path, as_file_dict(eqs))
    res = run("regpair", path)
    assert res.exit_code == 3
    assert "overdetermined" in res.output


def test_regpair_verify_flag_reports_delta_plus(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE))
    res = run("regpair", path, "--verify")
    assert res.exit_code == 0, res.output
    assert "verified=True" in res.output
    assert "delta_plus=4" in res.output


def test_regpair_verify_rejects_bad_user_pair(tmp_path):
    path = write_file(tmp_path, intro_doc())
    res = run("regpair", path, "--pair", "0,0,2,4;0,0,2,0", "--verify")
    assert res.exit_code == 0, res.output
    assert "verified=False" in res.output
    assert "coranks=(3, 4)" in res.output


def test_sweep_small_grid(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    out = tmp_path / "sweep.csv"
    res = run("sweep", path, "--param", "e", "--grid", "0:1:0.5", "--output", out)
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "e,max_res,mean_res,min_res,max_norm,delta_plus,status,wall_ms"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[6] == "ok"
        assert int(cells[5]) == 3
        assert float(cells[1]) <= 1e-12


def test_sweep_single_point(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    res = run("sweep", path, "--grid", "2:2:1")
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert lines[0].startswith("e,")
    assert len(lines) == 2
    assert lines[1].startswith("2.0,")


def test_sweep_missing_parameter_exits_2(tmp_path):
    path = write_file(tmp_path, intro_doc())
    res = run("sweep", path, "--param", "e", "--grid", "0:1:0.5")
    assert res.exit_code == 2
    assert "parameter not found" in res.output


def test_sweep_failure_rows_continue(tmp_path):
    doc = intro_template_doc()
    doc["equations"][0]["terms"][0]["coeff"] = "1/(e-1)"
    path = write_file(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    res = run("sweep", path, "--grid", "0:2:1", "--output", out)
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    statuses = [line.split(",")[6] for line in lines[1:]]
    assert statuses[0] == "ok"
    assert statuses[1] == "input"
    assert statuses[2] == "ok"


def test_sweep_overflow_rows_continue(tmp_path):
    doc = intro_template_doc()
    doc["equations"][1]["terms"][2]["coeff"] = "5-2*10**(100*e)"
    path = write_file(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    res = run("sweep", path, "--grid", "0:4:1", "--output", out)
    assert res.exit_code == 0, res.output
    statuses = [line.split(",")[6] for line in out.read_text().splitlines()[1:]]
    assert len(statuses) == 5
    assert statuses[0] == "ok"
    assert statuses[4] == "input"


def test_sweep_bad_grid_exits_2(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    res = run("sweep", path, "--grid", "5:1:1")
    assert res.exit_code == 2


def test_sweep_emit_csv_diagnostics(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    diag = tmp_path / "diag"
    res = run("sweep", path, "--grid", "0:1:1", "--output", tmp_path / "s.csv",
              "--emit-csv", diag)
    assert res.exit_code == 0, res.output
    assert (diag / "point_000_res_singular_values.csv").exists()
    assert (diag / "point_001_block_leakage.csv").exists()
