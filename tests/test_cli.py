"""Command line surface: solve, regpair, sweep."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from toricsolve import cli, cox
from toricsolve.cli import main
from toricsolve.errors import InputError
from toricsolve.recovery import Solution
from toricsolve.solver import SolutionSet

from systems import (
    EMPTY_LAURENT,
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    OVERFLOW_LAURENT,
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


def test_solve_keeps_the_variable_names(tmp_path):
    doc = as_file_dict(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS, variables=["x", "y"])
    path = write_file(tmp_path, doc)
    out = tmp_path / "sol.json"
    assert run("solve", path, "--output", out).exit_code == 0
    assert json.loads(out.read_text())["metadata"]["variables"] == ["x", "y"]
    res = run("solve", path)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["metadata"]["variables"] == ["x", "y"]


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
    # alpha0 = [D2] has three points that span; the coranks are 3 and 4
    path = write_file(tmp_path, intro_doc())
    res = run("solve", path, "--pair", "0,0,1,1;0,1,0,0")
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
    r_diag = (diag / "res_r_diagonal.csv").read_text().splitlines()
    leak = (diag / "block_leakage.csv").read_text().splitlines()
    assert r_diag[0] == "index,value" and leak[0] == "index,value"
    assert len(r_diag) > 1 and len(leak) > 1


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the output paths were checked")


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("flag", ["--output", "--emit-csv"])
def test_unwritable_output_exits_2_before_solving(tmp_path, monkeypatch, command, flag):
    # --output under a missing directory, --emit-csv under a regular file
    monkeypatch.setattr(cli, "run_solve", _no_solve)
    path = write_file(tmp_path, intro_template_doc() if command == "sweep" else intro_doc())
    target = (tmp_path / "missing" / "x.json" if flag == "--output"
              else path / "diag")
    args = ["--grid", "0:1:1"] if command == "sweep" else []
    res = run(command, path, *args, flag, target)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): cannot write ")
    assert str(target) in res.output and len(res.output.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_failed_write_exits_2(tmp_path, monkeypatch, command):
    # the directory is there when checked, the write fails all the same
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    path = write_file(tmp_path, intro_template_doc() if command == "sweep" else intro_doc())
    monkeypatch.setattr(cli, "dump_solution_file", refuse)
    monkeypatch.setattr(Path, "write_text", refuse)
    args = ["--grid", "0:0:1"] if command == "sweep" else []
    out = tmp_path / "x.out"
    res = run(command, path, *args, "--output", out)
    assert res.exit_code == 2, res.output
    assert res.output == f"error (input): cannot write {out}: Permission denied\n"


def test_solution_file_on_stdout_is_the_file(tmp_path, monkeypatch):
    path = write_file(tmp_path, intro_doc())
    result = cli.run_solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    monkeypatch.setattr(cli, "run_solve", lambda *args, **kwargs: result)
    out = tmp_path / "sol.json"
    assert run("solve", path, "--output", out).exit_code == 0
    res = run("solve", path)
    assert res.exit_code == 0, res.output
    assert res.output == out.read_text(encoding="utf-8")


def test_regpair_lines27(tmp_path):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    path = write_file(tmp_path, as_file_dict(lines27_laurent(c), rays=LINES27_RAYS))
    res = run("regpair", path)
    assert res.exit_code == 0, res.output
    assert "shape=1296x2256" in res.output
    assert "shape=441x552" in res.output
    assert "SumOfDegrees" in res.output
    assert "VanishingTest" in res.output
    assert "alpha=(0, 0, 6, 6, 0, 0)" in res.output
    assert "alpha=(0, 0, 4, 4, 0, 0)" in res.output
    assert "alpha0=(0, 0, 1, 1, 0, 0)" in res.output


def test_regpair_p2_macaulay(tmp_path):
    rng = np.random.default_rng(3)

    def dense(d):
        pts = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        return [((i, j), complex(*rng.standard_normal(2))) for i, j in pts]

    path = write_file(tmp_path, as_file_dict([dense(2), dense(3)]))
    res = run("regpair", path)
    assert res.exit_code == 0, res.output
    # the walk reaches the Macaulay class 3H from the default 5H
    assert "VanishingTest" in res.output
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
    res = run("regpair", path, "--pair", "0,0,1,1;0,1,0,0", "--verify")
    assert res.exit_code == 0, res.output
    assert "verified=False" in res.output
    assert "coranks=(3, 4)" in res.output


def test_regpair_verify_rejects_pair_that_cannot_span(tmp_path):
    # the two lattice points of alpha0 = [D4] are collinear, so no torus
    # point could be recovered: refused before the coranks are taken
    path = write_file(tmp_path, intro_doc())
    res = run("regpair", path, "--pair", "2,2,0,0;0,0,0,1", "--verify")
    assert res.exit_code == 6, res.output
    assert "error (recovery): alpha0 insufficient" in res.output
    assert "verified=" not in res.output


@pytest.mark.parametrize("command", ["regpair", "solve"])
def test_pair_with_one_section_exits_6(command):
    # alpha0 = 0 has one section, which spans nothing: both commands
    # refuse the pair at the pair stage with one recovery error line
    args = [command, "--pair", "2,3,-1,1;0,0,0,0"] + (["--verify"] if command == "regpair" else [])
    res = run(*args, str(DATA / "intro_e3_seed0.system.json"))
    assert res.exit_code == 6, res.output
    assert [line for line in res.output.splitlines()
            if line.startswith("error (recovery): ")] == [
        "error (recovery): alpha0 insufficient: lattice points do not affinely span"]
    assert "verified=" not in res.output


@pytest.mark.parametrize("args", [("solve",), ("regpair", "--verify")],
                         ids=["solve", "regpair-verify"])
def test_res_overflow_exits_4(tmp_path, args):
    # Res is finite but its QR is not: a typed rank error, not a traceback
    path = write_file(tmp_path, as_file_dict(OVERFLOW_LAURENT))
    res = run(args[0], path, *args[1:])
    assert res.exit_code == 4, res.output
    assert "error (rank): Res overflows double precision" in res.output


@pytest.mark.parametrize("scale", [1e8, 1e300])
def test_equation_scales_apart_exit_4(tmp_path, scale):
    # s (x + y - 1) beside x - y + 0.5: a rank error naming both
    # equations, not a failed pair (exit 3)
    lines = [[((1, 0), scale), ((0, 1), scale), ((0, 0), -scale)],
             [((1, 0), 1.0), ((0, 1), -1.0), ((0, 0), 0.5)]]
    res = run("solve", write_file(tmp_path, as_file_dict(lines)))
    assert res.exit_code == 4, res.output
    assert "error (rank): equations 0 and 1 have largest coefficient moduli" in res.output


@pytest.mark.parametrize("flag, value", [("--fan", "1,0;x"), ("--pair", "1,0")])
@pytest.mark.parametrize("command", ["solve", "regpair", "sweep"])
def test_malformed_fan_or_pair_flag_exits_2(tmp_path, command, flag, value):
    doc, extra = intro_doc(), []
    if command == "sweep":
        doc, extra = intro_template_doc(), ["--grid", "0:1:1"]
    res = run(command, write_file(tmp_path, doc), *extra, flag, value)
    assert res.exit_code == 2, res.output
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error (input): ")
    assert "Traceback" not in res.output


# every numeric flag outside its range: (flag, value, argument named)
BAD_FLAGS = [
    ("--seed", "-1", "seed"),
]


@pytest.mark.parametrize("flag, value, name", BAD_FLAGS)
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_numeric_flag_out_of_range_exits_2(tmp_path, command, flag, value, name):
    if command == "solve":
        path, extra = write_file(tmp_path, intro_doc()), []
    else:
        path, extra = write_file(tmp_path, intro_template_doc()), ["--grid", "0:1:0.5"]
    res = run(command, path, *extra, flag, value)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): ")
    assert name in res.output and "Traceback" not in res.output


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


def test_solve_without_solutions_writes_none(tmp_path):
    path = write_file(tmp_path, as_file_dict(EMPTY_LAURENT))
    out = tmp_path / "sol.json"
    res = run("solve", path, "--output", out)
    assert res.exit_code == 0, res.output
    assert "max_residual=0.000e+00" in res.output
    doc = json.loads(out.read_text())
    assert doc["solutions"] == [] and doc["metadata"]["delta_plus"] == 0


def test_sweep_without_solutions_gives_zero_rows(tmp_path):
    doc = as_file_dict(EMPTY_LAURENT)
    doc["equations"][1]["terms"][1]["coeff"] = "-2 - 0*e"
    res = run("sweep", write_file(tmp_path, doc), "--grid", "0:1:0.5")
    assert res.exit_code == 0, res.output
    header, *rows = res.output.splitlines()
    assert header == "e,max_res,mean_res,min_res,max_norm,delta_plus,status,wall_ms"
    assert len(rows) == 3
    for row in rows:
        assert row.split(",")[1:7] == ["0.0", "0.0", "0.0", "0.0", "0", "ok"]


def _nan_result(first):
    """A solution set of two torus points whose residuals hold one nan:
    in the first point's first residual, or in the last point's last."""
    nan = float("nan")
    residuals = [(nan, 1e-3), (2e-3, 1e-4)] if first else [(1e-3, 2e-3), (1e-4, nan)]
    return SolutionSet([Solution((1, 1), (1,), 1, (), r) for r in residuals],
                       2, None, 0, {}, {}, None)


@pytest.mark.parametrize("first", [True, False], ids=["nan first", "nan last"])
def test_max_residual_carries_a_nan(first):
    assert math.isnan(_nan_result(first).max_residual())


def test_sweep_row_carries_a_nan(tmp_path, monkeypatch):
    """The row statistics of a solve with a nan residual are nan wherever
    the nan sits, rows 0 and 1 holding it first and last."""
    path = write_file(tmp_path, intro_template_doc())
    results = iter([_nan_result(True), _nan_result(False)])
    monkeypatch.setattr(cli, "run_solve", lambda *args, **kwargs: next(results))
    res = run("sweep", path, "--grid", "0:1:1")
    assert res.exit_code == 0, res.output
    header, *rows = res.output.splitlines()
    assert header.startswith("e,max_res,mean_res,min_res,")
    assert len(rows) == 2
    for row in rows:
        assert row.split(",")[1:4] == ["nan", "nan", "nan"]


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
    # a coefficient of -2e100 to -2e300 beside ones near 1 is a scaling
    # problem, not a pair failure
    assert statuses[1:4] == ["rank"] * 3
    assert statuses[4] == "input"


def test_sweep_deep_template_exits_2_at_load(tmp_path):
    doc = intro_template_doc()
    doc["equations"][1]["terms"][2]["coeff"] = "+".join(["e"] * 5000)
    res = run("sweep", write_file(tmp_path, doc), "--grid", "0:1:1")
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): ")
    assert "nests too deeply" in res.output


def test_sweep_template_too_deep_to_compile_exits_2_at_load(tmp_path):
    # parses, but nests too deeply to compile: refused once, before any row
    doc = intro_template_doc()
    doc["equations"][1]["terms"][2]["coeff"] = "+".join(["e"] * 1200)
    out = tmp_path / "sweep.csv"
    res = run("sweep", write_file(tmp_path, doc), "--grid", "0:1:1", "--output", out)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): ")
    assert "nests too deeply" in res.output
    assert not out.exists()


@pytest.mark.parametrize("coeffs", [{2: "e.real"}, {2: "5-2*10**(-x)", 4: "4*e"}],
                         ids=["attribute", "other-parameter"])
def test_sweep_structural_template_error_exits_2_once(tmp_path, coeffs):
    # unsupported syntax, or a name that is not the swept parameter, would
    # fail every row alike: one error line before any row is solved
    doc = intro_template_doc()
    for j, text in coeffs.items():
        doc["equations"][1]["terms"][j]["coeff"] = text
    res = run("sweep", write_file(tmp_path, doc), "--param", "e", "--grid", "0:1:1")
    assert res.exit_code == 2, res.output
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error (input): ")


@pytest.mark.parametrize("command", ["solve", "sweep", "regpair"])
def test_help_lists_no_tolerance_flags(command):
    res = run(command, "--help")
    assert res.exit_code == 0, res.output
    gone = ("--tol-rank", "--cluster-gap", "--zero-tol")
    assert not [flag for flag in gone if flag in res.output]
    # solve and sweep always verify; regpair --verify chooses whether the
    # report assembles Res at all
    assert ("--verify" in res.output) == (command == "regpair")


def test_sweep_bad_grid_exits_2(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    res = run("sweep", path, "--grid", "5:1:1")
    assert res.exit_code == 2


@pytest.mark.parametrize("grid", ["inf:1:1", "-inf:1:1", "0:inf:1", "0:1:inf",
                                  "nan:1:1", "0:nan:1", "0:1:nan"])
def test_sweep_non_finite_grid_exits_2(tmp_path, grid):
    # used to exit 1 with an OverflowError or ValueError traceback
    path = write_file(tmp_path, intro_template_doc())
    res = run("sweep", path, "--grid", grid)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): ") and "finite" in res.output


@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1e6:1", "-1e308:1e308:1"])
def test_sweep_oversized_grid_exits_2_before_solving(tmp_path, monkeypatch, grid):
    # 0:1:1e-300 used to build 10**300 grid values
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the grid was checked")

    monkeypatch.setattr(cli, "run_solve", no_solve)
    path = write_file(tmp_path, intro_template_doc())
    res = run("sweep", path, "--grid", grid)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error (input): ")
    assert f"more than {cli.GRID_MAX} values" in res.output


def test_grid_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "GRID_MAX", 10)
    assert cli._parse_grid("0:9:1") == [float(x) for x in range(10)]
    assert len(cli._parse_grid("0:0.9:0.1")) == 10
    with pytest.raises(InputError, match="more than 10 values"):
        cli._parse_grid("0:10:1")


def test_sweep_emit_csv_diagnostics(tmp_path):
    path = write_file(tmp_path, intro_template_doc())
    diag = tmp_path / "diag"
    res = run("sweep", path, "--grid", "0:1:1", "--output", tmp_path / "s.csv",
              "--emit-csv", diag)
    assert res.exit_code == 0, res.output
    assert (diag / "point_000_res_r_diagonal.csv").exists()
    assert (diag / "point_001_block_leakage.csv").exists()


DATA = Path(__file__).parent / "data"


def test_sweep_rows_match_cold_and_warm(tmp_path, monkeypatch):
    """The sweep of the benchmark's template gives the same CSV, wall_ms
    aside, whether every row reuses the fan's plans or runs on a cleared
    support cache with a fresh fan."""
    path = DATA / "intro_template.system.json"

    def rows(name):
        out = tmp_path / name
        res = run("sweep", path, "--param", "e", "--grid", "0:14:0.5", "--output", out)
        assert res.exit_code == 0, res.output
        return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]

    warm = rows("warm.csv")
    assert len(warm) == 30
    assert all(line.split(",")[5:7] == ["3", "ok"] for line in warm[1:])
    solve = cli.run_solve

    def cold_solve(*args, **kwargs):
        cox._supports.clear()
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "run_solve", cold_solve)
    assert rows("cold.csv") == warm
