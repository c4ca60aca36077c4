"""File format layer: system files, solution files, templates, CSV."""

import json

import pytest

from toricsolve.errors import InputError
from toricsolve.formats import (
    SWEEP_HEADER,
    dump_solution_file,
    eval_scalar,
    load_solution_file,
    load_system_file,
    solution_file_dict,
    sweep_csv_lines,
    write_series_csv,
)
from toricsolve.solver import solve

from systems import (
    HIRZEBRUCH_RAYS as INTRO_RAYS,
    PILLOW_RAYS_SOLVE,
    intro_laurent,
    pillow_laurent,
)


def as_file_dict(equations, rays=None, pair=None, variables=None):
    n = len(next(iter(equations[0]))[0]) if equations and equations[0] else 0
    doc = {
        "format_version": "1",
        "variables": variables or [f"t{i + 1}" for i in range(n)],
        "equations": [
            {
                "terms": [
                    {
                        "exponent": list(exp),
                        "coeff": c if isinstance(c, str) else [
                            float(complex(c).real), float(complex(c).imag)
                        ],
                    }
                    for exp, c in eq
                ]
            }
            for eq in equations
        ],
    }
    if rays is not None:
        doc["fan"] = {"rays": [list(r) for r in rays]}
    if pair is not None:
        doc["pair"] = {"alpha": list(pair[0]), "alpha0": list(pair[1])}
    return doc


def write_file(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_system_file_round_trip(tmp_path):
    doc = as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    sf = load_system_file(write_file(tmp_path, doc))
    assert sf.variables == ("t1", "t2")
    assert sf.rays == tuple(tuple(r) for r in PILLOW_RAYS_SOLVE)
    assert sf.pair is None
    assert len(sf.equations) == 2
    exp, coeff = sf.equations[0][0]
    assert exp == (1, 0) and coeff == 1.0 + 0.0j


def test_system_file_with_pair(tmp_path):
    doc = as_file_dict(pillow_laurent(), pair=((2, 2, 2, 2), (1, 1, 1, 1)))
    sf = load_system_file(write_file(tmp_path, doc))
    assert sf.pair == ((2, 2, 2, 2), (1, 1, 1, 1))


def test_empty_equations_rejected(tmp_path):
    doc = as_file_dict(pillow_laurent())
    doc["equations"] = []
    with pytest.raises(InputError, match="at least one equation"):
        load_system_file(write_file(tmp_path, doc))


def test_exponent_length_mismatch_located(tmp_path):
    doc = as_file_dict(pillow_laurent())
    doc["equations"][1]["terms"][2]["exponent"] = [1, 0, 0]
    with pytest.raises(InputError, match=r"equation 2, term 3"):
        load_system_file(write_file(tmp_path, doc))


def test_bad_coeff_shape_located(tmp_path):
    doc = as_file_dict(pillow_laurent())
    doc["equations"][0]["terms"][0]["coeff"] = [1.0]
    with pytest.raises(InputError, match=r"equation 1, term 1"):
        load_system_file(write_file(tmp_path, doc))


@pytest.mark.parametrize("fan", [{"rays": 5}, {"rays": {}}, {}, [[1, 0]]])
def test_fan_block_without_ray_list(tmp_path, fan):
    doc = as_file_dict(pillow_laurent())
    doc["fan"] = fan
    with pytest.raises(InputError, match="fan block"):
        load_system_file(write_file(tmp_path, doc))


def test_not_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all {")
    with pytest.raises(InputError, match="line"):
        load_system_file(path)


def test_wrong_format_version(tmp_path):
    doc = as_file_dict(pillow_laurent())
    doc["format_version"] = "2"
    with pytest.raises(InputError, match="format_version"):
        load_system_file(write_file(tmp_path, doc))


def test_eval_scalar_template_values():
    assert eval_scalar("5-2*10**(-e)", {"e": 0.0}) == pytest.approx(3.0)
    assert eval_scalar("5-2*10**(-e)", {"e": 1.0}) == pytest.approx(4.8)
    assert eval_scalar("-(1+2)*3/2", {}) == pytest.approx(-4.5)
    assert eval_scalar("2j**2", {}) == pytest.approx(-4.0)


def test_eval_scalar_unknown_name():
    with pytest.raises(InputError, match="parameter not found"):
        eval_scalar("5-2*10**(-x)", {"e": 1.0})


def test_eval_scalar_rejects_calls_and_attributes():
    with pytest.raises(InputError):
        eval_scalar("__import__('os').system('true')", {})
    with pytest.raises(InputError):
        eval_scalar("e.real", {"e": 1.0})
    with pytest.raises(InputError):
        eval_scalar("[1,2][0]", {})


def test_eval_scalar_division_by_zero():
    with pytest.raises(InputError, match="divide"):
        eval_scalar("1/(e-1)", {"e": 1.0})


@pytest.mark.parametrize("text", ["10**400", "10.0**400"])
def test_eval_scalar_overflow(text):
    with pytest.raises(InputError, match="overflows"):
        eval_scalar(text, {})


def test_template_instantiation(tmp_path):
    eqs = intro_laurent(1.0)
    doc = as_file_dict(eqs, rays=INTRO_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = "5-2*10**(-e)"
    sf = load_system_file(write_file(tmp_path, doc))
    assert sf.parameter_names() == {"e"}
    inst = sf.instantiate("e", 0.0)
    assert inst.parameter_names() == set()
    assert inst.equations[1][2][1] == pytest.approx(3.0)
    inst2 = sf.instantiate("e", 2.0)
    assert inst2.equations[1][2][1] == pytest.approx(4.98)


def test_instantiate_without_parameter(tmp_path):
    doc = as_file_dict(pillow_laurent())
    sf = load_system_file(write_file(tmp_path, doc))
    with pytest.raises(InputError, match="parameter not found"):
        sf.instantiate("e", 1.0)


def test_laurent_rejects_unresolved_template(tmp_path):
    doc = as_file_dict(pillow_laurent())
    doc["equations"][0]["terms"][0]["coeff"] = "5-2*10**(-e)"
    sf = load_system_file(write_file(tmp_path, doc))
    with pytest.raises(InputError, match="unresolved parameter"):
        sf.laurent()


def solved_pillow(seed=0):
    return solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=seed)


def test_solution_file_round_trip(tmp_path):
    result = solved_pillow()
    path = tmp_path / "out.json"
    dump_solution_file(result, path)
    doc = load_solution_file(path)
    assert doc["format_version"] == "1"
    meta = doc["metadata"]
    assert meta["seed"] == 0
    assert meta["delta"] == 2 and meta["delta_plus"] == 4
    assert meta["pair"]["provenance"] == "Codegree"
    assert meta["tolerances"] == {
        "tol_rank": 1e-8, "gap_ratio": 1e3, "cond_max": 1e8, "cluster_gap": 1e-4,
        "leak_tol": 1e-6, "zero_tol": 1e-6, "ratio_tol": 1e-6,
    }
    assert "timings_ms" in meta
    sols = doc["solutions"]
    assert [s["multiplicity"] for s in sols] == [2, 2]
    assert all(len(s["z"]) == 4 and len(s["z"][0]) == 2 for s in sols)
    assert all(s["on_torus"] is False for s in sols)
    assert sorted(tuple(s["zero_pattern"]) for s in sols) == [(0,), (2,)]
    assert all(s["t"] is None for s in sols)
    assert all(len(s["residuals"]) == 2 for s in sols)
    # round trip: re-dumping the parsed document is byte-identical
    text = path.read_text()
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_solution_file_torus_fields(tmp_path):
    result = solve(intro_laurent(1.0), rays=INTRO_RAYS, seed=0)
    doc = solution_file_dict(result)
    sols = doc["solutions"]
    assert len(sols) == 3
    assert all(s["on_torus"] is True for s in sols)
    ts = sorted(s["t"][0][0] for s in sols)
    assert ts[0] == pytest.approx(-2.0, abs=1e-10)


def test_solution_file_deterministic_modulo_timings(tmp_path):
    a = solution_file_dict(solved_pillow())
    b = solution_file_dict(solved_pillow())
    a["metadata"].pop("timings_ms")
    b["metadata"].pop("timings_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_header_is_pinned():
    assert SWEEP_HEADER == "e,max_res,mean_res,min_res,max_norm,delta_plus,status,wall_ms"


def test_sweep_csv_lines_ok_and_failure_rows():
    rows = [
        {"e": 0.0, "max_res": 1e-15, "mean_res": 5e-16, "min_res": 1e-16,
         "max_norm": 4.2, "delta_plus": 3, "status": "ok", "wall_ms": 12},
        {"e": 0.5, "status": "clustering", "wall_ms": 7},
    ]
    lines = sweep_csv_lines(rows)
    assert lines[0] == SWEEP_HEADER
    assert lines[1].startswith("0.0,1e-15,5e-16,1e-16,4.2,3,ok,")
    assert lines[2] == "0.5,,,,,,clustering,7"
    assert all(line.count(",") == 7 for line in lines)


def test_write_series_csv(tmp_path):
    path = tmp_path / "sigma.csv"
    write_series_csv(path, [3.0, 1.5, 1e-12])
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value"
    assert lines[1] == "0,3.0"
    assert len(lines) == 4


def test_solution_set_diagnostics_present():
    result = solved_pillow()
    assert len(result.diagnostics["res_singular_values"]) > 0
    assert len(result.diagnostics["block_leakage"]) > 0
    assert max(result.diagnostics["block_leakage"]) <= 1e-6
