"""File format layer: system files, solution files, templates, CSV."""

import json
import math

import pytest

from toricsolve import formats
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


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"solution"'])
def test_solution_file_not_an_object(tmp_path, text):
    # valid JSON of another kind used to raise AttributeError
    path = tmp_path / "sol.json"
    path.write_text(text)
    with pytest.raises(InputError, match="JSON object"):
        load_solution_file(path)


@pytest.mark.parametrize("load, kind", [(load_system_file, "system file"),
                                        (load_solution_file, "solution file")])
@pytest.mark.parametrize("text, problem", [
    (None, "cannot read"),
    ("{", "is not valid JSON"),
    ("[]", "must be a JSON object"),
    ('{"format_version": "2"}', "has unsupported format_version '2'; expected '1'"),
])
def test_both_readers_name_their_file(tmp_path, load, kind, text, problem):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InputError) as err:
        load(path)
    message = str(err.value)
    assert message.startswith(kind) or message.startswith(f"cannot read {kind}")
    assert problem in message


def test_eval_scalar_template_values():
    assert eval_scalar("5-2*10**(-e)", {"e": 0.0}) == pytest.approx(3.0)
    assert eval_scalar("5-2*10**(-e)", {"e": 1.0}) == pytest.approx(4.8)
    assert eval_scalar("-(1+2)*3/2", {}) == pytest.approx(-4.5)
    assert eval_scalar("2j**2", {}) == pytest.approx(-4.0)


def test_eval_scalar_unknown_name():
    with pytest.raises(InputError, match="parameter not found") as exc:
        eval_scalar("5-2*10**(-x)", {"e": 1.0})
    assert "'x' in coefficient template '5-2*10**(-x)'" in str(exc.value)


@pytest.mark.parametrize("text", ["__import__", "__builtins__", "__builtins__ + e"])
def test_names_outside_env_are_input_errors(text):
    # eval sees empty builtins, and only after every name is found in env
    with pytest.raises(InputError, match="parameter not found"):
        eval_scalar(text, {"e": 1.0})


def test_eval_scalar_rejects_calls_and_attributes():
    with pytest.raises(InputError):
        eval_scalar("__import__('os').system('true')", {})
    with pytest.raises(InputError):
        eval_scalar("e.real", {"e": 1.0})
    with pytest.raises(InputError):
        eval_scalar("[1,2][0]", {})


def test_eval_scalar_division_by_zero():
    with pytest.raises(InputError, match="divide") as exc:
        eval_scalar("1/(e-1)", {"e": 1.0})
    assert "'1/(e-1)'" in str(exc.value)


@pytest.mark.parametrize("value", ["3", True, None, [1.0]], ids=repr)
def test_eval_scalar_rejects_non_numeric_parameter_values(value):
    with pytest.raises(InputError, match="parameter 'e' must be a number"):
        eval_scalar("5-2*e", {"e": value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan)],
                         ids=repr)
def test_eval_scalar_rejects_non_finite_parameter_values(value):
    with pytest.raises(InputError, match="parameter 'e' is not finite"):
        eval_scalar("5-2*e", {"e": value})


@pytest.mark.parametrize("text", ["10**400", "10.0**400"])
def test_eval_scalar_overflow(text):
    with pytest.raises(InputError, match="overflows"):
        eval_scalar(text, {})


@pytest.mark.parametrize("text", ["True", "e + True", "False * e", "5 - 2 * 10 ** -True"])
def test_eval_scalar_rejects_bools(text):
    # a bool is an int to Python; every other coefficient reader refuses it
    with pytest.raises(InputError, match="non-numeric constant") as exc:
        eval_scalar(text, {"e": 1.0})
    assert repr(text) in str(exc.value)


@pytest.mark.parametrize("text", ["1e400", "-1e400", "1e400j", "9" * 400,
                                  "1e308*10", "e*1e308*10", "1e308*10-1e308*10"])
def test_eval_scalar_rejects_non_finite_values(text):
    # a float literal beyond the range parses to inf, and a float product
    # overflows to inf without raising
    with pytest.raises(InputError, match="overflows the float range") as exc:
        eval_scalar(text, {"e": 1.0})
    assert repr(text) in str(exc.value)


@pytest.mark.parametrize("text", ["e + True", "1e400*e"])
def test_bool_and_non_finite_constants_rejected_at_load(tmp_path, text):
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = text
    with pytest.raises(InputError, match="coefficient template") as exc:
        load_system_file(write_file(tmp_path, doc))
    assert repr(text) in str(exc.value)


def test_non_finite_value_rejected_at_instantiation(tmp_path):
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = "5-1e300*e"
    sf = load_system_file(write_file(tmp_path, doc))
    assert sf.instantiate("e", 1.0).equations[1][2][1] == pytest.approx(-1e300)
    with pytest.raises(InputError, match="overflows the float range") as exc:
        sf.instantiate("e", 1e10)
    assert "'5-1e300*e'" in str(exc.value)


# deep enough to exhaust CPython's parser (RecursionError, then MemoryError
# from its stack) or, parsed, its compiler (RecursionError)
DEEP_TEMPLATES = {
    "parse-recursion": "+".join(["e"] * 5000),
    "parser-stack": "2**" * 3000 + "1",
    "eval-recursion": "+".join(["e"] * 1200),
}


@pytest.mark.parametrize("text", DEEP_TEMPLATES.values(), ids=DEEP_TEMPLATES.keys())
def test_eval_scalar_deep_nesting(text):
    with pytest.raises(InputError, match="nests too deeply"):
        eval_scalar(text, {"e": 1.0})


@pytest.mark.parametrize("name", DEEP_TEMPLATES.keys())
def test_deep_template_rejected_at_load(tmp_path, name):
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = DEEP_TEMPLATES[name]
    with pytest.raises(InputError, match="nests too deeply"):
        load_system_file(write_file(tmp_path, doc))


# syntax outside numbers, names, + - * / ** and parentheses
@pytest.mark.parametrize("text", ["e.real", "abs(e)", "[1, 2][0]", "(e := 1)", "e % 2",
                                  "e // 2", "e < 1", "lambda: e", "e if e else 1"])
def test_unsupported_syntax_rejected_at_load(tmp_path, text):
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = text
    with pytest.raises(InputError, match="unsupported syntax") as exc:
        load_system_file(write_file(tmp_path, doc))
    assert repr(text) in str(exc.value)


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


def test_templates_are_parsed_once_when_the_file_is_made(tmp_path, monkeypatch):
    """One parse per distinct template text while loading, repeats
    included; the parameter names and three instantiated rows parse none."""
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][0]["terms"][2]["coeff"] = "5-2*10**(-e)"
    doc["equations"][1]["terms"][2]["coeff"] = "5-2*10**(-e)"
    doc["equations"][1]["terms"][4]["coeff"] = "5*e"
    parsed = []
    parse = formats._parse_template
    monkeypatch.setattr(formats, "_parse_template",
                        lambda text: parsed.append(text) or parse(text))
    sf = load_system_file(write_file(tmp_path, doc))
    assert sorted(parsed) == ["5*e", "5-2*10**(-e)"]
    parsed.clear()
    assert sf.parameter_names() == {"e"}
    for e in (0.0, 1.0, 2.0):
        sf.instantiate("e", e).laurent()
    assert parsed == []


def test_instantiate_checks_the_parameter_value(tmp_path):
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = "e"
    sf = load_system_file(write_file(tmp_path, doc))
    with pytest.raises(InputError, match="parameter 'e' must be a number"):
        sf.instantiate("e", "3")


def test_instantiate_refuses_a_template_in_another_parameter(tmp_path):
    doc = as_file_dict(intro_laurent(1.0), rays=INTRO_RAYS)
    doc["equations"][0]["terms"][2]["coeff"] = "4*e"
    doc["equations"][1]["terms"][2]["coeff"] = "5-2*10**(-x)"
    sf = load_system_file(write_file(tmp_path, doc))
    for check in (sf.check_parameter, lambda name: sf.instantiate(name, 1.0)):
        with pytest.raises(InputError, match="parameter not found") as exc:
            check("e")
        assert "'x' in coefficient template '5-2*10**(-x)'" in str(exc.value)


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
    assert meta["pair"]["provenance"] == "VanishingTest"
    assert meta["tolerances"] == {
        "tol_rank": 1e-8, "gap_ratio": 1e3, "cond_max": 1e8, "h0_cond_target": 1e5,
        "cluster_gap": 1e-4, "leak_tol": 1e-6, "zero_tol": 1e-6, "ratio_tol": 1e-6,
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
    assert len(result.diagnostics["res_r_diagonal"]) > 0
    lower, upper = result.diagnostics["rank_bounds"]
    assert lower > upper
    assert len(result.diagnostics["block_leakage"]) > 0
    assert max(result.diagnostics["block_leakage"]) <= 1e-6
