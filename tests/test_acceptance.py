"""End-to-end acceptance checks with pinned values and runtime budgets.

Each test states its tolerance inline. Reference numbers (solution
counts, matrix shapes, the large-norm value of the parameter sweep)
come from the worked examples these systems were built around.
"""

import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.spatial
from click.testing import CliRunner

from toricsolve import cox
from toricsolve.cli import main
from toricsolve.cox import homogenize
from toricsolve.eigensolver import (
    assemble_res,
    cokernel,
    graded_basis,
    multiplication_family,
)
from toricsolve.errors import InputError, PairSelectionError, RankAmbiguousError
from toricsolve.formats import load_system_file
from toricsolve.lattice import Polytope, smith_normal_form
from toricsolve.recovery import (
    EigenvalueTable,
    recover_boundary_point,
    recover_torus_point,
)
from toricsolve.regularity import (
    Provenance,
    RegularityPair,
    default_pair,
    improved_pair,
    verify_pair,
)
from toricsolve.solver import solve
from toricsolve.toric import DivisorClass

from systems import (
    EMPTY_LAURENT,
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    intro_laurent,
    lines27_laurent,
    mixed_volume,
    pillow_fan_solve,
    pillow_laurent,
)
from test_formats import as_file_dict, write_file


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


# ---------------------------------------------------------------------------
# 1. cubic-surface line count: pair report and solution counts


def test_lines27_pair_report_and_solution_counts(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(0)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    path = write_file(tmp_path, as_file_dict(lines27_laurent(c), rays=LINES27_RAYS))

    report = run_cli("regpair", path)
    assert report.exit_code == 0, report.output
    assert "alpha=(0, 0, 6, 6, 0, 0)" in report.output
    assert "alpha0=(0, 0, 1, 1, 0, 0)" in report.output
    assert "shape=1296x2256" in report.output
    assert "shape=441x552" in report.output

    out = tmp_path / "sol.json"
    solve_res = run_cli("solve", path, "--output", out, "--seed", 0)
    assert solve_res.exit_code == 0, solve_res.output
    doc = json.loads(out.read_text())
    assert doc["metadata"]["delta_plus"] == 45

    torus = [s for s in doc["solutions"] if s["on_torus"]]
    boundary = [s for s in doc["solutions"] if not s["on_torus"]]
    assert len(torus) == 27
    assert all(s["multiplicity"] == 1 for s in torus)
    assert max(max(s["residuals"]) for s in torus) <= 1e-8
    assert len(boundary) == 3
    assert all(s["multiplicity"] == 6 for s in boundary)
    assert all(s["zero_pattern"] == [2, 3] for s in boundary)

    assert time.monotonic() - start <= 120.0


# ---------------------------------------------------------------------------
# 2. parameter sweep: accuracy across fourteen decades


def test_parameter_sweep_accuracy_and_norms(tmp_path):
    start = time.monotonic()
    doc = as_file_dict(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    doc["equations"][1]["terms"][2]["coeff"] = "5-2*10**(-e)"
    path = write_file(tmp_path, doc)
    out = tmp_path / "sweep.csv"

    res = run_cli("sweep", path, "--param", "e", "--grid", "0:14:0.5",
                  "--output", out, "--seed", 0)
    assert res.exit_code == 0, res.output

    lines = out.read_text().splitlines()
    assert lines[0] == "e,max_res,mean_res,min_res,max_norm,delta_plus,status,wall_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 29

    by_e = {}
    for cells in rows:
        assert cells[6] == "ok"
        assert int(cells[5]) == 3
        assert float(cells[1]) <= 1e-12
        by_e[float(cells[0])] = cells
    norm_at_8 = float(by_e[8.0][4])
    assert abs(norm_at_8 - 1.414213532799484e8) <= 0.01 * 1.414213532799484e8

    assert time.monotonic() - start <= 60.0


# ---------------------------------------------------------------------------
# 3. exact roots at unit parameter value


def test_unit_parameter_exact_roots():
    result = solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS, seed=0)
    assert all(s.on_torus for s in result.solutions)
    r2 = math.sqrt(2.0)
    want = [(-2.0, 1.0), (1 / r2, -3 / r2 + 2), (-1 / r2, 3 / r2 + 2)]
    got = sorted((s.t for s in result.solutions), key=lambda t: t[0].real)
    want = sorted(want)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert abs(g[0] - w[0]) <= 1e-10
        assert abs(g[1] - w[1]) <= 1e-10


# ---------------------------------------------------------------------------
# 4. corank verification separates working multipliers from broken ones


def test_multiplier_corank_verification():
    system = homogenize(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    alpha = DivisorClass(system.fan, (0, 0, 2, 4))

    # both multipliers have one section, which user_pair refuses: the
    # pairs are built directly
    def pair(alpha0):
        return RegularityPair(alpha, DivisorClass(system.fan, alpha0), Provenance.USER_SUPPLIED)

    assert verify_pair(system, pair((0, 0, 2, 0))) == (3, 4)
    assert verify_pair(system, pair((0, 0, 1, 0))) == (3, 3)


# ---------------------------------------------------------------------------
CURVE_MESSAGE = (
    "pair failed corank verification: 3 at alpha vs 4 at alpha + alpha0; a corank "
    "that grows with the degree is what a solution set that is not finite gives, "
    "which breaks the assumption of a zero-dimensional (finite) solution set")
# (x - 2)(x + y - 1) and x + y - 1: the line x + y = 1 is a curve of common solutions
CURVE = [[((2, 0), 1), ((1, 1), 1), ((1, 0), -3), ((0, 1), -2), ((0, 0), 2)],
         [((1, 0), 1), ((0, 1), 1), ((0, 0), -1)]]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_badly_scaled_equation_is_a_rank_problem(e):
    """Coranks that disagree on an equation whose coefficients spread by
    more than 1 / TOL_RANK raise RankAmbiguousError naming the equation
    and its spread; a disagreement on a well-scaled system stays a pair
    failure."""
    # the coefficient 5 - 2 * 10**(100 e) of the second equation
    with pytest.raises(RankAmbiguousError,
                       match=rf"^equation 1 has .* spread by 1\.0e\+{100 * e} > "):
        solve(intro_laurent(10.0 ** (100 * e)), rays=HIRZEBRUCH_RAYS)
    # the corank grows with the degree: the message names the assumption
    with pytest.raises(PairSelectionError, match=re.escape(CURVE_MESSAGE) + "$"):
        solve(CURVE)


def test_curve_of_solutions_exits_3_naming_the_assumption(tmp_path):
    """The command line reports the same pair failure, with exit 3."""
    res = CliRunner().invoke(main, ["solve", str(write_file(tmp_path, as_file_dict(CURVE)))])
    assert res.exit_code == 3, res.output
    assert f"error (pair): {CURVE_MESSAGE}" in res.output


def scaled_lines(s):
    """s (x + y - 1) and x - y + 0.5, which meet at (0.25, 0.75)."""
    return [[((1, 0), s), ((0, 1), s), ((0, 0), -s)],
            [((1, 0), 1.0), ((0, 1), -1.0), ((0, 0), 0.5)]]


@pytest.mark.parametrize("s", [1e4, 1e6, 1e7, 1e-7])
def test_equation_scale_below_the_cut_solves(s):
    result = solve(scaled_lines(s))
    (sol,) = result.solutions
    assert np.allclose(sol.t, (0.25, 0.75), rtol=0.0, atol=1e-14)
    assert result.max_residual() < 5e-16


@pytest.mark.parametrize("s, big, small", [(1e8, 0, 1), (1e12, 0, 1), (1e300, 0, 1),
                                           (1e-12, 1, 0)])
def test_equation_scales_apart_are_a_rank_problem(s, big, small):
    """Two equations whose largest coefficient moduli differ by 1 / TOL_RANK
    or more: the coranks disagree, and the error names both equations and
    the factor, not the pair."""
    factor = re.escape(f"{max(s, 1 / s):.1e}")
    with pytest.raises(RankAmbiguousError, match=rf"^equations {big} and {small} have "
                                                 rf"largest coefficient moduli differing "
                                                 rf"by a factor {factor} >= "):
        solve(scaled_lines(s))


def test_identically_zero_equation_is_an_input_error():
    """A HomogeneousSystem whose second equation has only zero
    coefficients: the coranks disagree, and the scaling check names the
    equation instead of failing on an empty reduction."""
    system = homogenize(scaled_lines(1.0))
    basis = system.polys[1].basis
    system.polys[1] = cox.CoxPolynomial(basis, np.zeros(len(basis)))
    with pytest.raises(InputError, match="^equation 1 has all coefficients zero$"):
        solve(system)


def test_system_without_solutions_returns_none():
    """Two parallel planes and a third: Res at the pair has no cokernel,
    so solve stops after it with delta+ 0 and no solutions."""
    result = solve(EMPTY_LAURENT, seed=0)
    assert (result.delta, result.delta_plus) == (0, 0)
    assert result.solutions == [] and result.max_residual() == 0.0
    assert "family_ms" not in result.timings


# 5. double pillow: boundary orbits and fixed-basis matrices


def test_double_pillow_boundary_orbits():
    result = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=0)
    assert result.delta == 2
    assert sorted(s.multiplicity for s in result.solutions) == [2, 2]
    assert result.max_residual() <= 1e-10

    by_pattern = {tuple(sorted(s.zero_pattern)): s for s in result.solutions}
    assert set(by_pattern) == {(0,), (2,)}

    # orbit of (0, 1, 1, 1): first coordinate vanishes and the two
    # coordinates paired across the fan keep a unit square ratio
    s0 = by_pattern[(0,)]
    assert abs(s0.z[0]) == 0.0
    assert s0.z[2] ** 2 / s0.z[1] ** 2 == pytest.approx(1.0, abs=1e-10)

    # orbit of (1, 1, 0, i): third coordinate vanishes and the square
    # ratio of the outer coordinates is -1
    s2 = by_pattern[(2,)]
    assert abs(s2.z[2]) == 0.0
    assert s2.z[0] ** 2 / s2.z[3] ** 2 == pytest.approx(-1.0, abs=1e-10)


def test_double_pillow_fixed_basis_matrices():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    res = assemble_res(system, (3, 3, 3, 3))
    cok = cokernel(res)
    rows = res.rows
    v_mons = [(0, 2, 6, 4), (1, 3, 5, 3), (1, 5, 5, 1), (4, 6, 2, 0)]
    w_mons = [(0, 0, 4, 4), (1, 1, 3, 3), (1, 3, 3, 1), (4, 4, 0, 0)]
    B = cok.N[:, [rows.position(v) for v in v_mons]]

    def mult(g):
        cols = [rows.position(tuple(x + y for x, y in zip(g, w)))
                for w in w_mons]
        return np.linalg.solve(B, cok.N[:, cols])

    assert np.allclose(mult((0, 2, 2, 0)), np.eye(4), atol=1e-8)
    expected = np.array([
        [0, 0, 0, 0],
        [1, 0, 0, -1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ], dtype=complex)
    assert np.allclose(mult((1, 1, 1, 1)), expected, atol=1e-8)


# ---------------------------------------------------------------------------
# 6. dense plane systems meet the classical product bound


def test_dense_plane_system_bezout():
    rng = np.random.default_rng(3)

    def dense(d):
        pts = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        return [((i, j), complex(*rng.standard_normal(2))) for i, j in pts]

    system = homogenize([dense(2), dense(3)])
    pair = improved_pair(system)
    assert pair.alpha == 3 * DivisorClass(system.fan, (1, 0, 0))
    assert pair.alpha0 == DivisorClass(system.fan, (1, 0, 0))

    result = solve(system, seed=0)
    assert result.delta_plus == 6
    assert result.max_residual() <= 1e-10


# ---------------------------------------------------------------------------
# 7. property suites


def test_smith_form_on_random_matrices():
    rng = np.random.default_rng(42)
    import sympy

    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = [[int(x) for x in row]
             for row in rng.integers(-9, 10, size=(m, n))]
        U, D, V = smith_normal_form(a)
        prod = sympy.Matrix(U) * sympy.Matrix(a) * sympy.Matrix(V)
        assert prod == sympy.Matrix(D)
        assert abs(sympy.Matrix(U).det()) == 1
        assert abs(sympy.Matrix(V).det()) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0


def test_lattice_points_against_hull_membership():
    rng = np.random.default_rng(7)
    done = 0
    attempts = 0
    while done < 200 and attempts < 1000:
        attempts += 1
        n = 2 if done < 150 else 3
        count = int(rng.integers(n + 1, 8))
        pts = [tuple(int(x) for x in rng.integers(-4, 5, size=n))
               for _ in range(count)]
        try:
            hull = scipy.spatial.ConvexHull(np.array(pts, dtype=float))
        except scipy.spatial.QhullError:
            continue
        poly = Polytope.from_points(pts)
        if poly.dim != n:
            continue
        mine = set(poly.lattice_points())

        los = np.min(np.array(pts), axis=0)
        his = np.max(np.array(pts), axis=0)
        grids = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in zip(los, his)],
                            indexing="ij")
        box = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        inside = np.all(
            box @ hull.equations[:, :-1].T + hull.equations[:, -1] <= 1e-9,
            axis=1,
        )
        brute = {tuple(int(x) for x in p) for p in box[inside]}
        assert mine == brute, (pts, mine ^ brute)
        done += 1
    assert done == 200


def test_generic_count_matches_mixed_volume():
    rng = np.random.default_rng(12)
    done = 0
    attempts = 0
    while done < 50 and attempts < 300:
        attempts += 1
        supports = []
        for _ in range(2):
            count = int(rng.integers(2, 6))
            pts = {tuple(int(x) for x in rng.integers(0, 4, size=2))
                   for _ in range(count)}
            supports.append(sorted(pts))
        if any(len(s) < 2 for s in supports):
            continue
        mv = mixed_volume(supports)
        if mv == 0:
            continue
        eqs = [
            [(exp, complex(*rng.standard_normal(2))) for exp in support]
            for support in supports
        ]
        try:
            system = homogenize(eqs)
            coranks = verify_pair(system, default_pair(system))
        except (InputError, RankAmbiguousError):
            continue
        assert coranks == (mv, mv), (supports, coranks, mv)
        done += 1
    assert done == 50


def test_multiplication_family_commutators():
    cases = [
        (pillow_laurent(), PILLOW_RAYS_SOLVE),
        (intro_laurent(1.0), HIRZEBRUCH_RAYS),
    ]
    for eqs, rays in cases:
        system = homogenize(eqs, rays=rays)
        pair = improved_pair(system)
        lo, hi = verify_pair(system, pair)
        assert lo == hi
        family = multiplication_family(
            cokernel(assemble_res(system, pair.top, pair.alpha0)), seed=0
        )
        mats = [family.matrices[b] for b in family.monomials]
        for a in mats:
            for b in mats:
                scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
                assert np.linalg.norm(a @ b - b @ a) <= 1e-8 * scale


def test_planted_round_trips():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))

    t = (0.7 - 0.2j, 1.3 + 0.4j)
    values = [t[0] ** m[0] * t[1] ** m[1] for m in basis.points.tolist()]
    sol = recover_torus_point(fan, EigenvalueTable(basis, values))
    assert sol.on_torus
    assert abs(sol.t[0] - t[0]) <= 1e-10 * abs(t[0])
    assert abs(sol.t[1] - t[1]) <= 1e-10 * abs(t[1])

    z1 = (0.0, 1.0, 1.0, 1.0)
    values = [np.prod([z1[j] ** b[j] for j in range(4)])
              for b in basis.monomials]
    sol1 = recover_boundary_point(fan, EigenvalueTable(basis, values))
    assert sorted(sol1.zero_pattern) == [0]
    assert max(abs(a - b) for a, b in zip(sol1.z, z1)) <= 1e-10

    z2 = (1.0, 1.0, 0.0, 1.0j)
    values = [np.prod([z2[j] ** b[j] for j in range(4)])
              for b in basis.monomials]
    sol2 = recover_boundary_point(fan, EigenvalueTable(basis, values))
    assert sorted(sol2.zero_pattern) == [2]
    assert sol2.z[0] ** 2 / sol2.z[3] ** 2 == pytest.approx(-1.0, abs=1e-10)


def test_deterministic_solution_files(tmp_path):
    path = write_file(tmp_path, as_file_dict(pillow_laurent(), rays=PILLOW_RAYS_SOLVE))
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = run_cli("solve", path, "--seed", 1, "--output", out)
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        doc["metadata"].pop("timings_ms")
        texts.append(json.dumps(doc, sort_keys=True))
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# 8. golden solution files: a refactor must reproduce the committed output

DATA = Path(__file__).parent / "data"
# dense_p2_d6_seed0 is the one whose Res at alpha + alpha0 is tall
GOLDEN = ("pillow_seed1", "intro_e3_seed0", "lines27_seed0", "dense_p2_d6_seed0")


def _complex_rows(rows):
    return np.array([complex(re, im) for re, im in rows or []])


def _alpha0_exponents(name, meta):
    """Cox exponents of the monomials of degree alpha0, a row per monomial."""
    eqs = load_system_file(DATA / f"{name}.system.json").laurent()
    fan = homogenize(eqs, rays=meta["rays"]).fan
    return graded_basis(fan, meta["pair"]["alpha0"]).exponents


def _embedding(z, exps):
    """The monomials of degree alpha0 at z, as a unit vector. The class
    group scales all of them alike, so up to a unit scalar the vector does
    not depend on which Cox representative z is."""
    v = np.prod(_complex_rows(z) ** exps, axis=1)
    return v / np.linalg.norm(v)


def _projective_gap(u, v):
    """sin of the angle between the complex lines through unit u and v."""
    return float(np.linalg.norm(u - np.vdot(v, u) * v))


def _pair_solutions(got, want, exps):
    """Pair each computed solution with a golden one, by the smallest total
    projective gap between their alpha0 embeddings. The list order follows
    the Schur eigenvalue order, which moves with the rounding of a
    multithreaded BLAS; the points themselves do not. Nor does a boundary
    point's embedding, while its Cox representative is one of several
    under the class group, picked by a branch score that rounding can
    tie."""
    a = [_embedding(g["z"], exps) for g in got]
    b = [_embedding(w["z"], exps) for w in want]
    gap = np.array([[_projective_gap(u, v) for v in b] for u in a])
    rows, cols = scipy.optimize.linear_sum_assignment(gap)
    return [(got[i], want[j], gap[i, j]) for i, j in zip(rows, cols)]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_solution_files(tmp_path, name):
    """Counts, pair, multiplicities and zero patterns exactly; torus
    coordinates to 1e-9 relative to each solution's largest coordinate;
    boundary points, whose Cox coordinates are one representative of the
    point, by their alpha0 embeddings to 1e-9; residuals, which are
    relative already, to 1e-9. Solutions are compared as a set: each
    golden point must be met by exactly one computed point."""
    want = json.loads((DATA / f"{name}.solution.json").read_text())
    out = tmp_path / "sol.json"
    res = run_cli("solve", DATA / f"{name}.system.json",
                  "--seed", want["metadata"]["seed"], "--output", out)
    assert res.exit_code == 0, res.output
    got = json.loads(out.read_text())
    got["metadata"].pop("timings_ms")
    assert got["metadata"] == want["metadata"]
    assert len(got["solutions"]) == len(want["solutions"])
    exps = _alpha0_exponents(name, want["metadata"])
    for g, w, gap in _pair_solutions(got["solutions"], want["solutions"], exps):
        for key in ("multiplicity", "zero_pattern", "on_torus", "non_simplicial"):
            assert g[key] == w[key]
        assert (g["t"] is None) == (w["t"] is None)
        assert gap <= 1e-9
        for key in ("z", "t") if w["on_torus"] else ():
            gz, wz = _complex_rows(g[key]), _complex_rows(w[key])
            assert gz.shape == wz.shape
            scale = max(1.0, float(np.abs(wz).max(initial=0.0)))
            assert np.abs(gz - wz).max(initial=0.0) <= 1e-9 * scale
        assert np.allclose(g["residuals"], w["residuals"], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_cold_and_warm_files_identical(tmp_path, name):
    """A repeat solve reuses the fan, degrees and pair of the first one
    and writes the same bytes, timings_ms excepted."""
    seed = json.loads((DATA / f"{name}.solution.json").read_text())["metadata"]["seed"]
    texts = []
    cox._supports.clear()
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.json"
        res = run_cli("solve", DATA / f"{name}.system.json",
                      "--seed", seed, "--output", out)
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        doc["metadata"].pop("timings_ms")
        texts.append(json.dumps(doc, sort_keys=True))
    assert len(cox._supports) == 1
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# 9. the warm solve path calls no numpy or scipy wrapper that it replaced

# Python-level numpy and scipy helpers whose ufunc, indexing or LAPACK call
# the warm path makes itself, by function name; ndarray methods such as
# .max and .all enter numpy's _methods module, every function of which counts
REPLACED = {"triu", "tri", "eye", "ix_", "norm", "ones", "count_nonzero", "all",
            "any", "swapaxes", "vstack", "solve_triangular"}
# the wrappers that stay, whose own helpers do not count: numpy's SVD, QR,
# inverse, solve and condition number (their gufuncs are private to numpy)
# and np.errstate
KEPT = {("numpy.linalg._linalg", name) for name in ("svd", "qr", "inv", "solve", "cond")}


def _module(frame):
    return frame.f_globals.get("__name__", "")


def _foreign(module):
    return module.split(".")[0] in ("numpy", "scipy")


def replaced_helpers_entered(fn):
    """Run fn under sys.setprofile and count, by (module, function name),
    the replaced helpers entered from toricsolve: straight from one of its
    frames or through numpy or scipy frames that are no kept wrapper (a
    decorator, as around scipy.linalg.solve_triangular). Calls only, no
    timing."""
    entered = {}

    def profile(frame, event, arg):
        module = _module(frame)
        if event != "call" or not _foreign(module):
            return
        name = frame.f_code.co_name
        if name not in REPLACED and not module.endswith("._methods"):
            return
        caller = frame.f_back
        while caller is not None and _foreign(_module(caller)):
            if (_module(caller), caller.f_code.co_name) in KEPT:
                return
            caller = caller.f_back
        if caller is not None and _module(caller).startswith("toricsolve"):
            entered[module, name] = entered.get((module, name), 0) + 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


def test_warm_solves_enter_no_replaced_helper(tmp_path):
    """One warm solve each of a sweep row (its row statistics included), a
    lines27 system and dense_p2_d6_seed0: the first solve of each warms
    the support, the second is watched."""
    def sweep_row():
        res = run_cli("sweep", DATA / "intro_template.system.json",
                      "--param", "e", "--grid", "6:6:1", "--seed", 1)
        assert res.exit_code == 0 and res.output.count(",ok,") == 1, res.output

    def solver(name):
        sf = load_system_file(DATA / f"{name}.system.json")
        return lambda: solve(sf.laurent(), rays=sf.rays, seed=0)

    for fn in (sweep_row, solver("lines27_seed0"), solver("dense_p2_d6_seed0")):
        fn()
        assert replaced_helpers_entered(fn) == {}


# a stand-in for a module of the package, which the watch counts entries from
_PROBE = """
def probe():
    x = np.ones((2, 2)) + 1j
    solve_triangular(np.triu(x), x)
    x.max()
    np.linalg.qr(x)
"""


def test_the_watch_sees_replaced_helpers():
    """A call straight from the package, one through scipy's decorator
    and an ndarray method are seen; the triu inside np.linalg.qr, a kept
    wrapper, is not, and neither is a call from outside the package."""
    namespace = {"__name__": "toricsolve.probe", "np": np,
                 "solve_triangular": scipy.linalg.solve_triangular}
    exec(_PROBE, namespace)
    entered = replaced_helpers_entered(namespace["probe"])
    names = [name for _, name in entered]
    assert {"ones", "triu", "solve_triangular", "_amax"} <= set(names)
    assert sum(n for (_, name), n in entered.items() if name == "triu") == 1
    assert replaced_helpers_entered(lambda: np.triu(np.ones((2, 2)))) == {}
