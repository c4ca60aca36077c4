"""Graded bases, homogenization, and evaluation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsolve import cox, lattice, recovery, toric
from toricsolve.cox import (
    SUPPORTS_MAX,
    CoxPolynomial,
    GradedBasis,
    graded_basis,
    homogenize,
)
from toricsolve.errors import InputError
from toricsolve.formats import solution_file_dict
from toricsolve.lattice import dot, integer_kernel
from toricsolve.regularity import Provenance, RegularityPair, improved_pair
from toricsolve.solver import solve

from systems import (
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    hirzebruch_fan,
    intro_laurent,
    lines27_fan,
    lines27_laurent,
    lines27_supports,
    pillow_fan,
    pillow_fan_doubled,
    evaluate_reference,
    pillow_laurent,
    residuals_reference,
    wp112_fan,
)


# ---------------------------------------------------------------- bases

def test_pillow_anticanonical_basis():
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    assert len(basis) == 5
    assert (1, 1, 1, 1) in basis.monomials  # x1 x2 x3 x4, the interior point
    assert set(basis.monomials) == {
        (1, 1, 1, 1), (2, 0, 0, 2), (0, 0, 2, 2), (2, 2, 0, 0), (0, 2, 2, 0),
    }
    # lex order on the lattice points m, not on the exponents
    assert basis.lattice_points == sorted(basis.lattice_points)


def test_lines27_basis_sizes():
    fan = lines27_fan()
    assert len(graded_basis(fan, (0, 0, 5, 5, 0, 0))) == 441
    assert len(graded_basis(fan, (0, 0, 7, 7, 0, 0))) == 1296


def test_empty_basis_is_valid():
    fan = pillow_fan()
    assert len(graded_basis(fan, (-1, 0, 0, 0))) == 0


def test_basis_position_lookup():
    basis = graded_basis(pillow_fan(), (1, 1, 1, 1))
    for i, b in enumerate(basis.monomials):
        assert basis.position(b) == i
    assert basis.position((9, 9, 9, 9)) is None


def test_graded_basis_is_kept_by_the_fan():
    fan = lines27_fan()
    a = (0, 0, 2, 2, 0, 0)
    assert graded_basis(fan, a) is graded_basis(fan, a)
    assert graded_basis(fan, fan.divisor(a)) is graded_basis(fan, list(a))
    assert graded_basis(lines27_fan(), a) is not graded_basis(fan, a)


@pytest.mark.parametrize("a", [(1, 1, 1, 1), (-1, 0, 0, 0)])
def test_shared_basis_arrays_are_read_only(a):
    basis = graded_basis(pillow_fan(), a)
    for arr in (basis.points, basis.exponents, basis._keys, basis._powers, basis._coords):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


FAN_POOL = [pillow_fan(), hirzebruch_fan(), wp112_fan()]


@settings(max_examples=200, deadline=None)
@given(
    fan_idx=st.integers(0, len(FAN_POOL) - 1),
    a=st.lists(st.integers(-6, 6), min_size=3, max_size=4),
)
def test_basis_size_matches_brute_force(fan_idx, a):
    fan = FAN_POOL[fan_idx]
    rep = tuple((a * 2)[: fan.k])
    basis = graded_basis(fan, rep)
    count = 0
    span = range(-19, 20)
    for m in __import__("itertools").product(span, repeat=fan.n):
        if all(dot(u, m) + rep[j] >= 0 for j, u in enumerate(fan.rays)):
            count += 1
    assert len(basis) == count


def test_lines27_basis_brute_force():
    fan = lines27_fan()
    rep = (0, 1, 2, 3, -1, 0)
    basis = graded_basis(fan, rep)
    count = 0
    span = range(-4, 8)
    for m in __import__("itertools").product(span, repeat=4):
        if all(dot(u, m) + rep[j] >= 0 for j, u in enumerate(fan.rays)):
            count += 1
    assert len(basis) == count


@settings(max_examples=200, deadline=None)
@given(
    fan_idx=st.integers(0, len(FAN_POOL) - 1),
    rep=st.lists(st.integers(-2, 4), min_size=4, max_size=4),
    probes=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=12),
)
def test_rows_match_dict_lookup(fan_idx, rep, probes):
    fan = FAN_POOL[fan_idx]
    basis = graded_basis(fan, rep[:fan.k])
    index = {m: i for i, m in enumerate(basis.lattice_points)}
    pts = basis.lattice_points + probes
    got = basis.rows(np.array(pts, dtype=np.int64).reshape(-1, 2))
    assert got.tolist() == [index.get(p, -1) for p in pts]


def test_rows_outside_box_never_alias():
    basis = graded_basis(pillow_fan(), (2, 2, 2, 2))
    lo, hi = basis.points.min(axis=0), basis.points.max(axis=0)
    assert (hi - lo + 1).tolist() == [5, 5]
    # the first three probes share the key of the centre (0, 0), a basis
    # point: (-1, 5) and (1, -5) exactly, (2**62, -2**62) after int64
    # wraparound (5 * 2**62 - 2**62 = 2**64); the last is far outside
    outside = [(-1, 5), (2**62, -(2**62)), (1, -5), (0, 2**61)]
    assert basis.rows(outside).tolist() == [-1] * len(outside)
    assert basis.rows(basis.points[::-1]).tolist() == list(range(len(basis)))[::-1]
    empty = graded_basis(pillow_fan(), (-1, 0, 0, 0))
    assert empty.rows(np.zeros((3, 0, 2), dtype=np.int64)).shape == (3, 0)
    assert empty.rows([(0, 0)]).tolist() == [-1]


def test_grading_consistency():
    # every basis monomial of S_alpha has class group image equal to alpha
    for fan, rep in [
        (pillow_fan(), (2, 1, 0, 1)),
        (hirzebruch_fan(), (0, 0, 1, 2)),
        (wp112_fan(), (1, 2, 0)),
    ]:
        target = fan.class_group.degree(rep)
        basis = graded_basis(fan, rep)
        for b in basis.monomials:
            assert fan.class_group.degree(b) == target


# --------------------------------------------------------- homogenization

def test_pillow_homogenization_exact():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    assert [d.a for d in system.degrees] == [(1, 1, 1, 1)] * 2
    f1, f2 = system.polys
    assert dict(f1.terms()) == {
        (2, 0, 0, 2): 1, (0, 0, 2, 2): -1, (2, 2, 0, 0): 1, (0, 2, 2, 0): 1,
    }
    assert dict(f2.terms()) == {
        (2, 0, 0, 2): 2, (0, 0, 2, 2): 1, (2, 2, 0, 0): -1, (0, 2, 2, 0): -1,
    }


def test_pillow_homogenization_solve_order():
    # same system under the alternative variable order swaps x3 and x4
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    f1 = system.polys[0]
    assert dict(f1.terms()) == {
        (2, 0, 2, 0): 1, (0, 0, 2, 2): -1, (2, 2, 0, 0): 1, (0, 2, 0, 2): 1,
    }


def test_intro_homogenization_degrees():
    system = homogenize(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    assert [d.a for d in system.degrees] == [(0, 0, 1, 2)] * 2
    assert len(system.polys[0].terms()) == 5


def test_constant_equation_degree_zero():
    eqs = pillow_laurent() + [[((0, 0), 1.0)]]
    system = homogenize(eqs, rays=PILLOW_RAYS)
    const = system.polys[2]
    assert const.degree.a == (0, 0, 0, 0)
    assert const.terms() == [((0, 0, 0, 0), 1 + 0j)]


def test_lines27_homogenization_shapes():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    system = homogenize(lines27_laurent(c), rays=LINES27_RAYS)
    assert system.fan.rays == LINES27_RAYS
    assert [d.degree()[0] for d in system.degrees] == [
        (0, 3), (3, 0), (1, 2), (2, 1),
    ]
    # full supports: every section polytope lattice point carries a term
    for f, support in zip(system.polys, lines27_supports()):
        assert len(f.terms()) == len(support)
        assert len(f.basis) == len(support)


def test_homogenize_rejects_deficient_direction():
    # both Newton polytopes on the same line: Minkowski sum is a segment
    with pytest.raises(InputError):
        homogenize([
            [((0, 0), 1), ((1, 0), 1)],
            [((0, 0), 1), ((2, 0), 3)],
        ])


def test_homogenize_merges_duplicate_terms():
    system = homogenize([
        [((1, 0), 1), ((1, 0), 2), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)],
        pillow_laurent()[1],
    ], rays=PILLOW_RAYS)
    assert dict(system.polys[0].terms())[(2, 0, 0, 2)] == 3


def test_homogenize_ray_order_mismatch():
    with pytest.raises(InputError):
        homogenize(pillow_laurent(), rays=HIRZEBRUCH_RAYS)


@pytest.mark.parametrize("bad", [1.5, True])
def test_homogenize_rejects_non_integer_exponent(bad):
    # int() would read both as 1 and solve a different system
    eqs = pillow_laurent()
    eqs[1] = eqs[1] + [((bad, 0), 2.0)]
    with pytest.raises(InputError, match=r"equation 1, term \(\(" + str(bad)):
        homogenize(eqs, rays=PILLOW_RAYS)
    with pytest.raises(InputError, match="equation 1"):
        solve(eqs, rays=PILLOW_RAYS)


@pytest.mark.parametrize("term, what", [
    ((0, 0), "the exponent must be a nonempty tuple"),
    (5, r"expected an \(exponent tuple, coefficient\) pair"),
    (((1, 0),), r"expected an \(exponent tuple, coefficient\) pair"),
    (((1, 0), 2.0, 3.0), r"expected an \(exponent tuple, coefficient\) pair"),
    ((1, 2.0), "the exponent must be a nonempty tuple"),
    (((), 2.0), "the exponent must be a nonempty tuple"),
    (((1, 0), "x"), "the coefficient must be a number"),
    (((1, 0), "2"), "the coefficient must be a number"),
    (((1, 0), None), "the coefficient must be a number"),
], ids=["scalar-exponent-pair", "bare-int", "no-coefficient", "three-entries",
        "scalar-exponent", "empty-exponent", "word-coefficient", "numeral-coefficient",
        "none-coefficient"])
def test_homogenize_rejects_malformed_terms(term, what):
    # each used to escape as a raw TypeError or ValueError
    eqs = pillow_laurent()
    eqs[1] = eqs[1] + [term]
    with pytest.raises(InputError, match=r"equation 1, term .*: " + what):
        homogenize(eqs, rays=PILLOW_RAYS)
    with pytest.raises(InputError, match="equation 1"):
        solve(eqs, rays=PILLOW_RAYS)


@pytest.mark.parametrize("rays, what", [
    ([(True, 1), (-1, 1), (-1, -1), (1, -1)], "ray 0"),
    ([(1, 1), (-1.0, 1), (-1, -1), (1, -1)], "ray 1"),
    ([(1, 1), (-1, 1), 3, (1, -1)], "ray 2"),
    (5, "rays must be a list"),
], ids=["bool-entry", "float-entry", "scalar-ray", "scalar-rays"])
def test_homogenize_rejects_non_integer_rays(rays, what):
    # True and -1.0 would read as 1 and -1 and solve as the pillow
    with pytest.raises(InputError, match=what):
        homogenize(pillow_laurent(), rays=rays)
    with pytest.raises(InputError, match=what):
        solve(pillow_laurent(), rays=rays)


def test_homogenize_accepts_numpy_integer_exponents():
    eqs = [[(tuple(np.array(e, dtype=np.int32)), c) for e, c in eq]
           for eq in pillow_laurent()]
    system = homogenize(eqs, rays=PILLOW_RAYS)
    assert [d.a for d in system.degrees] == [(1, 1, 1, 1)] * 2


# --------------------------------------------------- repeat-support cache

@pytest.fixture
def cold():
    """An empty support cache before and after the test."""
    cox._supports.clear()
    yield cox._supports
    cox._supports.clear()


def _coords(result):
    return [(s.multiplicity, s.zero_pattern, s.z, s.residuals)
            for s in result.solutions]


def test_repeat_support_reuses_fan_and_bases(cold):
    a = homogenize(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    b = homogenize(intro_laurent(0.5), rays=HIRZEBRUCH_RAYS)
    assert len(cold) == 1
    assert b.fan is a.fan
    assert all(f.basis is g.basis for f, g in zip(a.polys, b.polys))
    # only the coefficients moved
    assert not np.array_equal(a.polys[1].coeffs, b.polys[1].coeffs)
    # no rays is a different key, with a fan of its own
    c = homogenize(intro_laurent(1.0))
    assert len(cold) == 2 and c.fan is not a.fan


def test_warm_cache_permuted_terms_match_cold(cold):
    eqs = intro_laurent(0.1)
    permuted = [eq[2:] + eq[:2] for eq in eqs]
    want = _coords(solve(permuted, rays=HIRZEBRUCH_RAYS, seed=3))
    cold.clear()
    solve(eqs, rays=HIRZEBRUCH_RAYS)  # warms the same support
    assert _coords(solve(permuted, rays=HIRZEBRUCH_RAYS, seed=3)) == want
    assert len(cold) == 1


def test_warm_cache_duplicated_exponent_matches_cold(cold):
    eqs = intro_laurent(0.1)
    split = [eqs[0], eqs[1][:-1] + [((1, 1), 2.0), ((1, 1), 3.0)]]
    cold_res = _coords(solve(split, rays=HIRZEBRUCH_RAYS, seed=5))
    assert len(cold) == 1
    cold.clear()
    solve(intro_laurent(0.7), rays=HIRZEBRUCH_RAYS)  # warms the same support
    assert _coords(solve(split, rays=HIRZEBRUCH_RAYS, seed=5)) == cold_res
    assert len(cold) == 1


def test_pair_memo_returns_the_shared_pair(cold):
    first = solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    assert first.delta_plus == 3
    system = homogenize(intro_laurent(0.5), rays=HIRZEBRUCH_RAYS)
    assert system.fan is first.system.fan
    # the pair is a value: one solve leaves nothing on it for the next
    assert improved_pair(system) is first.pair
    assert RegularityPair.__slots__ == ("alpha", "alpha0", "provenance")
    second = solve(intro_laurent(0.5), rays=HIRZEBRUCH_RAYS)
    assert second.pair is first.pair and second.delta_plus == 3


def test_user_pair_bypasses_pair_memo(cold):
    auto = solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    alpha, alpha0 = auto.pair.alpha.a, auto.pair.alpha0.a
    cold.clear()
    res = solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS, pair=(alpha, alpha0))
    assert res.pair.provenance is Provenance.USER_SUPPLIED
    assert not [key for key in res.system.fan._store if key[:1] == ("pair",)]


def test_mismatched_rays_leave_no_entry(cold):
    for _ in range(2):
        with pytest.raises(InputError):
            homogenize(pillow_laurent(), rays=HIRZEBRUCH_RAYS)
        assert len(cold) == 0
    with pytest.raises(InputError):
        homogenize([[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((2, 0), 3)]])
    assert len(cold) == 0


def test_pair_search_then_solve_keeps_the_bases(cold):
    rng = np.random.default_rng(0)
    eqs = lines27_laurent(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    system = homogenize(eqs, rays=LINES27_RAYS)
    pair = improved_pair(system)
    fan = system.fan
    kept = {key: basis for key, basis in fan._store.items() if key[:1] == ("basis",)}
    assert len(kept) > 0
    result = solve(eqs, rays=LINES27_RAYS)
    assert result.system.fan is fan
    assert (result.pair.alpha.a, result.pair.alpha0.a) == (pair.alpha.a, pair.alpha0.a)
    # the solve replaced none of the bases the pair search built
    assert all(fan._store[key] is basis for key, basis in kept.items())
    assert all(f.basis is g.basis for f, g in zip(result.system.polys, system.polys))


@pytest.mark.parametrize("case", ["intro", "pillow", "lines27"])
def test_repeat_solve_does_only_coefficient_work(cold, monkeypatch, case):
    """After one solve on a support, a solve with new coefficients looks
    up no lattice point, does no exact work for its boundary orbits or
    its binomial plans, and adds nothing to the fan's store but plans.

    Recovery keeps one integer plan per base point and usable mask. A
    new draw may meet a (base point, mask) the first solve did not; then,
    and only then, it adds that plan's key and makes the plan. Which keys
    a draw meets follows the rounding of the float stages, which moves
    with the BLAS thread count, so the keys expected are those that
    solving each draw cold on a fresh fan makes (the lines27 draws here
    meet new ones, the others none). Solving a draw again makes none."""
    rng = np.random.default_rng(1)
    if case == "intro":
        eqs, rays = [intro_laurent(1.0), intro_laurent(0.3)], HIRZEBRUCH_RAYS
    elif case == "pillow":
        eqs, rays = [pillow_laurent(), pillow_laurent()[::-1]], PILLOW_RAYS_SOLVE
    else:
        eqs = [lines27_laurent(rng.standard_normal(20) + 1j * rng.standard_normal(20))
               for _ in range(2)]
        rays = LINES27_RAYS
    met = []
    for eq in eqs:
        cold.clear()
        met.append({key for key in solve(eq, rays=rays).system.fan._store
                    if key[:1] == ("plan",)})
    cold.clear()
    first = solve(eqs[0], rays=rays)
    fan = first.system.fan
    store = dict(fan._store)
    assert store
    calls = []
    rows = GradedBasis.rows
    monkeypatch.setattr(GradedBasis, "rows",
                        lambda self, points: calls.append("rows") or rows(self, points))
    # no divisor class is built, and no basis rebuilds its power-table index
    init = toric.DivisorClass.__init__
    monkeypatch.setattr(toric.DivisorClass, "__init__",
                        lambda self, *args: calls.append("DivisorClass") or init(self, *args))
    power_index = cox._power_index
    monkeypatch.setattr(cox, "_power_index",
                        lambda exps: calls.append("_power_index") or power_index(exps))
    # recovery need not import all of them, so each is set, not replaced;
    # the stratum verdict of a boundary cone is exact work too, and so are
    # a binomial plan and the Smith forms it takes
    exact_work = [getattr(lattice, name) for name in
                  ("integer_kernel", "right_inverse", "solve_int", "rank_int",
                   "smith_normal_form")]
    for exact in exact_work + [toric.boundary_stratum_check, recovery._branch_plan]:
        def counted(*args, exact=exact):
            calls.append(exact.__name__)
            return exact(*args)
        monkeypatch.setattr(recovery, exact.__name__, counted, raising=False)
    second = solve(eqs[1], rays=rays)
    assert second.system.fan is fan and len(cold) == 1
    new = fan._store.keys() - store.keys()
    assert all(key[0] == "plan" for key in new)
    assert new == met[1] - met[0]
    assert bool(new) == (case == "lines27")
    assert calls.count("_branch_plan") == len(new)
    assert set(calls) <= {"_branch_plan", "smith_normal_form"}
    assert all(fan._store[key] is value for key, value in store.items())
    calls.clear()
    store = dict(fan._store)
    again = solve(eqs[0], rays=rays)
    assert calls == []
    assert fan._store.keys() == store.keys()
    assert _coords(again) == _coords(first)


def test_warm_solves_do_not_depend_on_the_order_of_draws(cold):
    """Two lines27 draws solved as A then B on one fan, and as B then A on
    a fresh fan, give byte-identical solution files: the plans a draw
    finds kept are the plans it would have built."""
    rng = np.random.default_rng(1)
    draws = [lines27_laurent(rng.standard_normal(20) + 1j * rng.standard_normal(20))
             for _ in range(2)]

    def files(order):
        cold.clear()
        out = {}
        for i in order:
            result = solve(draws[i], rays=LINES27_RAYS, seed=i)
            out[i] = solution_file_dict(result)
            del out[i]["metadata"]["timings_ms"]
        return out

    ab, ba = files([0, 1]), files([1, 0])
    for i in range(2):
        assert json.dumps(ab[i], sort_keys=True) == json.dumps(ba[i], sort_keys=True)


def test_cache_stays_within_bound(cold):
    systems = [[[((0, 0), 1.0), ((d, 0), 1.0), ((0, 1), 1.0)],
                [((0, 0), 2.0), ((1, 0), 1.0), ((0, d), 1.0)]]
               for d in range(1, SUPPORTS_MAX + 4)]
    fans = [homogenize(eqs).fan for eqs in systems]
    assert len(cold) == SUPPORTS_MAX
    # the newest support is kept, the oldest was dropped and is rebuilt
    assert homogenize(systems[-1]).fan is fans[-1]
    assert homogenize(systems[0]).fan is not fans[0]
    assert len(cold) == SUPPORTS_MAX


# ------------------------------------------------------------- evaluation

def test_evaluate_residual_scale():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    value, scale = system.polys[1].evaluate(np.ones(4))
    assert value == pytest.approx(1.0)
    assert scale == pytest.approx(5.0)
    res = system.residuals(np.ones(4))
    assert res[1] == pytest.approx(0.2)


def test_known_boundary_points_vanish():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    z1 = np.array([0, 1, 1, 1], dtype=complex)
    z2 = np.array([1, 1, 1j, 0], dtype=complex)
    assert np.allclose(system.residuals(z1), 0)
    assert np.allclose(system.residuals(z2), 0)
    # under the alternative variable order the second orbit is (1,1,0,i)
    system2 = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    z2b = np.array([1, 1, 0, 1j], dtype=complex)
    assert np.allclose(system2.residuals(z1), 0)
    assert np.allclose(system2.residuals(z2b), 0)


def test_zero_over_zero_residual():
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    f = CoxPolynomial.from_terms(basis, {(2, 0, 0, 2): 1.0})
    from toricsolve.cox import HomogeneousSystem
    system = HomogeneousSystem(fan, [f], [basis.degree])
    assert system.residuals(np.array([0, 1, 0, 1], dtype=complex))[0] == 0.0


def per_point_residuals(system, z):
    """The residual rules spelled out term by term for one point."""
    out = []
    for f in system.polys:
        value, scale = 0j, 0.0
        for c, b in zip(f.coeffs, f.basis.monomials):
            mon = np.prod([complex(x) ** e for x, e in zip(z, b)])
            value += c * mon
            scale += abs(c) * abs(mon)
        out.append(abs(value) / scale if scale else (0.0 if value == 0 else np.inf))
    return np.array(out)


@pytest.mark.parametrize("eqs, rays", [
    (pillow_laurent(), PILLOW_RAYS),
    (intro_laurent(0.37), HIRZEBRUCH_RAYS),
])
def test_batched_residuals_match_per_point(eqs, rays):
    system = homogenize(eqs, rays=rays)
    rng = np.random.default_rng(5)
    points = rng.standard_normal((6, system.k)) + 1j * rng.standard_normal((6, system.k))
    # zero coordinates: 0^0 counts as 1, and a point where every term of
    # an equation vanishes has residual 0 there
    points[1, 0] = 0.0
    points[2] = 0.0
    points[3, :2] = 0.0
    batched = system.residuals(points)
    assert batched.shape == (6, len(system))
    for z, row in zip(points, batched):
        assert np.allclose(row, system.residuals(z), rtol=1e-13, atol=1e-16)
        assert np.allclose(row, per_point_residuals(system, z), rtol=1e-12, atol=1e-15)
    assert np.array_equal(batched[2], np.zeros(len(system)))


@settings(max_examples=200, deadline=None)
@given(
    fan_idx=st.integers(0, len(FAN_POOL) - 1),
    rep=st.lists(st.integers(-1, 3), min_size=4, max_size=4),
    lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_matches_the_old_body_bit_for_bit(fan_idx, rep, lead, seed):
    """The kept power-table indices and the ufunc reductions give the
    bits of the old evaluation, on one point or stacks of them, with
    zero coordinates (0^0 = 1) and zero coefficients."""
    fan = FAN_POOL[fan_idx]
    basis = graded_basis(fan, rep[:fan.k])
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    coeffs[rng.random(len(basis)) < 0.3] = 0.0
    f = CoxPolynomial(basis, coeffs)
    z = rng.standard_normal(lead + (fan.k,)) + 1j * rng.standard_normal(lead + (fan.k,))
    z[rng.random(z.shape) < 0.3] = 0.0
    for got, want in zip(f._evaluate(z), evaluate_reference(f, z)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    if len(lead) < 2:
        system = cox.HomogeneousSystem(fan, [f, f], [basis.degree] * 2)
        assert np.array_equal(system.residuals(z), residuals_reference(system, z))


def test_residuals_reject_wrong_length():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    with pytest.raises(InputError):
        system.residuals(np.ones((2, 3)))


def test_group_action_invariance():
    # scaling by exp(ker F x C) fixes every relative residual
    rng = np.random.default_rng(11)
    for eqs, rays in [
        (pillow_laurent(), PILLOW_RAYS),
        (intro_laurent(0.37), HIRZEBRUCH_RAYS),
    ]:
        system = homogenize(eqs, rays=rays)
        f_rows = [[u[i] for u in system.fan.rays] for i in range(system.n)]
        kernel = integer_kernel(f_rows)
        z = rng.standard_normal(system.k) + 1j * rng.standard_normal(system.k)
        base = system.residuals(z)
        for _ in range(5):
            w = sum(
                (rng.standard_normal() + 1j * rng.standard_normal()) * np.array(kv)
                for kv in kernel
            )
            moved = system.residuals(z * np.exp(w))
            assert np.allclose(moved, base, atol=1e-12)


def test_from_terms_rejects_foreign_monomial():
    basis = graded_basis(pillow_fan(), (1, 1, 1, 1))
    with pytest.raises(InputError):
        CoxPolynomial.from_terms(basis, {(1, 0, 0, 0): 1.0})


def test_graded_basis_cross_fan_error():
    fan_a = pillow_fan()
    fan_b = pillow_fan_doubled()
    div = fan_a.divisor((1, 1, 1, 1))
    with pytest.raises(InputError):
        graded_basis(fan_b, div)
