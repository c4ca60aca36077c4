"""Metamorphic checks: changes to the input that must not change the answer.

Scaling one equation by a nonzero constant leaves its zero set alone, so
delta+, the multiplicities and the points stay put. Rescaling the torus,
t_i -> c_i t_i, moves every torus point t to t / c and every boundary
point along its own orbit, so delta+, the multiplicities and the zero
patterns stay put. A unimodular change of exponents m -> U m, with the
rays moved to U^-T u, keeps every pairing <u, m> and so every Cox
exponent: delta+, the multiplicities and the zero patterns stay put,
and each torus point t' of the new system gives t_i = prod_j t'_j^U_ji.
The seed drives only the solver's random choices, so delta+ and the
multiplicities stay put under a new seed. Every example of a system
shares its support, so each solve after the first runs on a warm
homogenize cache and pair memo.
"""

import cmath
import math

import numpy as np
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricsolve.cox import graded_basis
from toricsolve.solver import solve

from systems import HIRZEBRUCH_RAYS, PILLOW_RAYS_SOLVE, intro_laurent, pillow_laurent

SYSTEMS = {
    "pillow": (pillow_laurent(), PILLOW_RAYS_SOLVE),
    "intro e=0": (intro_laurent(1.0), HIRZEBRUCH_RAYS),
    "intro e=3": (intro_laurent(1e-3), HIRZEBRUCH_RAYS),
}
# largest projective distance between a point and its image
POINT_TOL = 1e-6

# Scale factors within three decades of 1. The intro system at e = 3 is
# the sensitive one: its divergent root has table entries six decades
# apart, so how accurate the cokernel basis of an unbalanced Res is
# decides whether recovery finds that root
# (test_large_scale_keeps_divergent_root pins a scale of 10**2.75).
scales = st.builds(
    lambda mag, phase: 10.0 ** mag * cmath.exp(1j * phase),
    st.floats(-3, 3), st.floats(0, 2 * math.pi),
)


# torus scale factors within one decade of 1, with random phases
torus_scales = st.builds(
    lambda mag, phase: 10.0 ** mag * cmath.exp(1j * phase),
    st.floats(-1, 1), st.floats(0, 2 * math.pi),
)


def _multiplicities(result):
    return sorted(s.multiplicity for s in result.solutions)


def _embedding(result):
    """Each point's monomials of degree alpha0, a row per solution. The
    group action scales all monomials of one degree alike, so up to a
    scalar the row does not depend on which Cox representative z is."""
    exps = graded_basis(result.system.fan, result.pair.alpha0).exponents
    return np.array([np.prod(np.asarray(s.z) ** exps, axis=1)
                     for s in result.solutions])


def _projective_gap(u, v):
    """sin of the angle between the complex lines through u and v."""
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return float(np.linalg.norm(u - np.vdot(v, u) * v))


def _assert_same_points(got, want, column_scales=1.0, columns=slice(None)):
    """Match the points of got to those of want; columns reorders got's
    embedding and column_scales then multiplies it. Returns the matched
    (got, want) solutions."""
    a, b = _embedding(got)[:, columns] * column_scales, _embedding(want)
    gap = np.array([[_projective_gap(u, v) for v in b] for u in a])
    rows, cols = scipy.optimize.linear_sum_assignment(gap)
    assert gap[rows, cols].max(initial=0.0) <= POINT_TOL
    pairs = [(got.solutions[i], want.solutions[j]) for i, j in zip(rows, cols)]
    for g, w in pairs:
        assert g.multiplicity == w.multiplicity
    return pairs


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 1), scales,
       st.integers(0, 2 ** 31 - 1))
def test_scaling_an_equation_keeps_the_solutions(name, which, scale, seed):
    eqs, rays = SYSTEMS[name]
    want = solve(eqs, rays=rays, seed=seed)
    scaled = [[(e, scale * c if i == which else c) for e, c in eq]
              for i, eq in enumerate(eqs)]
    got = solve(scaled, rays=rays, seed=seed)
    assert got.delta_plus == want.delta_plus
    assert _multiplicities(got) == _multiplicities(want)
    _assert_same_points(got, want)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.lists(torus_scales, min_size=2, max_size=2),
       st.integers(0, 2 ** 31 - 1))
def test_rescaling_the_torus_moves_the_points(name, c, seed):
    eqs, rays = SYSTEMS[name]
    c = np.array(c)
    want = solve(eqs, rays=rays, seed=seed)
    # t -> c t turns a t^m into (a c^m) t^m
    scaled = [[(e, coeff * np.prod(c ** np.array(e))) for e, coeff in eq]
              for eq in eqs]
    got = solve(scaled, rays=rays, seed=seed)
    assert got.delta_plus == want.delta_plus
    assert _multiplicities(got) == _multiplicities(want)
    assert (sorted(sorted(s.zero_pattern) for s in got.solutions)
            == sorted(sorted(s.zero_pattern) for s in want.solutions))
    # a monomial of degree alpha0 at lattice point m scales by c^-m
    points = graded_basis(got.system.fan, got.pair.alpha0).points
    pairs = _assert_same_points(got, want, np.prod(c ** points, axis=1))
    for g, w in pairs:
        assert g.zero_pattern == w.zero_pattern
        if w.on_torus:
            assert np.allclose(np.array(g.t) * c, w.t, rtol=POINT_TOL, atol=0.0)


def _unimodular(swap, negate, shears):
    """A 2 x 2 integer matrix of determinant +-1: the shears row_i += k row_j
    applied to the identity, then a row swap and a sign."""
    U = np.eye(2, dtype=np.int64)
    for i, k in shears:
        U[i] += k * U[1 - i]
    if swap:
        U = U[::-1]
    if negate:
        U[0] = -U[0]
    return U


@settings(max_examples=30, deadline=None)
# a boundary cluster whose branch solve overflows to nan used to pass
# the ratio check and come back as a torus point
@example("pillow", False, False, [(0, -1), (0, -2), (1, -2)], 0)
@given(st.sampled_from(sorted(SYSTEMS)), st.booleans(), st.booleans(),
       st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2)), max_size=3),
       st.integers(0, 2 ** 31 - 1))
def test_unimodular_exponent_change_moves_the_points(name, swap, negate, shears, seed):
    eqs, rays = SYSTEMS[name]
    U = _unimodular(swap, negate, shears)
    U_inv_T = np.rint(np.linalg.inv(U)).astype(np.int64).T
    want = solve(eqs, rays=rays, seed=seed)
    moved = [[(tuple((U @ e).tolist()), c) for e, c in eq] for eq in eqs]
    got = solve(moved, rays=[tuple((U_inv_T @ u).tolist()) for u in rays], seed=seed)
    assert got.delta_plus == want.delta_plus
    assert _multiplicities(got) == _multiplicities(want)
    assert (got.pair.alpha.a, got.pair.alpha0.a) == (want.pair.alpha.a, want.pair.alpha0.a)
    # the lattice points move, so the lex order of S_alpha0 does; its
    # Cox exponents do not
    exps = graded_basis(got.system.fan, got.pair.alpha0).exponents
    column = {tuple(row): j for j, row in enumerate(exps.tolist())}
    order = [column[tuple(row)] for row in
             graded_basis(want.system.fan, want.pair.alpha0).exponents.tolist()]
    for g, w in _assert_same_points(got, want, columns=order):
        assert g.zero_pattern == w.zero_pattern
        assert g.on_torus == w.on_torus
        if w.on_torus:
            t = np.prod(np.asarray(g.t)[:, None] ** U, axis=0)
            assert np.allclose(t, w.t, rtol=POINT_TOL, atol=0.0)


def test_large_scale_keeps_divergent_root():
    eqs, rays = SYSTEMS["intro e=3"]
    scale = 10.0 ** 2.75 * cmath.exp(1.75j)
    scaled = [eqs[0], [(e, scale * c) for e, c in eqs[1]]]
    _assert_same_points(solve(scaled, rays=rays, seed=0), solve(eqs, rays=rays, seed=0))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 2 ** 31 - 1))
def test_seed_keeps_counts_and_multiplicities(name, seed):
    eqs, rays = SYSTEMS[name]
    want = solve(eqs, rays=rays, seed=0)
    got = solve(eqs, rays=rays, seed=seed)
    assert got.delta_plus == want.delta_plus
    assert _multiplicities(got) == _multiplicities(want)
