"""Torus and boundary coordinate recovery, plus the end-to-end solve."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsolve.cox import graded_basis
from toricsolve.errors import ClusteringError, InputError, RecoveryError, SpanError
from toricsolve.lattice import Polytope, right_inverse
from toricsolve.recovery import (
    EigenvalueTable,
    recover_boundary_point,
    recover_torus_point,
)
from toricsolve.solver import solve
from toricsolve.toric import Fan, divisor_of_polytope

from systems import (
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    PILLOW_RAYS_SOLVE,
    hirzebruch_fan,
    intro_laurent,
    lines27_laurent,
    p2_fan,
    pillow_fan_solve,
    pillow_laurent,
    wp112_fan,
)


def cube_fan():
    cube = Polytope.from_points(
        [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    )
    return Fan.normal_fan(cube)


def planted_table(fan, alpha0, t, mu=1):
    """Forward-evaluate lambda_m = t^m over the basis of alpha0."""
    basis = graded_basis(fan, alpha0)
    values = []
    for m in basis.lattice_points:
        acc = 1 + 0j
        for ti, e in zip(t, m):
            acc *= complex(ti) ** e
        values.append(acc)
    return EigenvalueTable(basis, values, mu)


def torus_from_z(fan, z):
    """Apply the ray matrix rows to z, the exact inverse of the lift."""
    out = []
    for i in range(fan.n):
        acc = 1 + 0j
        for j in range(fan.k):
            acc *= z[j] ** fan.rays[j][i]
        out.append(acc)
    return out


def test_planted_torus_point_pillow():
    fan = pillow_fan_solve()
    table = planted_table(fan, (1, 1, 1, 1), (2.0, 3.0), mu=1)
    sol = recover_torus_point(fan, table)
    assert sol.on_torus
    assert sol.zero_pattern == frozenset()
    assert np.allclose(sol.t, (2.0, 3.0), rtol=1e-12, atol=0)
    assert np.allclose(torus_from_z(fan, sol.z), (2.0, 3.0), rtol=1e-10, atol=0)


def test_constant_table_gives_unit():
    fan = Fan.normal_fan(Polytope.from_points([(0,), (1,)]))
    basis = graded_basis(fan, divisor_of_polytope(fan, [(0,), (1,)]).a)
    sol = recover_torus_point(fan, EigenvalueTable(basis, [1.0] * len(basis)))
    assert np.allclose(sol.t, (1.0,))
    assert np.allclose(sol.z, (1.0, 1.0))


FAN_POOL = [
    (pillow_fan_solve(), (1, 1, 1, 1)),
    (hirzebruch_fan(), (0, 0, 1, 2)),
    (p2_fan(), (1, 0, 0)),
    (wp112_fan(), (0, 1, 0)),
    (cube_fan(), None),
]


@settings(max_examples=60, deadline=None)
@given(
    pick=st.integers(min_value=0, max_value=len(FAN_POOL) - 1),
    data=st.data(),
)
def test_planted_round_trip_random(pick, data):
    fan, alpha0 = FAN_POOL[pick]
    if alpha0 is None:
        alpha0 = divisor_of_polytope(
            fan, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        ).a
    t = []
    for _ in range(fan.n):
        mod = data.draw(st.floats(min_value=0.2, max_value=5.0))
        arg = data.draw(st.floats(min_value=-math.pi, max_value=math.pi))
        t.append(cmath.rect(mod, arg))
    sol = recover_torus_point(fan, planted_table(fan, alpha0, t))
    err = max(abs(a - b) / abs(b) for a, b in zip(sol.t, t))
    assert err <= 1e-10
    back = torus_from_z(fan, sol.z)
    assert max(abs(a - b) / abs(b) for a, b in zip(back, t)) <= 1e-10


def test_right_inverse_exact():
    fan = pillow_fan_solve()
    rows = [[fan.rays[j][i] for j in range(fan.k)] for i in range(fan.n)]
    e = right_inverse(rows)
    assert fan.ray_inverse == e
    for i in range(fan.n):
        for j in range(fan.n):
            acc = sum(rows[i][l] * e[l][j] for l in range(fan.k))
            assert acc == (1 if i == j else 0)


def test_insufficient_lattice_points():
    fan = hirzebruch_fan()
    # only two collinear lattice points: differences cannot span M
    table = EigenvalueTable(graded_basis(fan, (0, 0, 0, 1)), [1.0, 2.0])
    with pytest.raises(SpanError):
        recover_torus_point(fan, table)


def test_boundary_cluster_rejected_by_torus_recovery():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    table = EigenvalueTable(basis, [1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(RecoveryError, match="not a torus point"):
        recover_torus_point(fan, table)


def test_planted_boundary_point_pillow():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    z1 = (0.0, 1.0, 1.0, 1.0)
    values = [np.prod([z1[j] ** b[j] for j in range(4)]) for b in basis.monomials]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values, multiplicity=1))
    assert sol.zero_pattern == frozenset({0})
    assert not sol.on_torus
    assert not sol.non_simplicial
    assert np.allclose(sol.z, z1, atol=1e-12)


def test_planted_boundary_orbit_representative():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    z2 = (1.0, 1.0, 0.0, 1j)
    values = [
        complex(np.prod([complex(z2[j]) ** b[j] for j in range(4)]))
        for b in basis.monomials
    ]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values, multiplicity=1))
    assert sol.zero_pattern == frozenset({2})
    # same orbit as z2: the invariant character z0^2 / z3^2 must agree
    inv = sol.z[0] ** 2 / sol.z[3] ** 2
    assert abs(inv - (-1.0)) <= 1e-10


def test_boundary_full_cone_fixed_point():
    fan = hirzebruch_fan()
    basis = graded_basis(fan, (0, 0, 1, 2))
    # only the monomial at the vertex (2, 0) of the polytope survives:
    # that vertex is cut out by the facets of rays 1 and 3
    values = [1.0 if m == (2, 0) else 0.0 for m in basis.lattice_points]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values))
    assert sol.zero_pattern == frozenset({1, 3})
    assert all(sol.z[j] == 0 for j in (1, 3))
    assert all(sol.z[j] == 1 for j in (0, 2))


def test_boundary_without_matching_rays_is_clustering_error():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    # zeros scattered across monomials that share no common vanishing ray
    table = EigenvalueTable(basis, [1.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ClusteringError, match="vanishing pattern"):
        recover_boundary_point(fan, table)


def test_table_length_mismatch():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    with pytest.raises(RecoveryError, match="does not match"):
        EigenvalueTable(basis, [1.0, 2.0])


# end-to-end solves


def test_solve_intro_eps_one_roots():
    result = solve(intro_laurent(1), rays=HIRZEBRUCH_RAYS, seed=0)
    assert result.delta_plus == 3
    assert result.delta == 3
    assert all(s.on_torus for s in result.solutions)
    s2 = math.sqrt(2.0)
    expected = [(-2.0, 1.0), (1 / s2, -3 / s2 + 2), (-1 / s2, 3 / s2 + 2)]
    got = [s.t for s in result.solutions]
    for want in expected:
        best = min(got, key=lambda t: abs(t[0] - want[0]) + abs(t[1] - want[1]))
        assert abs(best[0] - want[0]) <= 1e-10
        assert abs(best[1] - want[1]) <= 1e-10
    assert result.max_residual() <= 1e-12


def test_solve_intro_large_norm_root():
    # the divergent root at eps = 1e-8; its norm pins the recovery accuracy
    result = solve(intro_laurent(1e-8), rays=HIRZEBRUCH_RAYS, seed=0)
    assert result.delta == 3
    assert result.max_residual() <= 1e-12
    big = max(s.norm for s in result.solutions)
    assert abs(big - 1.414213532799484e8) / 1.414213532799484e8 <= 1e-2


def test_solve_pillow_boundary_orbits():
    result = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=0)
    assert result.delta_plus == 4
    assert result.delta == 2
    assert [s.multiplicity for s in result.solutions] == [2, 2]
    assert result.max_residual() <= 1e-10
    patterns = {s.zero_pattern for s in result.solutions}
    assert patterns == {frozenset({0}), frozenset({2})}
    for s in result.solutions:
        if s.zero_pattern == frozenset({0}):
            inv = s.z[2] ** 2 / s.z[1] ** 2
            assert abs(inv - 1.0) <= 1e-10
        else:
            inv = s.z[0] ** 2 / s.z[3] ** 2
            assert abs(inv - (-1.0)) <= 1e-10


def test_solve_deterministic():
    a = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=7)
    b = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=7)
    assert [s.z for s in a.solutions] == [s.z for s in b.solutions]
    assert [s.zero_pattern for s in a.solutions] == [s.zero_pattern for s in b.solutions]


def test_solve_span_failure_is_typed():
    # alpha0 = [D4] has two collinear lattice points: no cluster can be
    # read back on the torus, so solve stops instead of trying the boundary
    with pytest.raises(SpanError) as info:
        solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS,
              pair=((2, 2, 0, 0), (0, 0, 0, 1)), verify=False)
    assert info.value.stage == "recovery"
    assert info.value.exit_code == 6


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solve_rejects_nonfinite_coefficients(bad):
    eqs = intro_laurent(1.0)
    eqs[0][1] = ((1, 0), bad)
    with pytest.raises(InputError, match="coefficients must be finite"):
        solve(eqs, rays=HIRZEBRUCH_RAYS, seed=0)


def test_solve_27_lines_counts():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    result = solve(lines27_laurent(c), rays=LINES27_RAYS, seed=0)
    assert result.delta_plus == 45
    torus = result.on_torus()
    boundary = result.on_boundary()
    assert len(torus) == 27
    assert all(s.multiplicity == 1 for s in torus)
    assert len(boundary) == 3
    assert all(s.multiplicity == 6 for s in boundary)
    assert all(s.zero_pattern == frozenset({2, 3}) for s in boundary)
    assert sum(s.multiplicity for s in result.solutions) == 45
