"""Exact lattice layer, checked against independent oracles.

The Smith form is validated by its defining identities on random
matrices, hulls against scipy's Qhull and an independent 2d monotone
chain, lattice point enumeration against brute force, and mixed volumes
against hand-computable cases (Bezout et al).
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsolve.errors import InputError
from toricsolve.lattice import (
    Polytope,
    convex_hull,
    det_int,
    dot,
    frac_rank,
    frac_solve_square,
    integer_kernel,
    mixed_volume,
    primitive,
    smith_normal_form,
    snf_diagonal,
    solve_rational,
    sublattice_index,
)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-50, 50), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=1000, deadline=None)
@given(matrices)
def test_smith_normal_form_properties(a):
    m, n = len(a), len(a[0])
    u, d, v = smith_normal_form(a)
    # defining identity
    assert mat_mul(mat_mul(u, a), v) == d
    # transforms are unimodular
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    # diagonal, nonnegative, divisibility chain
    diag = []
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
            elif i == j:
                diag.append(d[i][j])
    for x in diag:
        assert x >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


def test_smith_normal_form_known():
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_integer_kernel(a):
    kern = integer_kernel(a)
    n = len(a[0])
    for vec in kern:
        assert all(dot(row, vec) == 0 for row in a)
    # basis size matches the rank-nullity count
    assert len(kern) == n - frac_rank(a)
    if kern:
        # saturated: the Smith invariants of the basis are all 1
        assert all(x == 1 for x in snf_diagonal([list(v) for v in kern]) if x != 0)


def test_sublattice_index():
    assert sublattice_index([(1, 0), (0, 1)]) == 1
    assert sublattice_index([(2, 0), (0, 3)]) == 6
    assert sublattice_index([(1, 2), (2, 4)]) == 0
    assert sublattice_index([(1, 1), (1, -1)]) == 2


@settings(max_examples=200, deadline=None)
@given(matrices, st.lists(st.integers(-10, 10), min_size=1, max_size=5))
def test_solve_rational(a, x0):
    n = len(a[0])
    x0 = (x0 * n)[:n]
    b = [dot(row, x0) for row in a]
    res = solve_rational(a, b)
    assert res is not None
    x, kern = res
    assert all(dot(row, x) == b[i] for i, row in enumerate(a))
    for vec in kern:
        assert all(dot(row, vec) == 0 for row in a)


def test_solve_rational_inconsistent():
    assert solve_rational([[1, 1], [2, 2]], [1, 3]) is None


def test_frac_solve_square():
    assert frac_solve_square([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))
    assert frac_solve_square([[1, 1], [2, 2]], [1, 2]) is None


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)


# --- convex hulls -----------------------------------------------------------


def monotone_chain(points):
    """Independent 2d hull oracle, returns vertex set."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return set(lower[:-1] + upper[:-1])


points_2d = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=20
)


@settings(max_examples=300, deadline=None)
@given(points_2d)
def test_hull_2d_vertices_match_monotone_chain(pts):
    h = convex_hull(pts)
    ours = {h.points[i] for i in h.vertex_indices}
    assert ours == monotone_chain(pts)


@settings(max_examples=300, deadline=None)
@given(points_2d)
def test_hull_2d_facets_contain_all_points(pts):
    h = convex_hull(pts)
    if h.facets is None:
        return
    for p in h.points:
        for g, c in h.facets:
            assert dot(g, p) + c >= 0
    # every facet is tight on at least dim points
    for g, c in h.facets:
        tight = [p for p in h.points if dot(g, p) + c == 0]
        assert len(tight) >= 2


points_nd = st.integers(3, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-9, 9)] * n), min_size=n + 1, max_size=14
    )
)


@settings(max_examples=150, deadline=None)
@given(points_nd)
def test_hull_nd_volume_matches_qhull(pts):
    from scipy.spatial import ConvexHull as QHull
    from scipy.spatial import QhullError

    h = convex_hull(pts)
    n = len(pts[0])
    if h.dim < n:
        # degenerate input: qhull cannot do these without joggling, but our
        # volume must be exactly zero
        assert h.volume() == 0
        return
    try:
        q = QHull(np.array(sorted(set(pts)), dtype=float))
    except QhullError:
        return
    assert math.isclose(float(h.volume()), q.volume, rel_tol=1e-9, abs_tol=1e-9)
    # cross-check the vertex sets too
    ours = {h.points[i] for i in h.vertex_indices}
    theirs = {tuple(int(round(x)) for x in q.points[i]) for i in q.vertices}
    assert ours == theirs


def test_hull_lower_dimensional_segment():
    h = convex_hull([(0, 0, 0), (2, 2, 4), (1, 1, 2), (3, 3, 6)])
    assert h.dim == 1
    assert {h.points[i] for i in h.vertex_indices} == {(0, 0, 0), (3, 3, 6)}
    assert h.facets is None
    assert h.volume() == 0


def test_hull_single_point():
    h = convex_hull([(5, -3)])
    assert h.dim == 0
    assert h.vertex_indices == [0]


def test_hull_rational_points():
    h = convex_hull([(Fraction(1, 2), 0), (0, Fraction(1, 2)), (0, 0), (Fraction(1, 4), Fraction(1, 4))])
    assert h.dim == 2
    assert h.volume() == Fraction(1, 8)


# --- polytopes --------------------------------------------------------------


def brute_lattice_points(rows, offs, lo=-15, hi=15):
    out = []
    n = len(rows[0])
    for m in product(range(lo, hi + 1), repeat=n):
        if all(dot(g, m) + c >= 0 for g, c in zip(rows, offs)):
            out.append(m)
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(*[st.integers(-6, 6)] * n), min_size=0, max_size=3),
            st.lists(st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=4)),
                     min_size=3, max_size=3),
            st.lists(st.integers(0, 7), min_size=n, max_size=n),
        )
    )
)
def test_lattice_points_match_brute_force(args):
    n, cuts, cut_offs, box = args
    # a box plus up to 3 random halfplanes, guaranteed bounded
    rows = []
    offs = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append(tuple(e))
        offs.append(0)
        e2 = [0] * n
        e2[j] = -1
        rows.append(tuple(e2))
        offs.append(box[j])
    for cut, c in zip(cuts, cut_offs):
        rows.append(cut)
        offs.append(c)
    p = Polytope.from_inequalities(rows, offs)
    expected = brute_lattice_points(rows, offs, lo=-1, hi=8)
    assert p.lattice_points() == expected
    # relative interior: strict on every row that does not vanish on all
    # vertices, exact on the implicit equalities
    flat = [all(dot(g, v) + c == 0 for v in p.vertices) for g, c in zip(rows, offs)]
    assert p.relint_lattice_points() == [
        m for m in expected
        if all((dot(g, m) + c == 0) if eq else (dot(g, m) + c > 0)
               for g, c, eq in zip(rows, offs, flat))
    ]


def test_from_inequalities_vertices():
    # unit square
    p = Polytope.from_inequalities(
        [(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1]
    )
    assert p.dim == 2
    assert p.vertices == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # fractional vertex
    q = Polytope.from_inequalities([(2, 0), (-2, 0), (0, 1), (0, -1)], [1, 1, 0, 0])
    assert (Fraction(-1, 2), 0) in q.vertices and (Fraction(1, 2), 0) in q.vertices


def test_from_inequalities_empty():
    p = Polytope.from_inequalities([(1, 0), (-1, 0)], [0, -5])
    assert p.is_empty
    assert p.lattice_points() == []
    assert p.relint_lattice_points() == []


def test_lattice_points_int64_guard():
    # a two-point segment far out: exact while the row values fit in int64
    near = Polytope.from_inequalities([(1,), (-1,)], [-(2**61), 2**61 + 1])
    assert near.lattice_points() == [(2**61,), (2**61 + 1,)]
    # at 2**62, |g|_1 * |m| + |c| = 2**63 + 2 would wrap: refused, not wrong
    far = Polytope.from_inequalities([(1,), (-1,)], [-(2**62), 2**62 + 1])
    with pytest.raises(InputError, match=r"2\*\*63"):
        far.lattice_points()


def test_hrep_vrep_roundtrip():
    import random

    rng = random.Random(7)
    for _ in range(40):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(8)]
        p = Polytope.from_points(pts)
        if p.dim < 3:
            continue
        rows = [g for g, _ in p.ineqs]
        offs = [c for _, c in p.ineqs]
        q = Polytope.from_inequalities(rows, offs)
        assert q.vertices == p.vertices


def test_relint_lattice_points():
    # triangle conv{0, 2e1, 2e2}: only interior point is (1, 1) wait, check:
    # x > 0, y > 0, x + y < 2 has no integer points; 3*simplex does
    tri = Polytope.from_inequalities([(1, 0), (0, 1), (-1, -1)], [0, 0, 2])
    assert tri.relint_lattice_points() == []
    tri3 = Polytope.from_inequalities([(1, 0), (0, 1), (-1, -1)], [0, 0, 3])
    assert tri3.relint_lattice_points() == [(1, 1)]
    # lower-dimensional: a segment embedded in the plane
    seg = Polytope.from_inequalities([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 3, 0, 0])
    assert seg.relint_lattice_points() == [(1, 0), (2, 0)]


def test_codegree():
    simplex = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    assert simplex.codegree() == 3
    square = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert square.codegree() == 2
    diamond = Polytope.from_points([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert diamond.codegree() == 1


def test_dilate_and_volume():
    simplex = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    assert simplex.volume() == Fraction(1, 2)
    assert simplex.dilate(3).volume() == Fraction(9, 2)
    cube = Polytope.from_points(list(product([0, 1], repeat=3)))
    assert cube.volume() == 1


def test_minkowski_sum():
    seg_x = Polytope.from_points([(0, 0), (1, 0)])
    seg_y = Polytope.from_points([(0, 0), (0, 1)])
    sq = seg_x.minkowski(seg_y)
    assert sq.volume() == 1
    assert sq.dim == 2


# --- mixed volumes ----------------------------------------------------------


def test_mixed_volume_simplices():
    simplex = [(0, 0), (1, 0), (0, 1)]
    assert mixed_volume([simplex, simplex]) == 1


def test_mixed_volume_bezout():
    d1, d2 = 2, 3
    s1 = [(0, 0), (d1, 0), (0, d1)]
    s2 = [(0, 0), (d2, 0), (0, d2)]
    assert mixed_volume([s1, s2]) == d1 * d2


def test_mixed_volume_diamonds():
    diamond = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert mixed_volume([diamond, diamond]) == 4


def test_mixed_volume_segments():
    assert mixed_volume([[(0, 0), (1, 0)], [(0, 0), (0, 1)]]) == 1
    # parallel segments span no area
    assert mixed_volume([[(0, 0), (1, 0)], [(0, 0), (2, 0)]]) == 0


def test_mixed_volume_3d_bezout():
    s = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert mixed_volume([s, s, s]) == 1
    s2 = [(2 * a, 2 * b, 2 * c) for a, b, c in s]
    assert mixed_volume([s2, s, s]) == 2
    assert mixed_volume([s2, s2, s]) == 4
