"""Exact lattice layer, checked against independent oracles.

The Smith form is validated by its defining identities on random
matrices (its transforms unimodular by the Leibniz formula), hulls
against scipy's Qhull and an independent 2d monotone chain, and lattice
point enumeration against brute force. The integer elimination behind
every exact solve and rank is checked against the Fraction routines
below, which the library used before it. The library computes no
volumes; the Qhull mixed volume that other tests take as the BKK count
(systems.mixed_volume) is checked here against hand-computable cases
(Bezout et al).
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsolve.errors import InputError
from toricsolve.lattice import (
    Polytope,
    all_int,
    dot,
    generating_rows,
    int_vector,
    integer_kernel,
    is_int,
    primitive,
    rank_int,
    smith_normal_form,
    solve_int,
    sublattice_index,
)

from systems import (
    codegree,
    dilate,
    is_int_reference,
    mixed_volume,
    sublattice_index_reference,
)


@pytest.mark.parametrize("x, ok", [
    (3, True), (-(2**70), True), (np.int32(3), True), (np.int64(-1), True),
    (np.uint8(2), True), (True, False), (False, False), (np.bool_(True), False),
    (3.0, False), (np.float64(3.0), False), (Fraction(3), False), ("3", False),
    (None, False),
])
def test_is_int_matches_its_old_body(x, ok):
    """The exact-int fast path changes no verdict: bools and numpy bools
    are refused, numpy integers accepted, alone or in a vector."""
    assert is_int(x) == is_int_reference(x) == ok
    assert all_int((1, x)) == all_int([x, 1]) == ok
    if ok:
        assert int_vector((x, 2), "v") == (int(x), 2)
        assert all(type(e) is int for e in int_vector((x, 2), "v"))
    else:
        with pytest.raises(InputError):
            int_vector((x, 2), "v")


# --- Fraction reference routines --------------------------------------------


def frac_solve_square(m, rhs):
    """Reference: solve a square system by Gauss-Jordan over Fractions;
    None when the matrix is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(m, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        pc = a[c][c]
        a[c] = [x / pc for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return tuple(a[i][n] for i in range(n))


def _ech_append(ech, row):
    """Reference: reduce `row` against an echelon list with leading 1s;
    returns (echelon, whether the row raised the rank)."""
    r = [Fraction(x) for x in row]
    n = len(r)
    for e in ech:
        lead = next(i for i in range(n) if e[i] != 0)
        if r[lead] != 0:
            f = r[lead]
            r = [x - f * y for x, y in zip(r, e)]
    lead = next((i for i in range(n) if r[i] != 0), None)
    if lead is None:
        return ech, False
    r = [x / r[lead] for x in r]
    return ech + [r], True


def frac_rank(rows):
    """Reference: rank over Q of int/Fraction rows."""
    ech = []
    for row in rows:
        ech = _ech_append(ech, row)[0]
    return len(ech)


def solve_rational(a, b):
    """Reference: (particular solution, integer kernel basis) of a x = b
    through the Smith form, None when inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, v = smith_normal_form(a)
    ub = [dot(u[i], b) for i in range(m)]
    y = [Fraction(0)] * n
    kernel = []
    for j in range(n):
        dj = d[j][j] if j < min(m, n) else 0
        if dj == 0:
            kernel.append(tuple(v[i][j] for i in range(n)))
        else:
            y[j] = Fraction(ub[j], dj)
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        if di == 0 and ub[i] != 0:
            return None
    x = tuple(sum(Fraction(v[i][j]) * y[j] for j in range(n)) for i in range(n))
    return x, kernel


def leibniz_det(a):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


def as_fractions(sol):
    """The solution x of an (d, numerators) pair from solve_int."""
    d, num = sol
    return tuple(Fraction(x, d) for x in num)


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
    assert abs(leibniz_det(u)) == 1
    assert abs(leibniz_det(v)) == 1
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
    assert smith_normal_form([[1, 0], [0, 1]])[1] == [[1, 0], [0, 1]]


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
        # saturated: the Smith invariants of the (independent) basis are all 1
        _, d, _ = smith_normal_form([list(v) for v in kern])
        assert all(d[i][i] == 1 for i in range(len(kern)))


def test_sublattice_index():
    assert sublattice_index([(1, 0), (0, 1)]) == 1
    assert sublattice_index([(2, 0), (0, 3)]) == 6
    assert sublattice_index([(1, 2), (2, 4)]) == 0
    assert sublattice_index([(1, 1), (1, -1)]) == 2
    assert sublattice_index([]) == 0


@st.composite
def row_sets(draw):
    """(rows, n): up to 40 rows of length n = 1..4 drawn from a small pool
    of rows, scaled, so that repeated rows, zero rows, dependent rows and
    sublattices of index above 1 are all common."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    pool = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    picks = st.tuples(st.sampled_from(pool), st.sampled_from([0, 1, 1, 2, 3]))
    rows = [[c * x for x in row] for row, c in draw(st.lists(picks, max_size=40))]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_generating_rows_match_one_smith_form_of_every_row(case):
    """The kept rows generate the lattice of all the rows: their index is
    the one a Smith form of every row gives, and the Smith form returned
    is that of the kept rows in kept order."""
    rows, n = case
    want = sublattice_index_reference(rows, n)
    found = generating_rows(rows, n)
    assert sublattice_index(rows, n) == want
    assert (found is None) == (want == 0)
    if found is None:
        return
    kept, (u, d, v), index = found
    assert index == want
    assert len(set(kept)) == len(kept) and len(kept) >= n
    sub = [rows[i] for i in kept]
    # the climb keeps the first n rows that raise the rank, in row order
    assert kept[:n] == sorted(kept[:n]) and rank_int(sub[:n]) == n
    assert sublattice_index_reference(sub, n) == want
    assert mat_mul(mat_mul(u, sub), v) == d
    assert math.prod(d[j][j] for j in range(n)) == index


@settings(max_examples=200, deadline=None)
@given(matrices, st.lists(st.integers(-10, 10), min_size=1, max_size=5))
def test_solve_rational(a, x0):
    # a consistent system: solved exactly when a has full column rank
    n = len(a[0])
    x0 = (x0 * n)[:n]
    b = [dot(row, x0) for row in a]
    res = solve_int(a, b)
    ref = solve_rational(a, b)
    assert ref is not None
    if ref[1]:
        assert res is None
        return
    d, num = res
    assert d > 0
    assert all(dot(row, num) == d * b[i] for i, row in enumerate(a))
    assert as_fractions(res) == ref[0] == tuple(x0)


def test_solve_rational_inconsistent():
    assert solve_int([[1, 1], [2, 2]], [1, 3]) is None
    # full column rank, but the third equation contradicts the first two
    assert solve_int([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None
    assert as_fractions(solve_int([[1, 0], [0, 1], [1, 1]], [1, 1, 2])) == (1, 1)


def test_frac_solve_square():
    assert as_fractions(solve_int([[2, 0], [0, 4]], [1, 1])) == (Fraction(1, 2), Fraction(1, 4))
    assert solve_int([[1, 1], [2, 2]], [1, 2]) is None


small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(matrices, small_matrices), st.lists(st.integers(-50, 50), min_size=5, max_size=5))
def test_solve_int_matches_fractions(a, b):
    m, n = len(a), len(a[0])
    b = b[:m]
    res = solve_int(a, b)
    ref = solve_rational(a, b)
    if ref is None or ref[1]:
        assert res is None
    else:
        assert res[0] > 0
        assert as_fractions(res) == ref[0]
    if m == n:
        square = frac_solve_square(a, b)
        assert (None if res is None else as_fractions(res)) == square


@settings(max_examples=500, deadline=None)
@given(st.one_of(matrices, small_matrices))
def test_rank_int_matches_fractions(a):
    assert rank_int(a) == frac_rank(a)
    assert rank_int([row[::-1] for row in a[::-1]]) == frac_rank(a)


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
    assert set(Polytope.from_points(pts).vertices) == monotone_chain(pts)


@settings(max_examples=300, deadline=None)
@given(points_2d)
def test_hull_2d_facets_contain_all_points(pts):
    facets = Polytope.from_points(pts).ineqs
    if facets is None:
        return
    for p in pts:
        for g, c in facets:
            assert dot(g, p) + c >= 0
    # every facet is tight on at least dim points
    for g, c in facets:
        tight = {p for p in pts if dot(g, p) + c == 0}
        assert len(tight) >= 2


points_nd = st.integers(3, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-9, 9)] * n), min_size=n + 1, max_size=14
    )
)


@settings(max_examples=150, deadline=None)
@given(points_nd)
def test_hull_nd_matches_qhull(pts):
    from scipy.spatial import ConvexHull as QHull
    from scipy.spatial import QhullError

    p = Polytope.from_points(pts)
    n = len(pts[0])
    if p.dim < n:
        # degenerate input: qhull cannot do these without joggling, and a
        # lower-dimensional hull has no facet list
        assert p.ineqs is None
        return
    try:
        q = QHull(np.array(sorted(set(pts)), dtype=float))
    except QhullError:
        return
    theirs = {tuple(int(round(x)) for x in q.points[i]) for i in q.vertices}
    assert set(p.vertices) == theirs
    # the facet planes: ours (inner normal g, g.x + c >= 0) scaled to
    # Qhull's outer unit normal e with e.x + o <= 0; every Qhull plane
    # (one per triangle of a facet) is one of ours and each of ours occurs
    ours = np.array([[-x for x in g] + [-c] for g, c in p.ineqs], dtype=float)
    ours /= np.linalg.norm(ours[:, :n], axis=1)[:, None]
    same = np.all(np.abs(ours[:, None] - q.equations[None]) < 1e-9, axis=2)
    assert same.any(axis=0).all() and same.any(axis=1).all()


def ref_hull_vertices(points):
    """Reference: affine dimension and vertex indices of the hull, by the
    Gram-matrix projection onto the span of the differences."""
    pts = sorted(set(points))
    n = len(pts[0])
    ech, basis = [], []
    for p in pts[1:]:
        diff = [p[j] - pts[0][j] for j in range(n)]
        ech, added = _ech_append(ech, diff)
        if added:
            basis.append(diff)
    if not basis:
        return 0, [0]
    gram = [[dot(r1, r2) for r2 in basis] for r1 in basis]
    coords = [frac_solve_square(gram, [dot(r, [p[j] - pts[0][j] for j in range(n)])
                                       for r in basis]) for p in pts]
    # clear the denominators, which scales the hull without changing it
    den = math.lcm(*(x.denominator for c in coords for x in c))
    coords = [tuple(int(x * den) for x in c) for c in coords]
    back = {c: i for i, c in enumerate(coords)}
    return len(basis), sorted(back[v] for v in Polytope.from_points(coords).vertices)


affine_sublattice_points = st.integers(3, 4).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.tuples(*[st.integers(-5, 5)] * n),
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k),
            st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=14),
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(affine_sublattice_points)
def test_hull_on_affine_sublattices_matches_gram_projection(args):
    base, directions, coefficients = args
    pts = [tuple(b + sum(c * v[j] for c, v in zip(cs, directions)) for j, b in enumerate(base))
           for cs in coefficients]
    p = Polytope.from_points(pts)
    dim, vidx = ref_hull_vertices(pts)
    assert p.dim == dim == frac_rank([[q[j] - pts[0][j] for j in range(len(base))] for q in pts])
    assert p.vertices == [sorted(set(pts))[i] for i in vidx]


def test_hull_lower_dimensional_segment():
    p = Polytope.from_points([(0, 0, 0), (2, 2, 4), (1, 1, 2), (3, 3, 6)])
    assert p.dim == 1
    assert p.vertices == [(0, 0, 0), (3, 3, 6)]
    assert p.ineqs is None


def test_hull_single_point():
    p = Polytope.from_points([(5, -3)])
    assert p.dim == 0
    assert p.vertices == [(5, -3)]


def test_hull_rational_points():
    # hulls take integer points only: every hull the solver builds is
    # over exponents or sums of them
    for bad in [Fraction(1, 2), Fraction(2, 1), 0.5, 1.0, True, "1"]:
        with pytest.raises(InputError, match="hull point must be a sequence of integers"):
            Polytope.from_points([(0, 0), (1, 0), (0, bad)])
    assert Polytope.from_points([(np.int64(1), 0), (0, 1), (0, 0)]).vertices == [
        (0, 0), (0, 1), (1, 0)]


# --- polytopes --------------------------------------------------------------


def integral_row(g, c):
    """The inequality g.m + c >= 0 with rational offset c = p/q as the
    same half-space q g.m + p >= 0 with an integer offset."""
    c = Fraction(c)
    return tuple(c.denominator * x for x in g), c.numerator


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
        row, off = integral_row(cut, c)
        rows.append(row)
        offs.append(off)
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


def ref_from_inequalities(rows, offs):
    """Reference: vertices and affine dimension of {m : rows m + offs >= 0}
    from Fraction solves of every n x n subsystem."""
    k, n = len(rows), len(rows[0])
    verts = set()
    for sub in combinations(range(k), n):
        x = frac_solve_square([rows[i] for i in sub], [-offs[i] for i in sub])
        if x is not None and all(dot(rows[i], x) + offs[i] >= 0 for i in range(k)):
            verts.add(x)
    vlist = sorted(verts)
    if not vlist:
        return [], -1
    return vlist, frac_rank([[p[j] - vlist[0][j] for j in range(n)] for p in vlist[1:]])


offsets = st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=6))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(offsets, offsets), min_size=n, max_size=n),
            st.lists(st.tuples(st.tuples(*[st.integers(-4, 4)] * n), offsets),
                     min_size=0, max_size=4),
        )
    )
)
def test_from_inequalities_matches_fraction_solves(args):
    box, cuts = args
    n = len(box)
    # a box (possibly flat or empty) keeps the set bounded; cuts on top
    rows, offs = [], []
    halfspaces = []
    for j, (lo, hi) in enumerate(box):
        e = [0] * n
        e[j] = 1
        halfspaces += [(tuple(e), -lo), (tuple(-x for x in e), hi)]
    for g, c in halfspaces + cuts:
        row, off = integral_row(g, c)
        rows.append(row)
        offs.append(off)
    p = Polytope.from_inequalities(rows, offs)
    vlist, dim = ref_from_inequalities(rows, offs)
    assert p.vertices == vlist
    assert p.dim == dim
    # integral coordinates come out as ints
    assert all(type(x) is int for v in p.vertices for x in v if x == int(x))


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


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), 0.5, 2.0, True])
def test_from_inequalities_rejects_non_integer_input(bad):
    # int() would read a row entry 1.5 as 1 and describe another polytope
    with pytest.raises(InputError, match="offsets must be a sequence of integers"):
        Polytope.from_inequalities([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 1, 0, bad])
    with pytest.raises(InputError, match="row must be a sequence of integers"):
        Polytope.from_inequalities([(1, 0), (-1, 0), (0, 1), (bad, -1)], [0, 1, 0, 1])


def test_from_inequalities_empty():
    p = Polytope.from_inequalities([(1, 0), (-1, 0)], [0, -5])
    assert p.is_empty
    assert p.lattice_points() == []
    assert p.relint_lattice_points() == []


@pytest.mark.parametrize("call, message", [
    (lambda: Polytope.from_inequalities([], []), "empty inequality system"),
    (lambda: Polytope(2, 0, [(0, 0)], None).lattice_points(),
     "lattice point enumeration needs inequality data"),
    (lambda: Polytope.from_points([(0,), (1,)]).minkowski(Polytope.from_points([(0, 0)])),
     "ambient dimensions differ"),
    (lambda: Polytope.from_points([(0, 0)]).minkowski(
        Polytope.from_inequalities([(1, 0), (-1, 0)], [0, -5])),
     "Minkowski sum with an empty polytope"),
], ids=["no inequalities", "no inequality data", "ambient dimensions", "empty summand"])
def test_polytope_misuse_is_an_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


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
    assert codegree(simplex) == 3
    square = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert codegree(square) == 2
    diamond = Polytope.from_points([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert codegree(diamond) == 1


def test_dilate():
    simplex = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    tri = dilate(simplex, 3)
    ref = Polytope.from_points([(0, 0), (3, 0), (0, 3)])
    assert (tri.dim, tri.vertices, tri.ineqs) == (ref.dim, ref.vertices, ref.ineqs)
    assert len(tri.lattice_points()) == 10
    cube = Polytope.from_points(list(product([0, 1], repeat=3)))
    assert dilate(cube, 2).vertices == sorted(product([0, 2], repeat=3))


def test_minkowski_sum():
    seg_x = Polytope.from_points([(0, 0), (1, 0)])
    seg_y = Polytope.from_points([(0, 0), (0, 1)])
    sq = seg_x.minkowski(seg_y)
    assert sq.dim == 2
    assert sq.vertices == [(0, 0), (0, 1), (1, 0), (1, 1)]


# --- the Qhull mixed volume the other tests use -----------------------------


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
