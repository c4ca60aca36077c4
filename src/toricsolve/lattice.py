"""Exact lattice geometry: integer linear algebra, convex hulls, polytopes.

Everything in this module is exact. Matrices are plain lists of Python
ints, so there is no overflow and no floating point anywhere. Ambient
dimensions stay small (<= 6 in practice), which keeps the straightforward
algorithms fast enough without sparse tricks.

Every exact solve, rank and determinant over Q goes through one
fraction-free Gauss-Jordan elimination (Bareiss), which keeps its
entries integral; the Smith normal form answers only lattice questions
(kernel, class group, right_inverse, index); generating_rows picks by
rank the few rows of many that reach one. Hulls take integer points
and inequality systems integer rows and offsets; anything else is an
InputError. Fractions appear only as output values: the rational
vertices of an inequality system and the entries of right_inverse.
Nothing here measures a polytope (no Euclidean content, no BKK count):
the solver reads the fan and the lattice points of polytopes, never
their size.

The exception to arbitrary precision is lattice point enumeration, one
int64 matmul over the bounding box. It is exact while max|g|_1 *
max|m|_inf + max|c| < 2**63 over the rows g.m + c >= 0 and the box,
which also bounds every row value and box key derived from the points;
past it, InputError.

Conventions:
  * inequality systems are written A m + b >= 0, one row per inequality
  * facet normals are primitive integer *inner* normals
  * vertex and lattice point lists are sorted lexicographically
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InputError

__all__ = [
    "is_int",
    "all_int",
    "int_vector",
    "primitive",
    "dot",
    "rank_int",
    "solve_int",
    "smith_normal_form",
    "integer_kernel",
    "generating_rows",
    "sublattice_index",
    "right_inverse",
    "Polytope",
]


def is_int(x):
    """True for an integer that is not a bool. numpy integers pass; a bool
    is refused because it would silently read as 0 or 1."""
    # an exact int skips the numbers.Integral check, an ABC lookup
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def all_int(entries):
    """is_int of every entry of a sequence; entries that are all exact
    ints pass on their set of types alone."""
    return set(map(type, entries)) <= {int} or all(map(is_int, entries))


def int_vector(v, what):
    """`v` as a tuple of ints; InputError naming `what` unless `v` is a
    sequence of integers (is_int: no bools, floats or fractions)."""
    entries = v if type(v) is tuple else tuple(v) if np.iterable(v) else None
    if entries is None or not all_int(entries):
        raise InputError(f"{what} must be a sequence of integers "
                         f"(not bools or floats), got {v!r}")
    return tuple(map(int, entries))


def dot(u, v):
    """Inner product of two equal-length sequences."""
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g == 0:
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _eliminate(m, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the integer
    rows `m`, in place, pivoting on the first `ncols` columns.

    Every division is exact, so entries stay integers (minors of the
    input). Afterwards the pivot rows come first, and each is d times a
    row of the reduced echelon form, d being the last pivot; with full
    column rank d is the determinant of the row-permuted leading block.

    Returns (pivot columns, d).
    """
    r, prev = 0, 1
    pivots = []
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        piv = m[r]
        pc = piv[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(x * pc - f * y) // prev for x, y in zip(row, piv)]
        prev = pc
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots, prev


def rank_int(rows):
    """Rank over Q of a list of integer row vectors."""
    if not rows:
        return 0
    return len(_eliminate([list(map(int, row)) for row in rows], len(rows[0]))[0])


def solve_int(a, b):
    """Exact solution of a x = b for an integer matrix a (m x n) and an
    integer vector b.

    Returns (d, numerators) with d > 0 and x = numerators / d, or None
    when a has rank below n or the system is inconsistent.
    """
    n = len(a[0])
    m = [list(map(int, row)) + [int(y)] for row, y in zip(a, b)]
    pivots, d = _eliminate(m, n)
    if len(pivots) < n or any(row[n] for row in m[n:]):
        return None
    s = 1 if d > 0 else -1
    return s * d, tuple(s * row[n] for row in m[:n])


def smith_normal_form(a):
    """Smith normal form with transforms.

    Args:
        a: integer matrix as a list of m rows of n ints.

    Returns:
        (U, D, V) with U*a*V == D, U and V unimodular, and D diagonal with
        nonnegative entries satisfying the divisibility chain
        D[0][0] | D[1][1] | ... All three are lists of lists of ints.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = _identity(m)
    v = _identity(n)

    def row_sub(i, t, q):
        # row i -= q * row t, mirrored on u
        di, dt = d[i], d[t]
        for j in range(n):
            di[j] -= q * dt[j]
        ui, ut = u[i], u[t]
        for j in range(m):
            ui[j] -= q * ut[j]

    def col_sub(j, t, q):
        # col j -= q * col t, mirrored on v
        for r in d:
            r[j] -= q * r[t]
        for r in v:
            r[j] -= q * r[t]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the trailing block becomes the pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            i = t + 1
            while i < m:
                if d[i][t]:
                    row_sub(i, t, d[i][t] // d[t][t])
                    if d[i][t]:
                        # remainder beats the pivot, promote it and retry
                        row_swap(t, i)
                        continue
                i += 1
            j = t + 1
            while j < n:
                if d[t][j]:
                    col_sub(j, t, d[t][j] // d[t][t])
                    if d[t][j]:
                        col_swap(t, j)
                j += 1
            if any(d[i][t] for i in range(t + 1, m)):
                continue  # column got dirtied by a column swap
            if any(d[t][j] for j in range(t + 1, n)):
                continue
            # divisibility sweep: every remaining entry must be a multiple
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)  # fold the offending row into row t
        if d[t][t] < 0:
            for j in range(n):
                d[t][j] = -d[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1
    return u, d, v


def integer_kernel(a):
    """Lattice basis of {x in Z^n : a x = 0}.

    Returns a list of integer tuples. The list is a basis of the full
    kernel lattice (saturated), not just a finite-index sublattice.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    _, d, v = smith_normal_form(a)
    out = []
    for j in range(n):
        dj = d[j][j] if j < min(m, n) else 0
        if dj == 0:
            out.append(tuple(v[i][j] for i in range(n)))
    return out


def _rank_climb(rows, n):
    """Positions, in order, of the integer `rows` that raise the rank of
    the rows kept before them; the climb stops once n are kept."""
    kept, basis = [], []
    for i, row in enumerate(rows):
        if len(kept) == n:
            break
        if rank_int(basis + [row]) > len(kept):
            kept.append(i)
            basis.append(row)
    return kept


def generating_rows(rows, n):
    """Rows among the integer `rows` (in Z^n) that generate the lattice
    of all of them: in row order, each row that raises the rank of the
    rows kept, up to rank n, then each other row that shrinks the index
    of their lattice, until it is 1. A row that does not shrink it lies
    in that lattice, and each row kept past rank n at least halves it.

    Returns (kept row positions in kept order, the Smith form (U, D, V)
    of the kept rows in that order, the index), or None below rank n.
    """
    kept = _rank_climb(rows, n)
    if len(kept) < n:
        return None
    snf = smith_normal_form([rows[j] for j in kept])
    index = math.prod(snf[1][j][j] for j in range(n))
    for i, row in enumerate(rows):
        if index > 1 and i not in kept:
            cand = smith_normal_form([rows[j] for j in kept] + [row])
            q = math.prod(cand[1][j][j] for j in range(n))
            if q < index:
                kept.append(i)
                index, snf = q, cand
    return kept, snf, index


def sublattice_index(vectors, n=None):
    """Index of the sublattice of Z^n spanned by integer `vectors`, as
    generating_rows finds it; 0 when they do not span rank n."""
    if n is None:
        n = len(vectors[0]) if vectors else 1
    found = generating_rows(vectors, n)
    return 0 if found is None else found[2]


def right_inverse(rows):
    """Rational right inverse E (c rows of r Fractions) of an r x c
    integer matrix, via Smith normal form; None when the rank is below r."""
    r, c = len(rows), len(rows[0])
    u, d, v = smith_normal_form(rows)
    if any(d[j][j] == 0 for j in range(r)):
        return None
    return [
        [sum(Fraction(v[i][l], d[l][l]) * u[l][j] for l in range(r)) for j in range(r)]
        for i in range(c)
    ]


def _canon_num(x):
    """Collapse integral Fractions to int so tuples hash and sort cleanly."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return int(x)


def _normal(diffs):
    """Primitive integer normal, up to sign, to the span of n - 1
    difference vectors in Z^n; None when they are linearly dependent.

    The reduced rows are d e_p + x e_f over the pivot columns p and the
    one free column f, so the kernel is spanned by d e_f - sum x e_p.
    """
    n = len(diffs) + 1
    m = [list(row) for row in diffs]
    pivots, d = _eliminate(m, n)
    if len(pivots) < n - 1:
        return None
    free = next(j for j in range(n) if j not in pivots)
    g = [0] * n
    g[free] = d
    for p, row in zip(pivots, m):
        g[p] = -row[free]
    return primitive(g)


def _hull(pts):
    """Exact convex hull of distinct, lex-sorted integer points.

    Handles lower-dimensional inputs (the hull of points in a proper
    affine subspace): vertices are still computed, facets are not.

    Returns:
        (dim, vertex_indices, facets): the affine dimension, the sorted
        indices into `pts` of the true vertices, and for full-dimensional
        hulls only a lex-sorted list of (normal, offset) pairs with
        primitive integer inner normal g and integer offset c such that
        g.x + c >= 0 on the hull with equality on the facet (None when
        dim < ambient dimension).
    """
    n = len(pts[0])

    def diff(i):
        return [pts[i][j] - pts[0][j] for j in range(n)]

    # affine dimension, and the initial simplex: the base point and the
    # first points whose differences from it raise the rank
    init = [0] + [i + 1 for i in _rank_climb(map(diff, range(1, len(pts))), n)]
    dim = len(init) - 1

    if dim == 0:
        return 0, [0], None

    if dim < n:
        # the pivot coordinates of the differences are an affine injection
        # on the hull: hull the projected points, map the vertices back
        pivots = _eliminate([diff(i) for i in init[1:]], n)[0]
        coords = [tuple(p[j] for j in pivots) for p in pts]
        order = sorted(range(len(pts)), key=coords.__getitem__)
        sub = _hull([coords[i] for i in order])[1]
        return dim, sorted(order[i] for i in sub), None

    # full-dimensional incremental hull with strict visibility, seen from
    # the initial simplex's centroid, scaled by n + 1 to stay integral
    ref = [sum(pts[i][j] for i in init) for j in range(n)]

    def make_facet(idx_tuple):
        vs = [pts[i] for i in idx_tuple]
        diffs = [[vs[k][j] - vs[0][j] for j in range(n)] for k in range(1, n)]
        g = _normal(diffs)
        if g is None:
            return None
        c = -dot(g, vs[0])
        val = dot(g, ref) + (n + 1) * c
        if val < 0:
            g = tuple(-x for x in g)
            c = -c
        elif val == 0:
            return None  # plane through the interior reference, degenerate
        return (tuple(sorted(idx_tuple)), g, c)

    facets = []
    for s in combinations(init, n):
        f = make_facet(s)
        assert f is not None, "degenerate initial simplex"
        facets.append(f)

    for pi in range(len(pts)):
        if pi in init:
            continue
        p = pts[pi]
        visible = [f for f in facets if dot(f[1], p) + f[2] < 0]
        if not visible:
            continue
        ridge_count = {}
        for verts, _, _ in visible:
            for drop in verts:
                ridge = tuple(x for x in verts if x != drop)
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        vis_set = {f[0] for f in visible}
        facets = [f for f in facets if f[0] not in vis_set]
        for ridge, cnt in ridge_count.items():
            if cnt != 1:
                continue
            f = make_facet(ridge + (pi,))
            assert f is not None, "degenerate horizon facet"
            facets.append(f)

    merged = {}
    for verts, g, c in facets:
        merged.setdefault((g, c), set()).update(verts)
    candidates = sorted({i for verts in merged.values() for i in verts})
    vidx = []
    for i in candidates:
        active = [g for (g, c) in merged if dot(g, pts[i]) + c == 0]
        if rank_int(active) == n:
            vidx.append(i)
    return n, vidx, sorted(merged)


class Polytope:
    """A bounded convex polytope with exact vertex and inequality data.

    Build one with `from_points` (e.g. a Newton polytope) or
    `from_inequalities` for {m : A m + b >= 0}. H-representation input
    must be bounded; this is not checked, it is the caller's contract.

    Attributes:
        n: ambient dimension.
        dim: affine dimension (-1 when empty).
        vertices: lex-sorted exact vertices (tuples of ints/Fractions).
        ineqs: list of (normal, offset) rows with normal.m + offset >= 0
            on the polytope. For `from_points` this is the facet list and
            is only available in the full-dimensional case (None otherwise);
            for `from_inequalities` it is the defining system as given.
    """

    __slots__ = ("n", "dim", "vertices", "ineqs")

    def __init__(self, n, dim, vertices, ineqs):
        self.n = n
        self.dim = dim
        self.vertices = vertices
        self.ineqs = ineqs

    @classmethod
    def from_points(cls, points):
        """Convex hull of integer points; InputError on any other entry."""
        pts = sorted({int_vector(p, "hull point") for p in points})
        if not pts:
            return cls(0, -1, [], None)
        dim, vidx, facets = _hull(pts)
        return cls(len(pts[0]), dim, [pts[i] for i in vidx], facets)

    @classmethod
    def from_inequalities(cls, a, b):
        """Polytope {m : a m + b >= 0}; `a` integer rows, `b` integers
        (InputError otherwise).

        Vertices come from exact basic solutions (all n x n subsystems),
        so the input system must define a bounded set.
        """
        k = len(a)
        if k == 0:
            raise InputError("empty inequality system")
        offs = int_vector(b, "inequality offsets")
        rows = [int_vector(r, "inequality row") for r in a]
        n = len(rows[0])
        # each vertex as a primitive (numerators, d) with d > 0, the point
        # being numerators / d
        found = set()
        for sub in combinations(range(k), n):
            sol = solve_int([rows[i] for i in sub], [-offs[i] for i in sub])
            if sol is None:
                continue
            d, num = sol
            if all(dot(rows[i], num) + offs[i] * d >= 0 for i in range(k)):
                found.add(primitive(num + (d,)))
        ineqs = list(zip(rows, offs))
        if not found:
            return cls(n, -1, [], ineqs)
        vlist = sorted(tuple(_canon_num(Fraction(x, h[n])) for x in h[:n])
                       for h in found)
        # affine dimension: rank of the homogeneous coordinates, minus one
        return cls(n, rank_int(list(found)) - 1, vlist, ineqs)

    @property
    def is_empty(self):
        return self.dim < 0

    def bounding_box(self):
        """Per-coordinate integer floor/ceil bounds of the vertex set."""
        los = [math.floor(min(v[j] for v in self.vertices)) for j in range(self.n)]
        his = [math.ceil(max(v[j] for v in self.vertices)) for j in range(self.n)]
        return los, his

    def lattice_point_array(self):
        """All integer points of the polytope as a fresh lex-sorted (N x n)
        int64 array: the vertices' bounding box filtered by `ineqs`."""
        if self.is_empty:
            return np.zeros((0, self.n), dtype=np.int64)
        if self.ineqs is None:
            raise InputError("lattice point enumeration needs inequality data")
        los, his = self.bounding_box()
        # g.m + c >= 0 with g.m integral is g.m >= ceil(-c)
        thr = [math.ceil(-c) for _, c in self.ineqs]
        bound = (max(sum(map(abs, g)) for g, _ in self.ineqs)
                 * max(map(abs, los + his)) + max(map(abs, thr)))
        if bound >= 2**63:
            raise InputError("polytope too large for int64 lattice points: max|g|_1 * "
                             f"max|m|_inf + max|c| = {bound} > 2**63 - 1")
        sizes = [hi - lo + 1 for lo, hi in zip(los, his)]
        box = np.indices(sizes, dtype=np.int64).reshape(self.n, -1).T + los
        g = np.array([g for g, _ in self.ineqs], dtype=np.int64)
        return box[(box @ g.T >= thr).all(axis=1)]

    def lattice_points(self):
        """All integer points of the polytope as a fresh lex-sorted list of tuples."""
        return list(map(tuple, self.lattice_point_array().tolist()))

    def relint_lattice_points(self):
        """Integer points in the relative interior, lex-sorted.

        A defining row that vanishes on every vertex is an implicit
        equality and vanishes on every lattice point too; a lattice point
        is interior when every other row is strict there.
        """
        pts = self.lattice_point_array()
        if not len(pts):
            return []
        strict = [
            (g, c) for g, c in self.ineqs if any(dot(g, v) + c != 0 for v in self.vertices)
        ]
        # g.m + c > 0 with g.m integral is g.m >= floor(-c) + 1
        g = np.array([g for g, _ in strict], dtype=np.int64).reshape(-1, self.n)
        inside = (pts @ g.T >= [math.floor(-c) + 1 for _, c in strict]).all(axis=1)
        return list(map(tuple, pts[inside].tolist()))

    def minkowski(self, other):
        """Minkowski sum with another polytope in the same ambient space."""
        if self.n != other.n:
            raise InputError("ambient dimensions differ")
        if self.is_empty or other.is_empty:
            raise InputError("Minkowski sum with an empty polytope")
        sums = {
            tuple(_canon_num(x + y) for x, y in zip(u, v))
            for u in self.vertices
            for v in other.vertices
        }
        return Polytope.from_points(sums)

    def __repr__(self):
        return f"Polytope(n={self.n}, dim={self.dim}, vertices={len(self.vertices)})"
