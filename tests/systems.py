"""Shared exact geometry for the test suite.

Small zoo of fans and supports with hand-checked invariants: a quadric
surface with torsion in its grading group (the "pillow"), a Hirzebruch
surface, projective planes, and the classic 4-variable system whose
compactification is P^2 x P^2. Values asserted against these were
derived by hand (lattice point counts, Smith forms, volumes) before the
library existed. The library computes no volumes; `mixed_volume` below
is the tests' floating-point reference for the BKK count.
`unmixed_base`, `dilate` and `codegree` are the reference for the
codegree bound, and `macaulay_pair`, `weighted_pair` and
`alpha0_walk_pair` for the Macaulay, weighted and multiple-of-alpha0
pairs: the closed forms the library reaches through its vanishing walk.
`cohomology_dims` counts h^0..h^n of a class where Kunneth, the nef or
the anti-nef case decides them: the oracle of the library's yes/no
vanishing verdict.
`assemble_res_reference` scatters Res without the fan's index plans,
and `branch_plan_reference` re-runs the rank test of a binomial plan
from scratch for every candidate row: the oracles of the planned and
incremental code.
The `*_reference` helpers at the end keep the old bodies of helpers
that now make cheaper calls on the same arithmetic (kept indices, ufunc
reductions, kept draws); tests compare them with `==`, not `allclose`.
"""

import math
import numbers
from itertools import combinations, product

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from toricsolve.cox import graded_basis
from toricsolve.eigensolver import ResMatrix
from toricsolve.errors import InputError
from toricsolve.lattice import Polytope, integer_kernel, rank_int, smith_normal_form
from toricsolve.recovery import MAX_BRANCHES
from toricsolve.regularity import default_pair, vanishing_pair
from toricsolve.toric import DivisorClass, Fan, nef_witness

# quotient of P^1 x P^1 with class group Z^2 + Z/2; normal fan of the diamond
PILLOW_RAYS = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
# same fan, alternative variable order: under this labeling the two boundary
# orbits of the quadric pair below print as (0,1,1,1) and (1,1,0,i)
PILLOW_RAYS_SOLVE = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def mixed_volume(supports):
    """BKK count of n supports in Z^n from Qhull volumes, rounded to an int.

    Inclusion-exclusion over Minkowski subsums: MV is the sum over
    nonempty J of (-1)^(n - |J|) vol(sum of P_j, j in J). A subsum that
    Qhull cannot hull (flat or too few points) has volume 0.
    """
    n = len(supports)
    total = 0.0
    for k in range(1, n + 1):
        for members in combinations(supports, k):
            pts = np.zeros((1, n))
            for s in members:
                pts = (pts[:, None] + np.asarray(s, dtype=float)[None]).reshape(-1, n)
            try:
                vol = ConvexHull(np.unique(pts, axis=0)).volume
            except QhullError:
                vol = 0.0
            total += (-1) ** (n - k) * vol
    return int(round(total))


def _scaled(k, x):
    x = k * x
    return int(x) if x == int(x) else x


def dilate(poly, k):
    """k * poly for a positive integer k: vertices and facet offsets scale."""
    if k < 1:
        raise ValueError("dilation factor must be a positive integer")
    verts = [tuple(_scaled(k, x) for x in v) for v in poly.vertices]
    ineqs = None if poly.ineqs is None else [(g, _scaled(k, c)) for g, c in poly.ineqs]
    return Polytope(poly.n, poly.dim, verts, ineqs)


def codegree(poly):
    """Smallest c >= 1 such that c * poly has an interior lattice point.

    Only defined for full-dimensional lattice polytopes; for those it is
    at most dim + 1.
    """
    if poly.dim != poly.n:
        raise ValueError("codegree needs a full-dimensional polytope")
    for c in range(1, poly.n + 2):
        if dilate(poly, c).relint_lattice_points():
            return c
    raise AssertionError("codegree exceeded dim + 1, input is not a lattice polytope?")


def unmixed_base(system):
    """(B, (d_1, ..., d_s)) with every tight degree vector d_i * B, or None.

    B is primitive (the first representative divided by its content), so
    the dilation factors are as large as they can be.
    """
    if not system.degrees:
        return None
    reps = [div.a for div in system.degrees]
    content = math.gcd(*(abs(x) for x in reps[0]))
    if content == 0:
        return None
    base = tuple(x // content for x in reps[0])
    pivot = next(j for j, x in enumerate(base) if x != 0)
    dils = []
    for rep in reps:
        if rep[pivot] % base[pivot] != 0:
            return None
        d = rep[pivot] // base[pivot]
        if d <= 0 or rep != tuple(d * x for x in base):
            return None
        dils.append(d)
    return DivisorClass(system.fan, base), tuple(dils)


def macaulay_pair(system):
    """Vectors of the Macaulay pair on (products of) projective spaces.

    Per factor j: c_j = sum_i d_ij - n_j with d_ij the multidegree of
    f_i on that factor; alpha puts c_j on the first ray of each factor
    and alpha0 is the (1, ..., 1) class. None when the fan is not such a
    product, any c_j is negative or any equation has a negative
    multidegree.
    """
    fan = system.fan
    groups = fan.product_structure
    if not groups:
        return None
    multidegs = []
    for div in system.degrees:
        md = tuple(sum(div.a[j] for j in grp) for grp, _n in groups)
        if any(x < 0 for x in md):
            return None
        multidegs.append(md)
    rep = [0] * fan.k
    rep0 = [0] * fan.k
    for j, (grp, n_j) in enumerate(groups):
        c_j = sum(md[j] for md in multidegs) - n_j
        if c_j < 0:
            return None
        rep[grp[0]] = c_j
        rep0[grp[0]] = 1
    return tuple(rep), tuple(rep0)


def weighted_projective_weights(fan):
    """Weights (q_0, ..., q_n) if the fan is a weighted projective space.

    Requires exactly n+1 rays whose single primitive relation has all
    positive coefficients. Returns the weight tuple in ray order, or None.
    """
    if fan.k != fan.n + 1:
        return None
    rel = integer_kernel([[fan.rays[j][c] for j in range(fan.k)] for c in range(fan.n)])
    if len(rel) != 1:
        return None
    q = rel[0]
    if all(x < 0 for x in q):
        q = tuple(-x for x in q)
    if not all(x > 0 for x in q):
        return None
    # max cones of P(q) are all n-subsets
    expected = {tuple(c) for c in combinations(range(fan.k), fan.n)}
    if set(fan.max_cones) != expected:
        return None
    return q


def weighted_rep(k, weights, target):
    """Divisor vector of length k with given weighted degree, by coin-change DP."""
    if target < 0:
        return None
    reach = [None] * (target + 1)
    reach[0] = []
    for amount in range(1, target + 1):
        for j, q in enumerate(weights):
            if q <= amount and reach[amount - q] is not None:
                reach[amount] = reach[amount - q] + [j]
                break
    picks = reach[target]
    if picks is None:
        return None
    rep = [0] * k
    for j in picks:
        rep[j] += 1
    return tuple(rep)


def weighted_pair(system):
    """Vectors of the pair on a weighted projective space P(q).

    With l = lcm(q) and deg f_i = k_i * eta, applies only when l | k_i
    for all i; then d_i = k_i / l and the pair is (d_reg * eta, l * eta)
    with d_reg = l * sum d_i - sum q + 1. None where it does not apply.
    """
    fan = system.fan
    weights = weighted_projective_weights(fan)
    if not weights:
        return None
    if fan.class_group.free_rank != 1 or fan.class_group.torsion:
        return None
    ell = math.lcm(*weights)
    dils = []
    for div in system.degrees:
        (free, _tors) = div.degree()
        k_i = free[0]
        if k_i <= 0 or k_i % ell != 0:
            return None
        dils.append(k_i // ell)
    d_reg = ell * sum(dils) - sum(weights) + 1
    rep = weighted_rep(fan.k, weights, d_reg)
    rep0 = weighted_rep(fan.k, weights, ell)
    if rep is None or rep0 is None:
        return None
    return rep, rep0


def alpha0_walk_pair(system):
    """Vectors of (sum alpha_i - t * alpha0, alpha0) for the largest t
    with the vanishing criterion and sections at every step; None when
    even t = 1 fails. alpha0 is the default pair's."""
    default = default_pair(system)
    alpha0 = default.alpha0
    best = None
    t = 1
    while True:
        cand = default.alpha - t * alpha0
        if len(graded_basis(system.fan, cand)) == 0 or not vanishing_pair(system, cand):
            break
        best = cand
        t += 1
    return None if best is None else (best.a, alpha0.a)


def _proj_space_h(d, n):
    """Cohomology dimensions of O(d) on P^n: (h^0, 0, ..., 0, h^n)."""
    h = [0] * (n + 1)
    if d >= 0:
        h[0] = math.comb(d + n, n)
    if d <= -(n + 1):
        h[n] = math.comb(-d - 1, n)
    return h


def cohomology_dims(div):
    """All sheaf cohomology dimensions h^0..h^n of O(div), when decidable.

    Three routes, tried in order:
      * the fan is a product of projective spaces: Kunneth from the
        one-factor formulas, exact for every class and free of polytopes,
      * div nef Q-Cartier: h^0 counts lattice points of the section
        polytope, higher cohomology vanishes,
      * -div nef Q-Cartier: only h^p with p the dimension of the section
        polytope P of -div can survive, and it counts the lattice points
        in the relative interior of P (h^n when P is full-dimensional).

    Returns (dims, reason): dims is a list of length n+1 or None when no
    route applies, and reason says which route fired or why none did.
    """
    fan = div.fan
    n = fan.n
    prod = fan.product_structure
    if prod is not None:
        # Kunneth: convolve the one-factor tables
        acc = [1]
        for grp, nj in prod:
            table = _proj_space_h(sum(div.a[j] for j in grp), nj)
            nxt = [0] * (len(acc) + len(table) - 1)
            for i, x in enumerate(acc):
                for j, y in enumerate(table):
                    nxt[i + j] += x * y
            acc = nxt
        return acc, "product of projective spaces"
    dims = [0] * (n + 1)
    if nef_witness(div) is not None:
        dims[0] = len(div.polytope().lattice_point_array())
        return dims, "nef"
    if nef_witness(-div) is not None:
        poly = (-div).polytope()
        dims[poly.dim] = len(poly.relint_lattice_points())
        return dims, "anti-nef"
    return None, "class is neither nef nor anti-nef and the fan is not a recognized product"


def diamond_polytope():
    return Polytope.from_points(DIAMOND)


def pillow_fan():
    """Normal fan of the diamond, rays in the conventional order."""
    return Fan.normal_fan(diamond_polytope(), rays=PILLOW_RAYS)


def pillow_fan_solve():
    """Same fan with the ray order the solver examples use."""
    return Fan.normal_fan(diamond_polytope(), rays=PILLOW_RAYS_SOLVE)


def pillow_fan_doubled():
    """Same fan carrying the doubled diamond (Minkowski square) as polytope."""
    p = diamond_polytope()
    return Fan.normal_fan(p.minkowski(p), rays=PILLOW_RAYS)


# Hirzebruch surface F_1: blowup of P^2, the smallest non-product example
HIRZEBRUCH_RAYS = [(1, 0), (0, 1), (0, -1), (-1, -1)]
HIRZEBRUCH_QUAD = [(0, 0), (2, 0), (1, 1), (0, 1)]


def hirzebruch_polytope():
    return Polytope.from_points(HIRZEBRUCH_QUAD)


def hirzebruch_fan():
    return Fan.normal_fan(hirzebruch_polytope(), rays=HIRZEBRUCH_RAYS)


# projective plane
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]


def p2_fan(scale=1):
    simplex = Polytope.from_points([(0, 0), (scale, 0), (0, scale)])
    return Fan.normal_fan(simplex, rays=P2_RAYS)


# weighted projective plane P(1, 1, 2) in the ray order (1,0), (0,1), (-1,-2),
# whose single relation is 1*(1,0) + 2*(0,1) + 1*(-1,-2) = 0
WP112_RAYS = [(1, 0), (0, 1), (-1, -2)]


def wp112_fan():
    p = Polytope.from_points([(0, 0), (2, 0), (0, 1)])
    return Fan.normal_fan(p, rays=WP112_RAYS)


# The 4-variable system in variables (s, t, u, v) compactifying over
# P^2 x P^2. Ray order fixes the Cox variable order x_1..x_6.
LINES27_RAYS = [
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, -1, 0),
    (0, -1, 0, -1),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
]


def lines27_supports():
    """Exponent supports of the four equations in (s, t, u, v)."""
    cubic_tv = [
        (0, b, 0, d) for b in range(4) for d in range(4) if b + d <= 3
    ]
    cubic_su = [
        (a, 0, c, 0) for a in range(4) for c in range(4) if a + c <= 3
    ]
    deg_1_2 = [
        (a, b, c, d)
        for a, c in product(range(2), range(2))
        if a + c <= 1
        for b, d in product(range(3), range(3))
        if b + d <= 2
    ]
    deg_2_1 = [
        (a, b, c, d)
        for a, c in product(range(3), range(3))
        if a + c <= 2
        for b, d in product(range(2), range(2))
        if b + d <= 1
    ]
    return [cubic_tv, cubic_su, deg_1_2, deg_2_1]


def lines27_polytope():
    """Minkowski sum of the four Newton polytopes."""
    polys = [Polytope.from_points(s) for s in lines27_supports()]
    total = polys[0]
    for p in polys[1:]:
        total = total.minkowski(p)
    return total


def lines27_fan():
    return Fan.normal_fan(lines27_polytope(), rays=LINES27_RAYS)


def pillow_laurent():
    """Quadric pair on diamond supports with no torus solutions.

    f1 + f2 = 3 t1 is a unit, so the two double solutions sit on the
    boundary of the compactification.
    """
    f1 = [((1, 0), 1), ((0, -1), -1), ((0, 1), 1), ((-1, 0), 1)]
    f2 = [((1, 0), 2), ((0, -1), 1), ((0, 1), -1), ((-1, 0), -1)]
    return [f1, f2]


# intro-shaped, with a first equation at the top of double range: Res is
# finite, its pivoted QR is not
OVERFLOW_LAURENT = [
    [((0, 0), 1e308), ((1, 0), 1e308), ((0, 1), 1)],
    [((0, 0), 1), ((1, 0), 1), ((0, 1), 2)],
]


def intro_laurent(eps):
    """Two quadrics on the Hirzebruch quad; one root diverges as eps -> 0.

    Eliminating t2 leaves 2*eps*t1^3 + (2+2*eps)*t1^2 - t1 - 2 = 0, which
    factors as (t1+2)(2*t1^2-1) at eps = 1.
    """
    f1 = [((0, 0), -1), ((1, 0), 1), ((2, 0), 1), ((0, 1), 1), ((1, 1), 1)]
    f2 = [((0, 0), -2), ((1, 0), 2), ((2, 0), 5 - 2 * eps), ((0, 1), 4), ((1, 1), 5)]
    return [f1, f2]


# Term tables of the cubic-surface line count system: exponent in
# (s, t, u, v), index into the shared coefficient vector c[0..19], and an
# integer multiplier. The four equations are a cubic form in (t, v), the
# same form in (s, u), and the two mixed partial combinations, so most
# coefficients appear in several equations.
LINES27_TERMS = [
    [
        ((0, 3, 0, 0), 0, 1), ((0, 2, 0, 1), 1, 1), ((0, 1, 0, 2), 2, 1),
        ((0, 0, 0, 3), 3, 1), ((0, 2, 0, 0), 4, 1), ((0, 1, 0, 1), 5, 1),
        ((0, 0, 0, 2), 6, 1), ((0, 1, 0, 0), 7, 1), ((0, 0, 0, 1), 8, 1),
        ((0, 0, 0, 0), 9, 1),
    ],
    [
        ((3, 0, 0, 0), 0, 1), ((2, 0, 1, 0), 1, 1), ((1, 0, 2, 0), 2, 1),
        ((0, 0, 3, 0), 3, 1), ((2, 0, 0, 0), 10, 1), ((1, 0, 1, 0), 11, 1),
        ((0, 0, 2, 0), 12, 1), ((1, 0, 0, 0), 16, 1), ((0, 0, 1, 0), 17, 1),
        ((0, 0, 0, 0), 19, 1),
    ],
    [
        ((1, 2, 0, 0), 0, 3), ((1, 1, 0, 1), 1, 2), ((1, 0, 0, 2), 2, 1),
        ((0, 2, 1, 0), 1, 1), ((0, 1, 1, 1), 2, 2), ((0, 0, 1, 2), 3, 3),
        ((1, 1, 0, 0), 4, 2), ((1, 0, 0, 1), 5, 1), ((0, 2, 0, 0), 10, 1),
        ((0, 1, 1, 0), 5, 1), ((0, 1, 0, 1), 11, 1), ((0, 0, 1, 1), 6, 2),
        ((0, 0, 0, 2), 12, 1), ((1, 0, 0, 0), 7, 1), ((0, 1, 0, 0), 13, 1),
        ((0, 0, 1, 0), 8, 1), ((0, 0, 0, 1), 14, 1), ((0, 0, 0, 0), 15, 1),
    ],
    [
        ((2, 1, 0, 0), 0, 3), ((2, 0, 0, 1), 1, 1), ((1, 1, 1, 0), 1, 2),
        ((1, 0, 1, 1), 2, 2), ((0, 1, 2, 0), 2, 1), ((0, 0, 2, 1), 3, 3),
        ((2, 0, 0, 0), 4, 1), ((1, 1, 0, 0), 10, 2), ((1, 0, 1, 0), 5, 1),
        ((1, 0, 0, 1), 11, 1), ((0, 1, 1, 0), 11, 1), ((0, 0, 2, 0), 6, 1),
        ((0, 0, 1, 1), 12, 2), ((1, 0, 0, 0), 13, 1), ((0, 1, 0, 0), 16, 1),
        ((0, 0, 1, 0), 14, 1), ((0, 0, 0, 1), 17, 1), ((0, 0, 0, 0), 18, 1),
    ],
]


def lines27_laurent(c):
    """The four shared-coefficient equations for a coefficient vector c."""
    if len(c) != 20:
        raise ValueError("need exactly 20 coefficients")
    return [[(e, mult * c[i]) for e, i, mult in eq] for eq in LINES27_TERMS]


def assemble_res_reference(system, beta, allow_empty=False):
    """Res at beta from the bases alone: one rows lookup and one scatter
    of the nonzero coefficients per block, nothing kept."""
    fan = system.fan
    rows = graded_basis(fan, beta)
    col_blocks = [(i, graded_basis(fan, rows.degree - div))
                  for i, div in enumerate(system.degrees)]
    width = sum(len(b) for _, b in col_blocks)
    if len(system) > 0 and width == 0 and not allow_empty:
        raise InputError("degree too low: every column block of Res is empty")
    matrix = np.zeros((len(rows), width), dtype=complex)
    col = 0
    for i, block in col_blocks:
        f = system.polys[i]
        nz = np.flatnonzero(f.coeffs)
        r = rows.rows(block.points[:, None] + f.basis.points[nz][None])
        if (r < 0).any():
            raise InputError(f"equation {i} does not have degree {system.degrees[i].a}")
        matrix[r, col + np.arange(len(block))[:, None]] = f.coeffs[nz]
        col += len(block)
    return ResMatrix(rows, col_blocks, matrix)


def branch_plan_reference(rows, n):
    """recovery._branch_plan with a from-scratch rank per candidate row:
    climb to rank n in row order, then try every row not selected once."""
    rows = rows.tolist()
    sel, rank, index, snf = [], 0, 1, None
    for i, row in enumerate(rows):
        cand = [rows[j] for j in sel] + [row]
        if rank_int(cand) > rank:
            sel.append(i)
            rank += 1
            if rank == n:
                snf = smith_normal_form(cand)
                index = math.prod(snf[1][j][j] for j in range(n))
                break
    for i, row in enumerate(rows):
        if rank < n or index == 1:
            break
        if i not in sel:
            cand_snf = smith_normal_form([rows[j] for j in sel] + [row])
            q = math.prod(cand_snf[1][j][j] for j in range(n))
            if q < index:
                sel.append(i)
                index, snf = q, cand_snf
    if rank < n or index > MAX_BRANCHES:
        return None
    u, d, v = snf
    dd = [d[j][j] for j in range(n)]
    branches = [[]]
    for j in range(n):
        branches = [b + [cj] for b in branches for cj in range(abs(dd[j]))]
    return (np.array(sel), np.array(u[:n], dtype=float), np.array(dd, dtype=float),
            np.array(v, dtype=float), 2.0 * math.pi * np.array(branches, dtype=float))


# ---------------------------------------------------------------------------
# replaced helpers, bit for bit


def is_int_reference(x):
    """lattice.is_int before its exact-int fast path."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def evaluate_reference(poly, z):
    """CoxPolynomial._evaluate before the basis kept its power-table
    indices: both index arrays rebuilt per call, np.prod and np.sum."""
    exps = poly.basis.exponents
    powers = z[..., None] ** np.arange(exps.max(initial=0) + 1)
    monvals = np.prod(powers[..., np.arange(exps.shape[1]), exps], axis=-1)
    return (np.sum(poly.coeffs * monvals, axis=-1),
            np.sum(np.abs(poly.coeffs) * np.abs(monvals), axis=-1))


def residuals_reference(system, z):
    """HomogeneousSystem.residuals before its one pass over all
    equations: one evaluate_reference and one np.where pass per equation."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (len(system.polys),))
    for i, f in enumerate(system.polys):
        value, scale = evaluate_reference(f, z)
        mag = np.abs(value)
        flat = scale == 0.0
        out[..., i] = np.where(flat, np.where(mag == 0.0, 0.0, np.inf),
                               mag / np.where(flat, 1.0, scale))
    return out


def cluster_labels_reference(values, gap):
    """eigensolver._cluster_labels before it renumbered without np.unique."""
    mag = np.abs(values)
    near = (np.abs(values[:, None] - values[None, :])
            <= gap * (1.0 + (mag[:, None] + mag[None, :]) / 2.0))
    labels = np.arange(len(values))
    while True:
        new = np.where(near, labels[None, :], len(values)).min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    return np.unique(labels, return_inverse=True)[1]


def draws_reference(seed, stage, size, count):
    """The seeded draws as multiplication_family (stage 1, the h_0 draw
    and its retries) and schur_cluster (stage 2, the driver) made them
    before they were kept: a fresh stream for every call."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stage,)))
    return [rng.standard_normal(size) + 1j * rng.standard_normal(size)
            for _ in range(count)]
