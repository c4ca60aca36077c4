"""Coordinate recovery from eigenvalue tables.

Each Schur cluster yields one value per monomial of S_alpha0, the
evaluation x^b / h0 at the underlying point. Ratios of these values are
pure torus characters t^{m - m0}, so the point is recovered by solving
an integer-exponent binomial system: moduli by weighted least squares
in log space, phases by a Smith normal form solve with root-of-unity
branch enumeration, then a short multiplicative refinement. Every point
lies in the orbit of one cone, and one solve on the orbit's character
lattice serves them all; the torus is the orbit of the empty cone.
Torus recovery takes every cluster at once, and clusters that share a
base point and usable ratios share the integer work; boundary recovery
first reads the cone off a cluster's vanishing pattern.
"""

import math

import numpy as np

from .eigensolver import COND_MAX
from .errors import ClusteringError, RecoveryError, SpanError
from .lattice import (
    dot,
    integer_kernel,
    rank_int,
    right_inverse,
    smith_normal_form,
    sublattice_index,
)
from .toric import boundary_stratum_check

__all__ = [
    "EigenvalueTable",
    "Solution",
    "recover_torus_point",
    "recover_torus_points",
    "recover_boundary_point",
]

# eigenvalue tables carry absolute errors around machine-epsilon scale;
# the cushion covers accumulated factorization error
NOISE_CUSHION = 30.0
# ratios with relative error estimates above this are left out of the solve
USABLE_ERR = 0.5
MAX_BRANCHES = 64
# relative tolerance of the final ratio consistency check, widened per
# ratio by its own error estimate
RATIO_TOL = 1e-6
# table values below this, relative to the largest, count as zero in
# boundary recovery
ZERO_TOL = 1e-6


class EigenvalueTable:
    """Cluster-averaged eigenvalues over the monomial basis of alpha0.

    Attributes:
        basis: GradedBasis of alpha0 (lattice points m, Cox exponents b).
        values: complex array, one value per basis monomial.
        multiplicity: cluster size mu.
        noise: float array, absolute error estimate per entry.
    """

    __slots__ = ("basis", "values", "multiplicity", "noise")

    def __init__(self, basis, values, multiplicity=1, noise=None):
        values = np.array(values, dtype=complex)
        if values.shape != (len(basis),):
            raise RecoveryError("table length does not match the alpha0 basis")
        self.basis = basis
        self.values = values
        self.multiplicity = int(multiplicity)
        if noise is None:
            top = np.abs(values).max(initial=0.0)
            noise = np.full(len(values), NOISE_CUSHION * np.finfo(float).eps * top)
        self.noise = np.asarray(noise, dtype=float)

    @classmethod
    def from_clustering(cls, family, clustering):
        """One table per cluster, row i of clustering.tables for cluster i.

        Noise floors use the per-monomial maximum modulus across every
        cluster, a stand-in for the multiplication matrix norm, computed
        once for the whole clustering.
        """
        tables = clustering.tables
        noise = NOISE_CUSHION * np.finfo(float).eps * np.abs(tables).max(axis=0)
        return [cls(family.alpha0_basis, row, mu, noise)
                for row, mu in zip(tables, clustering.block_sizes)]

    def __len__(self):
        return len(self.values)


class Solution:
    """One recovered point of the compactified solution set.

    Attributes:
        z: homogeneous Cox coordinates, length k.
        t: torus coordinates, or None off the torus.
        multiplicity: cluster size mu.
        zero_pattern: frozenset of Cox coordinate indices with z_j = 0.
        residuals: per-equation relative residual (None until evaluated).
        on_torus: True when no coordinate vanishes.
        non_simplicial: True when the zero pattern spans a non-simplicial
            cone; z is then one representative of the closed orbit.
    """

    __slots__ = (
        "z",
        "t",
        "multiplicity",
        "zero_pattern",
        "residuals",
        "on_torus",
        "non_simplicial",
    )

    def __init__(self, z, t, multiplicity, zero_pattern, residuals=None,
                 non_simplicial=False):
        self.z = tuple(complex(x) for x in z)
        self.t = None if t is None else tuple(complex(x) for x in t)
        self.multiplicity = int(multiplicity)
        self.zero_pattern = frozenset(int(j) for j in zero_pattern)
        self.residuals = residuals
        self.on_torus = not self.zero_pattern
        self.non_simplicial = bool(non_simplicial)

    @property
    def norm(self):
        """2-norm of the torus point, or of z off the torus."""
        vec = self.t if self.on_torus else self.z
        return float(np.linalg.norm(np.array(vec)))

    def __repr__(self):
        where = "torus" if self.on_torus else f"zeros={sorted(self.zero_pattern)}"
        return f"Solution(mu={self.multiplicity}, {where}, z={self.z})"


def _extend_echelon(echelon, row):
    """Reduce the integer row against echelon, a list of (pivot column,
    row) pairs whose rows vanish at the pivot columns before their own;
    append the reduced row, divided by its content, when it is not zero.
    Returns whether row was independent of the echelon rows."""
    for c, e in echelon:
        f = row[c]
        if f:
            p = e[c]
            row = [p * x - f * y for x, y in zip(row, e)]
    c = next((j for j, x in enumerate(row) if x), None)
    if c is None:
        return False
    g = math.gcd(*row)
    echelon.append((c, [x // g for x in row]))
    return True


def _branch_plan(rows, n):
    """Integer half of a binomial solve over usable rows, most accurate first.

    Climbs to rank n greedily on the most accurate rows, then keeps
    adding rows while they shrink the sublattice index. The selected
    rows are kept in fraction-free echelon form, so a candidate's rank
    test is one reduction against it; the index takes a Smith form only
    once rank n is reached. The Smith form of the selected rows gives
    the phase equations and their root-of-unity branches.

    Returns:
        (sel, u, dd, v, offsets): selected row positions, the first n
        rows of U, the invariant factors, V, and 2 pi times every branch
        vector, all as arrays; None when the rows have rank below n or
        the index exceeds MAX_BRANCHES.
    """
    rows = rows.tolist()
    sel, echelon, index, snf = [], [], 1, None
    for i, row in enumerate(rows):
        if len(echelon) < n:
            if not _extend_echelon(echelon, row):
                continue
            sel.append(i)
            if len(echelon) == n:
                snf = smith_normal_form([rows[j] for j in sel])
                index = math.prod(snf[1][j][j] for j in range(n))
        else:
            cand_snf = smith_normal_form([rows[j] for j in sel] + [row])
            q = math.prod(cand_snf[1][j][j] for j in range(n))
            if q < index:
                sel.append(i)
                index, snf = q, cand_snf
        if len(echelon) == n and index == 1:
            break
    if len(echelon) < n or index > MAX_BRANCHES:
        return None
    u, d, v = snf
    dd = [d[j][j] for j in range(n)]
    branches = [[]]
    for j in range(n):
        branches = [b + [cj] for b in branches for cj in range(abs(dd[j]))]
    return (np.array(sel), np.array(u[:n], dtype=float), np.array(dd, dtype=float),
            np.array(v, dtype=float), 2.0 * math.pi * np.array(branches, dtype=float))


def _monomials(t, a):
    """t^a for every row of the integer matrix a, over the leading axes of t
    and a."""
    return np.prod(t[..., None, :] ** a, axis=-1)


def _stack_plans(plans):
    """One array per plan field, stacked over plans; shorter selections
    are padded with row 0 and zero columns of U, which add nothing to
    the phase equations."""
    width = max(len(plan[0]) for plan in plans)
    sel = np.zeros((len(plans), width), dtype=int)
    u = np.zeros((len(plans), len(plans[0][1]), width))
    for p, plan in enumerate(plans):
        sel[p, :len(plan[0])] = plan[0]
        u[p, :, :len(plan[0])] = plan[1]
    return (sel, u) + tuple(np.array([plan[j] for plan in plans]) for j in (2, 3, 4))


def _branch_solve(plan, a, ratios, errs):
    """Float half of a binomial solve, stacked over clusters and branches.

    Every cluster g has its own plan (the fields of _branch_plan stacked
    over clusters, as _stack_plans gives them) and its own usable rows
    a[g] (a is G x r x n) in the order its plan was built on; ratios and
    errs are (G, r) in the same order. All clusters share r and the
    branch count. Log-moduli come from weighted least squares, phases
    from the plan's Smith form, one start per branch; three
    multiplicative refinement steps follow, and each cluster keeps its
    verified branch with the smallest score.

    Returns:
        (t, found, cond): complex (G, n) points, the mask of clusters
        with a verified branch, and the condition number of each
        cluster's weighted least squares.
    """
    sel, u, dd, v, offsets = plan
    w = 1.0 / np.maximum(errs, 1e-15)
    # one pseudoinverse per cluster, transposed, serves the modulus solve
    # and every step; it drops singular values below lstsq's default cutoff
    us, sv, vh = np.linalg.svd(a * w[:, :, None], full_matrices=False)
    keep = sv > max(a.shape[1:]) * np.finfo(float).eps * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    pinv_t = (us * inv[:, None, :]) @ vh
    moduli = (np.log(np.abs(ratios)) * w)[:, None, :] @ pinv_t
    args = np.angle(ratios[np.arange(len(ratios))[:, None], sel])
    psi = (args[:, None, :] @ np.swapaxes(u, 1, 2) + offsets) / dd[:, None, :]
    a = a[:, None]  # one set of rows per cluster, shared by its branches
    # a cluster that is no torus point may drive t to 0 or inf, and its
    # powers to nan; such a branch fails verification, nan included
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.exp(moduli + 1j * (psi @ np.swapaxes(v, 1, 2)))
        for _ in range(3):
            # principal log keeps each step inside one branch; bad branches
            # fail verification below instead of being pulled across
            dev = np.log(ratios[:, None, :] / _monomials(t, a))
            t = t * np.exp((dev * w[:, None, :]) @ pinv_t)
        rel = np.abs(_monomials(t, a) - ratios[:, None, :]) / np.abs(ratios[:, None, :])
    tol = RATIO_TOL + 10.0 * errs[:, None, :]
    ok = (rel <= tol).all(axis=2)
    score = ((rel / tol) ** 2).sum(axis=2)
    # the first verified branch, replaced only by a strictly lower score
    best = np.full(len(ratios), -1)
    rows = np.arange(len(ratios))
    for b in range(score.shape[1]):
        take = ok[:, b] & ((best < 0) | (score[:, b] < score[rows, best]))
        best[take] = b
    cond = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf),
                     where=sv[:, -1] > 0.0)
    return t[rows, best], best >= 0, cond


def _solve_binomials(diffs, ratios, errs, n):
    """Solve t^{diffs[g, i]} = ratios[g, i] for t in (C*)^n, for every cluster g.

    diffs (G x r x n) holds each cluster's integer difference rows: the
    differences of one point set to each cluster's own base point, so
    every cluster's rows span the same lattice. ratios and errs
    (relative error estimates) are (G, r). The errors weight the solve
    and scale the final consistency check; rows with an error of
    USABLE_ERR or more are left out. Clusters whose usable rows, in
    order of accuracy, agree share one integer plan; clusters with the
    same count of usable rows and of branches share one stacked float
    solve, whatever their plans.

    The rows of every cluster must have rank n; the callers check that.

    Returns:
        (t, found, cond) as _branch_solve gives them, with found False
        and cond infinite where the usable rows are rank-deficient or
        span a sublattice of index above MAX_BRANCHES, and found False
        where they verify on no branch.
    """
    t = np.full((len(ratios), n), np.nan, dtype=complex)
    found = np.zeros(len(ratios), dtype=bool)
    cond = np.full(len(ratios), np.inf)
    order = np.argsort(errs, axis=1, kind="stable")
    g = np.arange(len(errs))[:, None]
    rows = diffs[g, order]
    usable = errs[g, order] < USABLE_ERR
    # the usable rows are a prefix of each cluster's accuracy order; the
    # key is their count and the rows themselves
    keys = np.column_stack([usable.sum(axis=1),
                            (rows * usable[:, :, None]).reshape(len(rows), -1)])
    shapes = {}
    for key, members in _groups(keys):
        plan = _branch_plan(rows[members[0], :key[0]], n)
        if plan is not None:
            shapes.setdefault((key[0], len(plan[4])), []).append((plan, members))
    for (r, _), group in shapes.items():
        plans, parts = zip(*group)
        members = np.concatenate(parts)
        which = np.repeat(np.arange(len(parts)), [len(m) for m in parts])
        use = members[:, None], order[members, :r]
        t[members], found[members], cond[members] = _branch_solve(
            [field[which] for field in _stack_plans(plans)], rows[members, :r],
            ratios[use], errs[use])
    return t, found, cond


def _groups(keys):
    """(key, member indices) for every distinct row of the integer array
    keys, in order of first appearance."""
    groups = {}
    for i, key in enumerate(map(tuple, keys.tolist())):
        groups.setdefault(key, []).append(i)
    return [(np.array(key), np.array(members)) for key, members in groups.items()]


def affine_index(basis):
    """Index in M of the lattice that a basis's lattice points affinely
    generate, 0 when they span below rank n.

    The index is exact and depends on the basis alone, so the fan of its
    degree keeps it per representative.
    """
    fan = basis.degree.fan
    return fan.kept(("span", basis.degree.a), lambda: sublattice_index(
        (basis.points[1:] - basis.points[:1]).tolist(), fan.n))


def check_span(basis):
    """SpanError unless an alpha0 basis's lattice points affinely span rank n."""
    if affine_index(basis) == 0:
        raise SpanError("alpha0 insufficient: lattice points do not affinely span")


def _orbit_chart(fan, cone):
    """Exact data of the orbit of a cone (sorted ray indices), kept by the fan.

    Returns (rays, to_coords, lift). A lattice-point difference is a
    character of the orbit when its products with the cone's rays all
    vanish, and to_coords (integral, as the kernel basis K is saturated)
    maps it to its coordinates in K. lift, the float transpose of a
    right inverse of K times the rays off the cone, takes log t on the
    orbit to the logs of the free Cox coordinates; it is None when those
    rays do not span, and for the fixed point of a full-dimensional
    cone, whose to_coords has no rows. The empty cone's orbit is the torus,
    and its lift is that of fan.ray_inverse.
    """
    rays = np.array([fan.rays[j] for j in cone], dtype=np.int64).reshape(-1, fan.n)
    # a zero row leaves the whole character lattice for the empty cone
    kern = integer_kernel(rays.tolist() or [[0] * fan.n])
    if not kern:
        return rays, np.zeros((0, fan.n), dtype=np.int64), None
    to_coords = np.array([[int(x) for x in row] for row in right_inverse(kern)]).T
    free = [j for j in range(fan.k) if j not in cone]
    lift = right_inverse([[dot(fan.rays[j], krow) for j in free] for krow in kern])
    return rays, to_coords, None if lift is None else np.array(lift, dtype=float).T


def _orbit_solve(fan, cone, points, values, noise):
    """Solve one table per row of values (G x len(points)) on the orbit of
    a cone (sorted ray indices), every row in one _solve_binomials.

    The callers test the rank of the points. Each row is taken against
    its largest entry, with the absolute errors in noise; a ratio that
    underflows to zero, or whose error estimate overflows, gets an
    infinite error and drops out.

    Returns (t, found, cond) as _solve_binomials gives them, and z, the
    found rows lifted to Cox coordinates with zeros on the cone, or None
    when the chart has no lift. Where the lift E is fractional,
    exp(E log t) takes principal-branch powers, which is harmless: the
    rays map the result back to t in exponent arithmetic.
    """
    _, to_coords, lift = fan.kept(tuple(cone), _orbit_chart, fan, cone)
    coords = points @ to_coords.T
    g = np.arange(len(values))
    i0 = np.argmax(np.abs(values), axis=1)
    rest = np.nonzero(np.arange(len(points)) != i0[:, None])[1].reshape(len(g), -1)
    lam0 = values[g, i0][:, None]
    lam = values[g[:, None], rest]
    ratios = lam / lam0
    with np.errstate(over="ignore"):
        errs = noise[g[:, None], rest] / np.abs(lam) + noise[g, i0][:, None] / np.abs(lam0)
    errs[ratios == 0.0] = np.inf
    t, found, cond = _solve_binomials(coords[rest] - coords[i0][:, None], ratios, errs,
                                      len(to_coords))
    if lift is None:
        return t, found, cond, None
    z = np.zeros((np.count_nonzero(found), fan.k), dtype=complex)
    z[:, [j for j in range(fan.k) if j not in cone]] = np.exp(np.log(t[found]) @ lift)
    return t, found, cond, z


def recover_torus_points(fan, tables):
    """Recover torus points from many eigenvalue tables in one pass.

    The torus is the orbit of the empty cone: each table's zero entries
    drop out, and tables are grouped by basis and pattern of zero
    entries, one orbit solve per group after an affine rank check per
    pattern with zero entries (without any, check_span has decided it
    for the basis). The integer plan is made once per distinct
    usable-row order (which fixes the base point), and the float work
    runs as one stacked solve per count of usable rows and branches.

    A cluster of multiplicity above one is not a torus point when its
    weighted least squares is conditioned above COND_MAX. Simple torus
    points solve with condition numbers of order one to a hundred; a
    multiple boundary point whose vanishing entries sit at the noise
    floor passes the ratio check with |t| near the reciprocal of that
    floor, and its solve is conditioned like 1e12 or worse.

    Args:
        fan: the Fan the system lives on.
        tables: EigenvalueTables, usually one per cluster.

    Returns:
        list aligned with tables: a Solution with on_torus = True, or
        None where the cluster is not a torus point (its usable ratios
        are rank-deficient or inconsistent, or it fails the stratum
        test), or where the rays lift no torus point.

    Raises:
        SpanError: the exponent differences of an alpha0 basis's lattice
            points cannot determine t, whatever the cluster.
    """
    by_basis = {}
    for i, table in enumerate(tables):
        by_basis.setdefault(id(table.basis), (table.basis, []))[1].append(i)
    for basis, _ in by_basis.values():
        check_span(basis)
    out = [None] * len(tables)
    for basis, members in by_basis.values():
        members = np.array(members)
        values = np.array([tables[i].values for i in members])
        noise = np.array([tables[i].noise for i in members])
        for live, rows in _groups(np.abs(values) > 0.0):
            points = basis.points[live]
            # with every entry live the rows span what check_span certified
            if not live.all() and rank_int((points[1:] - points[:1]).tolist()) < fan.n:
                continue
            t, found, cond, z = _orbit_solve(fan, (), points, values[rows][:, live],
                                             noise[rows][:, live])
            if z is None:  # rays that do not span M lift no torus point
                return out
            # the stratum test of the docstring
            mult = np.array([tables[i].multiplicity for i in members[rows]])
            keep = found & ((mult == 1) | (cond <= COND_MAX))
            for i, tg, zg in zip(members[rows[keep]], t[keep], z[keep[found]]):
                out[i] = Solution(zg, tg, tables[i].multiplicity, zero_pattern=())
    return out


def recover_torus_point(fan, table):
    """Recover a torus point from one eigenvalue table row.

    The one-table case of recover_torus_points.

    Args:
        fan: the Fan the system lives on.
        table: EigenvalueTable for the cluster.

    Returns:
        Solution with on_torus = True.

    Raises:
        SpanError: the exponent differences of the alpha0 lattice points
            cannot determine t, whatever the cluster.
        RecoveryError: "cluster is not a torus point" when the usable
            ratios are rank-deficient or inconsistent, or the cluster
            fails the stratum test.
    """
    sol = recover_torus_points(fan, [table])[0]
    if sol is None:
        raise RecoveryError("cluster is not a torus point")
    return sol


def recover_boundary_point(fan, table):
    """Recover a boundary point: vanishing pattern plus an orbit solve.

    A Cox coordinate is declared zero when every basis monomial with a
    positive exponent there is below ZERO_TOL relative to the largest
    table value. The declared rays must span a cone of the fan; the
    remaining values are characters of that cone's orbit torus and go
    through the same binomial solve on the quotient lattice.

    Raises:
        ClusteringError: the vanishing pattern is not a cone (the
            cluster mixes points from different strata).
        RecoveryError: the surviving lattice points do not span the
            orbit's character lattice, or the orbit ratios are
            inconsistent.
    """
    top = np.abs(table.values).max(initial=0.0)
    if top == 0.0:
        raise RecoveryError("empty eigenvalue table")
    thr = ZERO_TOL * top

    pts = table.basis.points
    carriers = table.basis.exponents > 0
    loud = np.abs(table.values) > thr
    zero_rays = np.flatnonzero(
        carriers.any(axis=0) & ~(carriers & loud[:, None]).any(axis=0)).tolist()
    if not zero_rays:
        raise ClusteringError(
            "inconsistent vanishing pattern: small eigenvalues match no coordinate"
        )
    valid, simplicial = fan.kept(("stratum", tuple(zero_rays)), boundary_stratum_check,
                                 fan, zero_rays)
    if not valid:
        raise ClusteringError(
            f"inconsistent vanishing pattern: rays {zero_rays} span no cone of the fan"
        )

    rays, to_coords, _ = fan.kept(tuple(zero_rays), _orbit_chart, fan, zero_rays)
    # the orbit of a full-dimensional cone is its fixed point
    z = [[0.0 if j in zero_rays else 1.0 for j in range(fan.k)]]
    if len(to_coords):
        live = np.flatnonzero(loud)
        steps = pts[live] - pts[live[0]]
        if (steps @ rays.T).any():
            raise ClusteringError(
                "inconsistent vanishing pattern: surviving monomials leave the orbit"
            )
        # on the orbit's character lattice to_coords is injective
        if rank_int(steps.tolist()) < len(to_coords):
            raise RecoveryError("alpha0 insufficient on orbit")
        _, found, _, z = _orbit_solve(fan, zero_rays, pts[live], table.values[live][None],
                                      table.noise[live][None])
        if not found[0]:
            raise RecoveryError("inconsistent ratios on the boundary orbit")
        if z is None:
            raise RecoveryError("alpha0 insufficient on orbit")
    return Solution(z[0], None, table.multiplicity, zero_rays,
                    non_simplicial=not simplicial)
