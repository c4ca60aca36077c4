"""Coordinate recovery from eigenvalue tables.

Each Schur cluster yields one row of the clustering's eigenvalue table,
one value per monomial of S_alpha0: the evaluation x^b / h0 at the
underlying point. Ratios of these values are pure torus characters
t^{m - m0}, so the point is recovered by solving an integer-exponent
binomial system: moduli by weighted least squares in log space, phases
by a Smith normal form solve with root-of-unity branch enumeration,
then a short multiplicative refinement. Every point lies in the orbit
of one cone, and one solve on the orbit's character lattice serves them
all; the torus is the orbit of the empty cone. Boundary recovery first
reads the cone off a cluster's vanishing pattern.

The solve has an integer half and a float half. The integer half, the
plan, depends only on the difference rows and on which of them are
usable, never on the coefficients, so the fan keeps one plan per cone,
basis, live entries, base point and usable mask, and a warm solve does
no integer work here. Per cone, basis and live entries it keeps only
the points in orbit coordinates; each solve takes the difference rows
to its clusters' own base points. The float half takes every cluster
of an orbit solve at once, one stacked pass per branch count, with the
unusable rows left in at zero weight.
"""

import math
from itertools import product

import numpy as np

from .eigensolver import COND_MAX, _norm
from .errors import ClusteringError, RecoveryError, SpanError
from .lattice import (
    dot,
    generating_rows,
    integer_kernel,
    rank_int,
    right_inverse,
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
_EPS = np.finfo(float).eps


class EigenvalueTable:
    """Cluster-averaged eigenvalues over the monomial basis of alpha0, one
    row per cluster of one clustering.

    A 1-D values is the table of one cluster.

    Attributes:
        basis: GradedBasis of alpha0 (lattice points m, Cox exponents b).
        values: complex (clusters x monomials) array, one row per cluster.
        multiplicity: int array of cluster sizes mu, one per row.
        noise: absolute error estimate per entry, broadcast to the shape
            of values; by default NOISE_CUSHION epsilons of the largest
            modulus of each row.
    """

    __slots__ = ("basis", "values", "multiplicity", "noise")

    def __init__(self, basis, values, multiplicity=1, noise=None):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[None]
        if values.ndim != 2 or values.shape[1] != len(basis):
            raise RecoveryError("table length does not match the alpha0 basis")
        self.basis = basis
        self.values = values
        if noise is None:
            noise = NOISE_CUSHION * _EPS * np.maximum.reduce(
                np.abs(values), axis=1, keepdims=True, initial=0.0)
        # assignment broadcasts one way only, as np.broadcast_to does, at less cost
        self.multiplicity = np.empty(len(values), dtype=int)
        self.noise = np.empty(values.shape)
        try:
            self.multiplicity[...] = multiplicity
            self.noise[...] = noise
        except ValueError:
            raise RecoveryError(
                "multiplicity or noise does not fit the rows of the table") from None

    @classmethod
    def from_clustering(cls, family, clustering):
        """The table of a clustering: clustering.tables, read in place.

        The noise floor of every row is the per-monomial maximum modulus
        across every cluster, a stand-in for the multiplication matrix
        norm, kept as one vector.
        """
        tables = clustering.tables
        noise = NOISE_CUSHION * _EPS * np.maximum.reduce(np.abs(tables), axis=0)
        return cls(family.alpha0_basis, tables, clustering.block_sizes, noise)


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
        self.z = tuple(np.asarray(z, dtype=complex).tolist())
        self.t = None if t is None else tuple(np.asarray(t, dtype=complex).tolist())
        self.multiplicity = int(multiplicity)
        self.zero_pattern = frozenset(int(j) for j in zero_pattern)
        self.residuals = residuals
        self.on_torus = not self.zero_pattern
        self.non_simplicial = bool(non_simplicial)

    @property
    def norm(self):
        """2-norm of the torus point, or of z off the torus."""
        return float(_norm(np.array(self.t if self.on_torus else self.z)))

    def __repr__(self):
        where = "torus" if self.on_torus else f"zeros={sorted(self.zero_pattern)}"
        return f"Solution(mu={self.multiplicity}, {where}, z={self.z})"


def _branch_plan(rows, n):
    """Integer half of a binomial solve over usable rows, in their order:
    the rows generating_rows keeps, and their Smith form, which gives
    the phase equations and one root-of-unity branch per element of the
    quotient by the lattice of all the rows.

    Returns:
        (sel, u, dd, v, offsets): selected row positions, the first n
        rows of U, the invariant factors, V, and 2 pi times every branch
        vector, all as arrays; None when the rows have rank below n or
        the index exceeds MAX_BRANCHES.
    """
    found = generating_rows(rows.tolist(), n)
    if found is None or found[2] > MAX_BRANCHES:
        return None
    sel, (u, d, v), _ = found
    dd = [d[j][j] for j in range(n)]
    branches = list(product(*map(range, dd)))
    return (np.array(sel), np.array(u[:n], dtype=float), np.array(dd, dtype=float),
            np.array(v, dtype=float), 2.0 * math.pi * np.array(branches, dtype=float))


def _phase_plan(diffs, usable):
    """The plan the fan keeps for one base point and usable mask: the
    _branch_plan of the usable rows of diffs (r x n), in basis order,
    as the two float arrays of the phase start.

    With args the phases of all r ratios, the start of branch c is
    args @ phase + offsets[c], phase (r x n) and offsets (branches x n):
    U, V and the invariant factors folded into one matrix, zero on the
    rows the plan did not select. None where _branch_plan gives none.
    """
    plan = _branch_plan(diffs[usable], diffs.shape[1])
    if plan is None:
        return None
    sel, u, dd, v, offsets = plan
    phase = np.zeros(diffs.shape)
    phase[np.flatnonzero(usable)[sel]] = (u.T / dd) @ v.T
    return phase, (offsets / dd) @ v.T


def _monomials(t, a):
    """t^a for every column of the integer matrix a, per leading index of
    t and a, as exp(log t @ a): a point far from 1 whose coordinate powers
    overflow or underflow one by one (|t| near (1e30, 1e21) against the
    exponents (-12, 17)) still has a monomial of moderate size. Integer
    exponents make the branch of log immaterial."""
    return np.exp(np.log(t) @ a)


def _branch_solve(plans, a, ratios, errs, usable):
    """Float half of a binomial solve, stacked over clusters and branches.

    Every cluster g has its own plan (plans[g], a phase and offsets of
    the shapes every plan here shares), its own difference rows a[g]
    (a is G x r x n) in basis order, and ratios, errs and usable mask
    (G, r) in the same order. All clusters share r and the branch count.
    Unusable rows stay in the pass with zero weight, and verification
    and the score skip them. Log-moduli come from weighted least
    squares, phases from the plan, one start per branch; three
    multiplicative refinement steps follow, and each cluster keeps its
    verified branch with the smallest score, the first on a tie.

    A cluster that is no torus point may drive t to 0 or inf, and its
    powers to nan; such a branch fails verification, nan included. The
    caller, _orbit_solve, ignores the float errors on the way.

    Returns:
        (t, found, cond): complex (G, n) points, the mask of clusters
        with a verified branch, and the condition number of each
        cluster's weighted least squares.
    """
    phase, offsets = map(np.array, zip(*plans))
    # an unusable row becomes t^0 = 1 with zero weight: it adds nothing to
    # the solve, and it verifies with a relative error of 0
    w = usable / np.maximum(errs, 1e-15)
    a = a * usable[:, :, None]
    ratios = np.where(usable, ratios, 1.0)[:, None, :]
    tol = np.abs(ratios) * (RATIO_TOL + 10.0 * errs[:, None, :])
    # one weighted pseudoinverse per cluster, transposed, serves the
    # modulus solve and every step; it drops singular values below
    # lstsq's default cutoff
    us, sv, vh = np.linalg.svd(a * w[:, :, None], full_matrices=False)
    inv = np.where(sv > max(a.shape[1:]) * _EPS * sv[:, :1], 1.0 / sv, 0.0)
    step = w[:, :, None] * ((us * inv[:, None, :]) @ vh)
    # one set of rows per cluster, shared by its branches: exponents by
    # columns, for _monomials
    a = a.transpose(0, 2, 1).astype(float)
    logs = np.log(ratios)
    t = np.exp(logs.real @ step + 1j * (logs.imag @ phase + offsets))
    for _ in range(3):
        # principal log keeps each step inside one branch; bad branches
        # fail verification below instead of being pulled across
        t = t * np.exp(np.log(ratios / _monomials(t, a)) @ step)
    # each ratio's miss in units of its tolerance
    miss = np.abs(_monomials(t, a) - ratios) / tol
    ok = np.logical_and.reduce(miss <= 1.0, axis=2)
    best = np.where(ok, np.add.reduce(miss * miss, axis=2), np.inf).argmin(axis=1)
    rows = np.arange(len(t))
    return t[rows, best], ok[rows, best], sv[:, 0] / sv[:, -1]


def _solve_binomials(diffs, ratios, errs, usable, plans):
    """Solve t^{diffs[g, i]} = ratios[g, i] for t in (C*)^n, for every cluster g.

    diffs (G x r x n) holds each cluster's integer difference rows: the
    differences of one point set to each cluster's own base point, in
    basis order, so every cluster's rows span the same lattice. ratios,
    errs (relative error estimates, infinite where a row is unusable)
    and usable (errs < USABLE_ERR and the ratio not zero) are (G, r).
    plans holds each cluster's kept _phase_plan, None where its
    usable rows are rank-deficient or span a sublattice of index above
    MAX_BRANCHES. The errors weight the solve and scale the final
    consistency check. Clusters with the same branch count run as one
    stacked _branch_solve, whatever their plans and usable rows.

    Returns:
        (t, found, cond) as _branch_solve gives them, with found False
        and cond infinite where a cluster has no plan, and found False
        where its usable rows verify on no branch.
    """
    by_count = {}
    for g, plan in enumerate(plans):
        if plan is not None:
            by_count.setdefault(len(plan[1]), []).append(g)
    if [len(members) for members in by_count.values()] == [len(plans)]:
        # one pass serves every cluster
        return _branch_solve(plans, diffs, ratios, errs, usable)
    t = np.full((len(ratios), diffs.shape[2]), np.nan, dtype=complex)
    found = np.zeros(len(ratios), dtype=bool)
    cond = np.full(len(ratios), np.inf)
    for members in by_count.values():
        group = [plans[g] for g in members]
        members = np.array(members)
        t[members], found[members], cond[members] = _branch_solve(
            group, diffs[members], ratios[members], errs[members], usable[members])
    return t, found, cond


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
    """Exact data of the orbit of a cone (sorted ray indices).

    Returns (to_coords, lift). A lattice-point difference that is a
    character of the orbit (its products with the cone's rays all
    vanish) has its coordinates in the saturated kernel basis K under
    the integral to_coords. lift, the float transpose of a right inverse
    of K times the rays off the cone, takes log t on the orbit to the
    logs of the free Cox coordinates; it is None when those rays do not
    span, and for the fixed point of a full-dimensional cone, whose
    to_coords has no rows. The empty cone's orbit is the torus, and its
    lift is the float transpose of a right inverse of the ray matrix.
    """
    # a zero row leaves the whole character lattice for the empty cone
    kern = integer_kernel([fan.rays[j] for j in cone] or [[0] * fan.n])
    if not kern:
        return np.zeros((0, fan.n), dtype=np.int64), None
    to_coords = np.array([[int(x) for x in row] for row in right_inverse(kern)]).T
    free = [j for j in range(fan.k) if j not in cone]
    lift = right_inverse([[dot(fan.rays[j], krow) for j in free] for krow in kern])
    return to_coords, None if lift is None else np.array(lift, dtype=float).T


def _chart(fan, cone):
    """_orbit_chart of a cone, kept by the fan under ("chart", cone)."""
    return fan.kept(("chart", tuple(cone)), _orbit_chart, fan, cone)


def _kept_rows(fan, cone, basis, live):
    """Exact data of the live entries (a mask) of a basis on the orbit of
    a cone, kept by the fan under the key returned with it.

    Returns (key, (coords, rank)): the live points in orbit coordinates
    (L x m, basis order) and the rank of their differences, not the
    difference rows of every base point, of which a solve uses one per
    cluster."""
    key = (tuple(cone), basis.degree.a, live.tobytes())

    def build():
        coords = basis.points[live] @ _chart(fan, cone)[0].T
        return coords, rank_int((coords[1:] - coords[:1]).tolist())

    return key, fan.kept(("orbit",) + key, build)


def _orbit_solve(fan, cone, basis, live, values, noise):
    """Solve one table per row of values on the orbit of a cone (sorted
    ray indices), every row in one _solve_binomials.

    values and noise (G x count of live entries) hold the live entries
    of each table over basis, live being the mask of them. Each row is
    taken against its largest entry, its base point, with the absolute
    errors in noise, and its difference rows are built to that point
    from the coordinates _kept_rows keeps; a ratio that is zero (an
    entry that vanishes or underflows), or whose error estimate
    overflows, is unusable. The fan keeps one plan per base point and
    usable mask under the key of _kept_rows: no warm integer work here.

    Returns (t, found, cond) as _solve_binomials gives them, and z, every
    row lifted to Cox coordinates with zeros on the cone (meaningful
    where found), or None when the chart has no lift. Where the lift E
    is fractional, exp(E log t) takes principal-branch powers, which is
    harmless: the rays map the result back to t in exponent arithmetic.
    """
    key, (coords, _) = _kept_rows(fan, cone, basis, live)
    mag = np.abs(values)
    i0 = mag.argmax(axis=1)
    g, base = np.arange(len(values))[:, None], i0[:, None]
    # every live position but the base point, in basis order
    rest = np.arange(len(coords) - 1)
    rest = rest + (rest >= base)
    diffs = coords[rest] - coords[base]
    # a vanishing entry gives an infinite or nan error, a subnormal one may
    # overflow it, and a row that vanishes everywhere gives 0 / 0 ratios;
    # none of them is usable, and the float pass ignores the same errors
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rel = noise / mag
        ratios = values[g, rest] / values[g, base]
        errs = rel[g, rest] + rel[g, base]
        usable = (errs < USABLE_ERR) & (ratios != 0.0)
        errs = np.where(usable, errs, np.inf)
        plans = [fan.kept(("plan",) + key + (b, mask.tobytes()), _phase_plan, rows, mask)
                 for b, rows, mask in zip(i0.tolist(), diffs, usable)]
        t, found, cond = _solve_binomials(diffs, ratios, errs, usable, plans)
        lift = _chart(fan, cone)[1]
        if lift is None:
            return t, found, cond, None
        z = np.zeros((len(t), fan.k), dtype=complex)
        z[:, [j for j in range(fan.k) if j not in cone]] = np.exp(np.log(t) @ lift)
    return t, found, cond, z


def recover_torus_points(fan, table):
    """Recover the torus points of every row of an eigenvalue table in one pass.

    The torus is the orbit of the empty cone, and the rows go through
    one orbit solve, where a row's zero entries are unusable ratios. The
    integer plans are kept by the fan, one per base point and usable
    mask, and the float work runs as one stacked pass per branch count.
    A row whose usable entries do not span gets no plan and is no torus
    point.

    A cluster of multiplicity above one is not a torus point when its
    weighted least squares is conditioned above COND_MAX. Simple torus
    points solve with condition numbers of order one to a hundred; a
    multiple boundary point whose vanishing entries sit at the noise
    floor passes the ratio check with |t| near the reciprocal of that
    floor, and its solve is conditioned like 1e12 or worse.

    Args:
        fan: the Fan the system lives on.
        table: EigenvalueTable, usually one row per cluster.

    Returns:
        list aligned with the rows of the table: a Solution with
        on_torus = True, or None where the cluster is not a torus point
        (its usable ratios are rank-deficient or inconsistent, or it
        fails the stratum test), or where the rays lift no torus point.

    Raises:
        SpanError: the exponent differences of the alpha0 basis's
            lattice points cannot determine t, whatever the cluster.
    """
    check_span(table.basis)
    live = np.zeros(len(table.basis), dtype=bool)
    live[:] = True
    t, found, cond, z = _orbit_solve(fan, (), table.basis, live, table.values, table.noise)
    if z is None:  # rays that do not span M lift no torus point
        return [None] * len(table.values)
    # the stratum test above
    return [Solution(zg, tg, mu, zero_pattern=())
            if ok and (mu == 1 or c <= COND_MAX) else None
            for mu, tg, zg, ok, c in zip(table.multiplicity, t, z, found, cond)]


def recover_torus_point(fan, table):
    """Recover a torus point from the table of one cluster.

    The one-row case of recover_torus_points.

    Args:
        fan: the Fan the system lives on.
        table: EigenvalueTable of one cluster; its row 0 is read.

    Returns:
        Solution with on_torus = True.

    Raises:
        SpanError: the exponent differences of the alpha0 lattice points
            cannot determine t, whatever the cluster.
        RecoveryError: "cluster is not a torus point" when the usable
            ratios are rank-deficient or inconsistent, or the cluster
            fails the stratum test.
    """
    sol = recover_torus_points(fan, table)[0]
    if sol is None:
        raise RecoveryError("cluster is not a torus point")
    return sol


def recover_boundary_point(fan, table, g=0):
    """Recover the boundary point of row g of a table (row 0 for the table
    of one cluster): vanishing pattern plus an orbit solve.

    A Cox coordinate is declared zero when every basis monomial with a
    positive exponent there is below ZERO_TOL relative to the largest
    value of the row. The declared rays must span a cone of the fan. The
    surviving monomials have exponent 0 on those rays, so their ratios
    are characters of the cone's orbit torus by construction and go
    through the same binomial solve on the quotient lattice.

    Raises:
        ClusteringError: no coordinate is declared zero, or the declared
            rays span no cone (the cluster mixes strata).
        RecoveryError: an all-zero row, surviving lattice points that do
            not span the orbit's character lattice or lift to no Cox
            point, or inconsistent orbit ratios.
    """
    values, noise = table.values[g], table.noise[g]
    mag = np.abs(values)
    top = np.maximum.reduce(mag, initial=0.0)
    if top == 0.0:
        raise RecoveryError("empty eigenvalue table")
    thr = ZERO_TOL * top

    carriers = table.basis.exponents > 0
    loud = mag > thr
    zero_rays = (np.logical_or.reduce(carriers, axis=0)
                 & ~np.logical_or.reduce(carriers & loud[:, None], axis=0)).nonzero()[0].tolist()
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

    to_coords, _ = _chart(fan, zero_rays)
    # the orbit of a full-dimensional cone is its fixed point
    z = [[0.0 if j in zero_rays else 1.0 for j in range(fan.k)]]
    if len(to_coords):
        # on the orbit's character lattice to_coords is injective
        _, (_, rank) = _kept_rows(fan, zero_rays, table.basis, loud)
        if rank < len(to_coords):
            raise RecoveryError("alpha0 insufficient on orbit")
        _, found, _, z = _orbit_solve(fan, zero_rays, table.basis, loud,
                                      values[loud][None], noise[loud][None])
        if not found[0]:
            raise RecoveryError("inconsistent ratios on the boundary orbit")
        if z is None:
            raise RecoveryError("alpha0 insufficient on orbit")
    return Solution(z[0], None, table.multiplicity[g], zero_rays,
                    non_simplicial=not simplicial)
