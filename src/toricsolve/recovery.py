"""Coordinate recovery from eigenvalue tables.

Each Schur cluster yields one value per monomial of S_alpha0, the
evaluation x^b / h0 at the underlying point. Ratios of these values are
pure torus characters t^{m - m0}, so the point is recovered by solving
an integer-exponent binomial system: moduli by weighted least squares
in log space, phases by a Smith normal form solve with root-of-unity
branch enumeration, then a short multiplicative refinement. Every point
lies in the orbit of one cone, and one solve on the orbit's character
lattice serves them all; the torus is the orbit of the empty cone.
Boundary recovery first reads the cone off a cluster's vanishing
pattern.

The solve has an integer half and a float half. The integer half, the
plan, depends only on the difference rows and on which of them are
usable, never on the coefficients, so the fan keeps one plan per cone,
basis, live entries, base point and usable mask, and a warm solve does
no integer work here. The float half takes every cluster of an orbit
solve at once, one stacked pass per branch count, with the unusable
rows left in at zero weight.
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
_EPS = np.finfo(float).eps


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
            noise = np.full(len(values), NOISE_CUSHION * _EPS * top)
        self.noise = np.asarray(noise, dtype=float)

    @classmethod
    def from_clustering(cls, family, clustering):
        """One table per cluster, row i of clustering.tables for cluster i.

        Noise floors use the per-monomial maximum modulus across every
        cluster, a stand-in for the multiplication matrix norm, computed
        once for the whole clustering.
        """
        tables = clustering.tables
        noise = NOISE_CUSHION * _EPS * np.abs(tables).max(axis=0)
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
    """Integer half of a binomial solve over usable rows, in their order.

    Climbs to rank n on the rows in order, testing each against the
    fraction-free echelon form of the rows it has kept, and takes one
    Smith form there. Then it tries every row it has not kept once, in
    order, and keeps those that shrink the sublattice index (one Smith
    form each), until the index is 1. A row passed over on the climb is
    tried again, so the kept rows span the lattice of all the rows and
    the branch count is that lattice's index. The Smith form of the
    kept rows gives the phase equations and their root-of-unity branches.

    Returns:
        (sel, u, dd, v, offsets): selected row positions, the first n
        rows of U, the invariant factors, V, and 2 pi times every branch
        vector, all as arrays; None when the rows have rank below n or
        the index exceeds MAX_BRANCHES.
    """
    rows = rows.tolist()
    sel, echelon = [], []
    for i, row in enumerate(rows):
        if _extend_echelon(echelon, row):
            sel.append(i)
            if len(echelon) == n:
                break
    if len(echelon) < n:
        return None
    snf = smith_normal_form([rows[j] for j in sel])
    index = math.prod(snf[1][j][j] for j in range(n))
    for i, row in enumerate(rows):
        if index == 1:
            break
        if i in sel:
            continue
        cand_snf = smith_normal_form([rows[j] for j in sel] + [row])
        q = math.prod(cand_snf[1][j][j] for j in range(n))
        if q < index:
            sel.append(i)
            index, snf = q, cand_snf
    if index > MAX_BRANCHES:
        return None
    u, d, v = snf
    dd = [d[j][j] for j in range(n)]
    branches = [[]]
    for j in range(n):
        branches = [b + [cj] for b in branches for cj in range(abs(dd[j]))]
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
    """t^a for every row of the integer matrix a, over the leading axes of t
    and a; a may come cast to complex, the type the power casts it to."""
    return np.multiply.reduce(t[..., None, :] ** a, axis=-1)


def _stack_plans(plans):
    """The phase and offsets of plans that share a branch count, and so
    the shapes of both, each as one array stacked over the plans."""
    return np.array([plan[0] for plan in plans]), np.array([plan[1] for plan in plans])


def _branch_solve(plan, a, ratios, errs, usable):
    """Float half of a binomial solve, stacked over clusters and branches.

    Every cluster g has its own plan (phase and offsets stacked over
    clusters, as _stack_plans gives them), its own difference rows a[g]
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
    phase, offsets = plan
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
    # one set of rows per cluster, shared by its branches, cast once
    a = a[:, None].astype(complex)
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
        return _branch_solve(_stack_plans(plans), diffs, ratios, errs, usable)
    t = np.full((len(ratios), diffs.shape[2]), np.nan, dtype=complex)
    found = np.zeros(len(ratios), dtype=bool)
    cond = np.full(len(ratios), np.inf)
    for members in by_count.values():
        plan = _stack_plans([plans[g] for g in members])
        members = np.array(members)
        t[members], found[members], cond[members] = _branch_solve(
            plan, diffs[members], ratios[members], errs[members], usable[members])
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


def _kept_rows(fan, cone, basis, live):
    """Exact data of the live entries (a mask) of a basis on the orbit of
    a cone, kept by the fan under the key returned with it.

    Returns (key, (rest, diffs, rank)): for every choice of base point b,
    the positions of the other live points in basis order (rest[b]) and
    their differences to b in orbit coordinates (diffs[b], r x m), and
    the rank of those differences, which every base point shares.
    """
    key = (tuple(cone), basis.degree.a, live.tobytes())

    def build():
        coords = basis.points[live] @ fan.kept(key[0], _orbit_chart, fan, cone)[1].T
        rest = np.nonzero(~np.eye(len(coords), dtype=bool))[1].reshape(len(coords), -1)
        diffs = coords[rest] - coords[:, None]
        return rest, diffs, rank_int(diffs[0].tolist()) if len(rest[0]) else 0

    return key, fan.kept(("orbit",) + key, build)


def _orbit_solve(fan, cone, basis, live, values, noise):
    """Solve one table per row of values on the orbit of a cone (sorted
    ray indices), every row in one _solve_binomials.

    values and noise (G x count of live entries) hold the live entries
    of each table over basis, live being the mask of them. Each row is
    taken against its largest entry, with the absolute errors in noise;
    a ratio that is zero (an entry that vanishes or underflows), or whose
    error estimate overflows, is unusable. The fan keeps one plan per
    base point and usable mask under the key of _kept_rows, so a warm
    solve does no integer work here.

    Returns (t, found, cond) as _solve_binomials gives them, and z, every
    row lifted to Cox coordinates with zeros on the cone (meaningful
    where found), or None when the chart has no lift. Where the lift E
    is fractional, exp(E log t) takes principal-branch powers, which is
    harmless: the rays map the result back to t in exponent arithmetic.
    """
    key, (rest, diffs, _) = _kept_rows(fan, cone, basis, live)
    mag = np.abs(values)
    i0 = mag.argmax(axis=1)
    g, base, rest = np.arange(len(values))[:, None], i0[:, None], rest[i0]
    # a vanishing entry gives an infinite or nan error, a subnormal one may
    # overflow it, and a row that vanishes everywhere gives 0 / 0 ratios;
    # none of them is usable, and the float pass ignores the same errors
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rel = noise / mag
        ratios = values[g, rest] / values[g, base]
        errs = rel[g, rest] + rel[g, base]
        usable = (errs < USABLE_ERR) & (ratios != 0.0)
        errs = np.where(usable, errs, np.inf)
        plans = [fan.kept(("plan",) + key + (b, mask.tobytes()), _phase_plan, diffs[b], mask)
                 for b, mask in zip(i0.tolist(), usable)]
        t, found, cond = _solve_binomials(diffs[i0], ratios, errs, usable, plans)
        lift = fan.kept(key[0], _orbit_chart, fan, cone)[2]
        if lift is None:
            return t, found, cond, None
        z = np.zeros((len(t), fan.k), dtype=complex)
        z[:, [j for j in range(fan.k) if j not in cone]] = np.exp(np.log(t) @ lift)
    return t, found, cond, z


def recover_torus_points(fan, tables):
    """Recover torus points from many eigenvalue tables in one pass.

    The torus is the orbit of the empty cone, and the tables of each
    basis go through one orbit solve, where a table's zero entries are
    unusable ratios. The integer plans are kept by the fan, one per base
    point and usable mask, and the float work runs as one stacked pass
    per branch count. A table whose usable entries do not span gets no
    plan and is no torus point.

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
        t, found, cond, z = _orbit_solve(
            fan, (), basis, np.ones(len(basis), dtype=bool),
            np.array([tables[i].values for i in members]),
            np.array([tables[i].noise for i in members]))
        if z is None:  # rays that do not span M lift no torus point
            return out
        for i, tg, zg, ok, c in zip(members, t, z, found, cond):
            mu = tables[i].multiplicity
            if ok and (mu == 1 or c <= COND_MAX):  # the stratum test above
                out[i] = Solution(zg, tg, mu, zero_pattern=())
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
        _, (_, _, rank) = _kept_rows(fan, zero_rays, table.basis, loud)
        if rank < len(to_coords):
            raise RecoveryError("alpha0 insufficient on orbit")
        _, found, _, z = _orbit_solve(fan, zero_rays, table.basis, loud,
                                      table.values[loud][None], table.noise[loud][None])
        if not found[0]:
            raise RecoveryError("inconsistent ratios on the boundary orbit")
        if z is None:
            raise RecoveryError("alpha0 insufficient on orbit")
    return Solution(z[0], None, table.multiplicity, zero_rays,
                    non_simplicial=not simplicial)
