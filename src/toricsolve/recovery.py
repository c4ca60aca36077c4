"""Coordinate recovery from eigenvalue tables.

Each Schur cluster yields one value per monomial of S_alpha0, the
evaluation x^b / h0 at the underlying point. Ratios of these values are
pure torus characters t^{m - m0}, so the point is recovered by solving
an integer-exponent binomial system: moduli by weighted least squares
in log space, phases by a Smith normal form solve with root-of-unity
branch enumeration, then a short multiplicative refinement. Boundary
points first read off their vanishing pattern, then run the same solve
on the character lattice of the orbit.
"""

import cmath
import math

import numpy as np

from .errors import ClusteringError, RecoveryError, SpanError
from .lattice import dot, integer_kernel, rank_and_index, right_inverse, smith_normal_form
from .toric import boundary_stratum_check

__all__ = [
    "EigenvalueTable",
    "Solution",
    "recover_torus_point",
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


class EigenvalueTable:
    """Cluster-averaged eigenvalues over the monomial basis of alpha0.

    Attributes:
        basis: GradedBasis of alpha0 (lattice points m, Cox exponents b).
        values: complex value per basis monomial, aligned with the basis.
        multiplicity: cluster size mu.
        noise: absolute error estimate per entry, aligned with the basis.
    """

    __slots__ = ("basis", "values", "multiplicity", "noise")

    def __init__(self, basis, values, multiplicity=1, noise=None):
        values = [complex(v) for v in values]
        if len(values) != len(basis):
            raise RecoveryError("table length does not match the alpha0 basis")
        self.basis = basis
        self.values = values
        self.multiplicity = int(multiplicity)
        if noise is None:
            top = max(abs(v) for v in values) if values else 0.0
            noise = [NOISE_CUSHION * np.finfo(float).eps * top] * len(values)
        self.noise = [float(x) for x in noise]

    @classmethod
    def from_clustering(cls, family, clustering, i):
        """Table for cluster i, read from row i of clustering.tables.

        Noise floors use the per-monomial maximum modulus across every
        cluster, a stand-in for the multiplication matrix norm.
        """
        tables = clustering.tables
        noise = NOISE_CUSHION * np.finfo(float).eps * np.abs(tables).max(axis=0)
        return cls(family.alpha0_basis, tables[i], clustering.block_sizes[i],
                   noise)

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


def _solve_binomials(diffs, ratios, errs, n, insufficient, inconsistent):
    """Solve t^{diffs[i]} = ratios[i] for t in (C*)^n.

    diffs are integer vectors; errs are relative error estimates used to
    weight the solve and to scale the final consistency check. Raises
    RecoveryError with the provided messages when the differences do not
    span (insufficient) or no branch passes verification (inconsistent).
    """
    rank_all, _ = rank_and_index(diffs)
    if rank_all < n:
        raise RecoveryError(insufficient)

    order = sorted(range(len(diffs)), key=lambda i: errs[i])
    usable = [i for i in order if errs[i] < USABLE_ERR]
    if rank_and_index([diffs[i] for i in usable])[0] < n:
        raise RecoveryError(inconsistent)

    # greedy selection: climb to full rank on the most accurate rows,
    # then keep adding rows while they shrink the sublattice index
    sel = []
    rank, index = 0, 1
    for i in usable:
        r2, q2 = rank_and_index([diffs[j] for j in sel] + [diffs[i]])
        if r2 > rank or (rank == n and q2 < index):
            sel.append(i)
            rank, index = r2, q2
        if rank == n and index == 1:
            break
    if index > MAX_BRANCHES:
        raise RecoveryError(inconsistent)

    a = np.array([diffs[i] for i in usable], dtype=float)
    w = np.array([1.0 / max(errs[i], 1e-15) for i in usable])
    logr = np.array([math.log(abs(ratios[i])) for i in usable])
    moduli = np.linalg.lstsq(a * w[:, None], logr * w, rcond=None)[0]

    s_rows = [list(diffs[i]) for i in sel]
    u, d, v = smith_normal_form(s_rows)
    args = [math.atan2(ratios[i].imag, ratios[i].real) for i in sel]
    g = [sum(u[j][l] * args[l] for l in range(len(sel))) for j in range(len(sel))]
    dd = [d[j][j] for j in range(n)]
    varr = np.array(v, dtype=float)

    def branch_theta(c):
        psi = [(g[j] + 2.0 * math.pi * c[j]) / dd[j] for j in range(n)]
        return varr @ np.array(psi)

    branches = [[]]
    for j in range(n):
        branches = [b + [cj] for b in branches for cj in range(abs(dd[j]))]

    best = None
    for c in branches:
        t = np.exp(moduli + 1j * branch_theta(c))
        for _ in range(3):
            dev = np.array(
                [cmath.log(ratios[i] / np.prod(t ** np.array(diffs[i]))) for i in usable]
            )
            # principal log keeps each step inside one branch; bad branches
            # fail verification below instead of being pulled across
            step = np.linalg.lstsq(a * w[:, None], dev * w, rcond=None)[0]
            t = t * np.exp(step)
        score = 0.0
        ok = True
        for i in usable:
            pred = np.prod(t ** np.array(diffs[i]))
            rel = abs(pred - ratios[i]) / abs(ratios[i])
            tol = RATIO_TOL + 10.0 * errs[i]
            if rel > tol:
                ok = False
                break
            score += (rel / tol) ** 2
        if ok and (best is None or score < best[0]):
            best = (score, t)
    if best is None:
        raise RecoveryError(inconsistent)
    return tuple(complex(x) for x in best[1])


def _power_lift(einv, logs):
    """exp(E . logs) componentwise for a rational matrix E."""
    out = []
    for row in einv:
        acc = 0j
        for coef, lg in zip(row, logs):
            acc += float(coef) * lg
        out.append(cmath.exp(acc))
    return out


def _cox_lift(fan, t):
    """Homogeneous coordinates z with z^{F^T m} = t^m for all m.

    Uses a rational right inverse of the ray matrix; fractional entries
    take principal-branch powers, which is harmless because F applied to
    the result reproduces t exactly in exponent arithmetic.
    """
    einv = fan.ray_inverse
    if einv is None:
        raise RecoveryError("fan rays do not span the character lattice")
    return _power_lift(einv, [cmath.log(x) for x in t])


def _ratio_data(items, noise):
    """Base point, difference rows, ratios, and error estimates."""
    i0 = max(range(len(items)), key=lambda i: abs(items[i][1]))
    m0, lam0 = items[i0]
    diffs, ratios, errs = [], [], []
    for i, (m, lam) in enumerate(items):
        if i == i0:
            continue
        diffs.append(tuple(x - y for x, y in zip(m, m0)))
        ratios.append(lam / lam0)
        errs.append(noise[i] / abs(lam) + noise[i0] / abs(lam0))
    return diffs, ratios, errs


def recover_torus_point(fan, table):
    """Recover a torus point from one eigenvalue table row.

    Args:
        fan: the Fan the system lives on.
        table: EigenvalueTable for the cluster.

    Returns:
        Solution with on_torus = True.

    Raises:
        SpanError: the exponent differences of the alpha0 lattice points
            cannot determine t, whatever the cluster.
        RecoveryError: "cluster is not a torus point" when the usable
            ratios are rank-deficient or inconsistent.
    """
    pts = table.basis.lattice_points
    geo = [tuple(x - y for x, y in zip(m, pts[0])) for m in pts[1:]]
    if rank_and_index(geo)[0] < fan.n:
        raise SpanError(
            "alpha0 insufficient: lattice points do not affinely span"
        )
    items = [
        (m, lam) for m, lam in zip(pts, table.values) if abs(lam) > 0.0
    ]
    if len(items) < 2:
        raise RecoveryError("cluster is not a torus point")
    noise = [
        n for (lam, n) in zip(table.values, table.noise) if abs(lam) > 0.0
    ]
    diffs, ratios, errs = _ratio_data(items, noise)
    # the geometry spans, so any rank drop here means vanishing values
    t = _solve_binomials(
        diffs,
        ratios,
        errs,
        fan.n,
        insufficient="cluster is not a torus point",
        inconsistent="cluster is not a torus point",
    )
    z = _cox_lift(fan, t)
    return Solution(z, t, table.multiplicity, zero_pattern=())


def recover_boundary_point(fan, table, zero_tol=1e-6):
    """Recover a boundary point: vanishing pattern plus an orbit solve.

    A Cox coordinate is declared zero when every basis monomial with a
    positive exponent there is below zero_tol relative to the largest
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
    top = max(abs(v) for v in table.values)
    if top == 0.0:
        raise RecoveryError("empty eigenvalue table")
    thr = zero_tol * top

    mons = table.basis.monomials
    pts = table.basis.lattice_points
    zero_rays = []
    for j in range(fan.k):
        carriers = [i for i, b in enumerate(mons) if b[j] > 0]
        if carriers and all(abs(table.values[i]) <= thr for i in carriers):
            zero_rays.append(j)
    if not zero_rays:
        raise ClusteringError(
            "inconsistent vanishing pattern: small eigenvalues match no coordinate"
        )
    valid, simplicial = boundary_stratum_check(fan, zero_rays)
    if not valid:
        raise ClusteringError(
            f"inconsistent vanishing pattern: rays {zero_rays} span no cone of the fan"
        )

    kern = integer_kernel([fan.rays[j] for j in zero_rays])
    nq = len(kern)
    live = [i for i in range(len(pts)) if abs(table.values[i]) > thr]

    if nq == 0:
        # the orbit is the fixed point of a full-dimensional cone
        z = [0.0 if j in zero_rays else 1.0 for j in range(fan.k)]
        return Solution(z, None, table.multiplicity, zero_rays,
                        non_simplicial=not simplicial)

    snf = smith_normal_form(kern)
    items, noise = [], []
    for i in live:
        coords = _kernel_coordinates(snf, pts[i], pts[live[0]])
        if coords is None:
            raise ClusteringError(
                "inconsistent vanishing pattern: surviving monomials leave the orbit"
            )
        items.append((coords, table.values[i]))
        noise.append(table.noise[i])
    diffs, ratios, errs = _ratio_data(items, noise)
    s = _solve_binomials(
        diffs,
        ratios,
        errs,
        nq,
        insufficient="alpha0 insufficient on orbit",
        inconsistent="inconsistent ratios on the boundary orbit",
    )

    free = [j for j in range(fan.k) if j not in zero_rays]
    b_rows = [[dot(fan.rays[j], krow) for j in free] for krow in kern]
    einv = right_inverse(b_rows)
    if einv is None:
        raise RecoveryError("alpha0 insufficient on orbit")
    zfree = _power_lift(einv, [cmath.log(x) for x in s])
    z = [0j] * fan.k
    for j, val in zip(free, zfree):
        z[j] = val
    return Solution(z, None, table.multiplicity, zero_rays,
                    non_simplicial=not simplicial)


def _kernel_coordinates(snf, m, m0):
    """Integer coordinates of m - m0 in the saturated kernel basis whose
    Smith normal form (U, S, V) is snf, or None when the difference
    leaves the kernel lattice."""
    d = [x - y for x, y in zip(m, m0)]
    u, s, v = snf
    r = len(u)
    n = len(d)
    dv = [sum(d[i] * v[i][j] for i in range(n)) for j in range(n)]
    for j in range(r, n):
        if dv[j] != 0:
            return None
    c = []
    for j in range(r):
        if s[j][j] == 0 or dv[j] % s[j][j] != 0:
            return None
        c.append(dv[j] // s[j][j])
    # c solves c . (U K) scaled; map back through U
    out = [sum(c[l] * u[l][i] for l in range(r)) for i in range(r)]
    return tuple(out)
