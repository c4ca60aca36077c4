"""Numerical core: Res matrix, cokernel, multiplication maps, Schur clusters.

The solution count and coordinates come out of linear algebra on one big
structured matrix.  Res stacks the multiplication maps

    (q_1, ..., q_s) -> q_1 f_1 + ... + q_s f_s,

written on the monomial bases of the graded pieces S_{beta - alpha_i} and
S_beta.  Its cokernel N has delta_plus rows; restricting the monomial
multiplication maps N_b to a well-conditioned column subset W gives
commuting matrices M_{x^b / h_0} whose joint eigenvalues evaluate the
degree-zero functions x^b / h_0 at the solutions.  A reordered Schur
factorization of a random member groups repeated eigenvalues into blocks
whose traces are stable even for multiple points.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .cox import as_divisor, graded_basis
from .errors import (
    BasepointError,
    ClusteringError,
    InputError,
    RankAmbiguousError,
)

__all__ = [
    "ResMatrix",
    "CokernelMap",
    "MultiplicationFamily",
    "SchurClustering",
    "assemble_res",
    "cokernel",
    "multiplication_family",
    "schur_cluster",
]

# relative singular value cutoff for the rank of Res, and the least
# ratio of the singular values straddling that cut
TOL_RANK = 1e-8
GAP_RATIO = 1e3
# condition limit on the restricted N_{h_0} and on the torus solve of a
# multiple cluster (recovery's stratum test), and extra h_0 draws allowed
COND_MAX = 1e8
RETRIES_MAX = 3
# the condition of the restricted N_{h_0} at which a draw is taken
# without trying the next
H0_COND_TARGET = 1e5
# relative eigenvalue grouping threshold the clustering starts at, and
# the largest relative below-block-diagonal norm a clustering may leave
CLUSTER_GAP = 1e-4
LEAK_TOL = 1e-6
# the smallest delta_plus at which schur_cluster reads the members in
# span{h_0, driver} off I and T: below it the m products Z^H M_b Z cost
# less than the change of basis (schur_cluster on one BLAS thread with
# every family read off the span: 5-10 % slower at 45, even at 64,
# 2-3 % faster at 125 and 144, 7-9 % at 216 and 400)
SPAN_MIN_DELTA = 100
# number of (seed, stage, size) keys whose seeded draws stay kept
DRAWS_MAX = 8
# the most rows per column a Res below the block may have and still be
# reduced by: a level below it pays for its lift while it finalizes
# enough of the rows it turns (P^2 degree 20 and P^3 degree 6 are
# fastest at depths 5 to 7, BENCH_reduction_chain.json)
_LEVEL_ASPECT = 3.0


@functools.lru_cache(maxsize=DRAWS_MAX)
def _draws(seed, stage, size, count):
    """The first count complex Gaussian vectors of length size on the
    substream of stage for seed, read-only.

    Each vector is standard_normal(size) + 1j * standard_normal(size),
    drawn in turn from default_rng(SeedSequence(seed, spawn_key=(stage,))):
    the family's h_0 draws and their retries on stage 1, the Schur
    driver on stage 2. A stage's stream is its own, so the same user seed
    never reproduces the h_0 draw in another stage (a Schur driver equal
    to h_0 separates nothing). A sweep solves every row with one seed, so
    the last DRAWS_MAX keys are kept and the oldest is dropped.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stage,)))
    out = []
    for _ in range(count):
        vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        vec.flags.writeable = False
        out.append(vec)
    return tuple(out)


class ResMatrix:
    """The stacked multiplication-by-f_i map at one degree.

    Attributes:
        rows: GradedBasis of S_beta.
        col_blocks: (equation index, GradedBasis of S_{beta - alpha_i})
            pairs, one per equation, in equation order.
        matrix: dense complex matrix, rows x total block width, in the
            order `order` gives.
        order: None when assembled without alpha0: matrix is then in
            lexicographic order, its rows in the monomial order of rows,
            its columns block by block, each in its basis's monomial
            order. Else the plan (rows, cols, shapes) of _descent down
            alpha0 it was assembled in: matrix is the lexicographic Res
            at rows order[0] and columns order[1], the block leading,
            and cokernel reads it in that order.
        alpha0: DivisorClass of the multiplier degree it was assembled
            with, or None: cokernel reads the block at the degree of rows
            minus alpha0 off it, and multiplication_family multiplies by
            S_alpha0.
        gather: None without alpha0, else (S_alpha, S_alpha0, index),
            index[j, a] the row of matrix holding x^b_j x^a for b_j in
            S_alpha0 and a in S_alpha (never -1), which
            multiplication_family reads its maps N_b through.
    """

    __slots__ = ("rows", "col_blocks", "matrix", "order", "alpha0", "gather")

    def __init__(self, rows, col_blocks, matrix, order=None, alpha0=None, gather=None):
        self.rows = rows
        self.col_blocks = col_blocks
        self.matrix = matrix
        self.order = order
        self.alpha0 = alpha0
        self.gather = gather

    @property
    def shape(self):
        return self.matrix.shape

    def block_widths(self):
        return [len(b) for _, b in self.col_blocks]

    def __repr__(self):
        return f"ResMatrix(shape={self.matrix.shape}, blocks={self.block_widths()})"


def _res_plan(system, beta, alpha0):
    """Everything about Res at beta but its coefficients, kept by the fan
    (assemble_res): (rows, col_blocks, width, scatter, order, gather).

    Per equation, scatter holds the flat matrix index of the row of m_b +
    m_c in the column of m_c, for every point m_c of its block (axis 0)
    and m_b of its polynomial's basis (axis 1), and whether every one of
    those points lands in rows. They all land when the polynomial has
    its degree, as the section polytopes add; a point that does not has
    a negative index. With alpha0 the indices are written straight into
    order, the nested order of _descent down alpha0, and gather is
    ResMatrix.gather; without it both are None.

    Raises:
        InputError: an equation's degree has no sections, every column
            block is empty (degree too low) or alpha0 has no sections.
    """
    rows = graded_basis(system.fan, beta)
    col_blocks = []
    for i, div in enumerate(system.degrees):
        gap = graded_basis(system.fan, div)
        if not len(gap):
            raise InputError(f"equation {i}: degree {div.a} has no sections")
        col_blocks.append((i, rows.below(gap)))
    width = sum(len(b) for _, b in col_blocks)
    if len(system) > 0 and width == 0:
        raise InputError("degree too low: every column block of Res is empty")
    order = gather = None
    if alpha0 is not None:
        order = _descent(rows, col_blocks, alpha0)
        at_row, at_col = _inverse(order[0]), _inverse(order[1])
        s_alpha0 = graded_basis(system.fan, alpha0)
        s_alpha = rows.below(s_alpha0)
        gather = (s_alpha, s_alpha0,
                  at_row[rows.rows(s_alpha0.points[:, None] + s_alpha.points[None])])
    scatter, col = [], 0
    for i, block in col_blocks:
        r = rows.rows(block.points[:, None] + system.polys[i].basis.points[None])
        cols = col + np.arange(len(block))[:, None]
        if order is not None:
            r, cols = np.where(r >= 0, at_row[r], -1), at_col[cols]
        scatter.append((r * width + cols, bool((r >= 0).all())))
        col += len(block)
    return rows, col_blocks, width, scatter, order, gather


def _inverse(order):
    """The inverse permutation of order: at[order[k]] = k."""
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.arange(len(order))
    return at


def assemble_res(system, beta, alpha0=None):
    """Assemble Res at degree beta for a homogeneous system.

    Entry placement is exact index arithmetic: the column of the point
    m_c in block i, read off S_beta (GradedBasis.below), holds the
    coefficient of f_i at each point m_b in the row of m_b + m_c. Those
    positions depend on the fan and the degrees alone, so the fan keeps
    them in one plan per Res (_res_plan), per beta, degrees and alpha0,
    and a repeat call only writes the nonzero coefficients of each
    equation through one flat scatter.

    With alpha0, the multiplier degree, the result records it: cokernel
    then also gives the corank at beta - alpha0, and multiplication_family
    multiplies by S_alpha0 through the gather the result records. Every
    coefficient is then written straight to its place in the nested
    order of _descent down alpha0, the order cokernel reads Res in, and
    the result records that order. Without alpha0 the order is
    lexicographic.

    Args:
        system: HomogeneousSystem.
        beta: DivisorClass or representative vector for the row degree.
        alpha0: optional DivisorClass or representative vector of the
            multiplier degree.

    Returns:
        ResMatrix, in lexicographic order without alpha0, else in the
        recorded nested one, with alpha0 recorded as a DivisorClass.

    Raises:
        InputError: an equation's degree has no sections, every column
            block is empty (degree too low), alpha0 has no sections, or a
            nonzero term of an equation does not land in S_beta (its
            polynomial is not of its degree).
    """
    fan = system.fan
    beta = as_divisor(fan, beta)
    if alpha0 is not None:
        alpha0 = as_divisor(fan, alpha0)
    # beta's representative, each equation's degree representative, the
    # degree representative of each polynomial's basis, and alpha0's
    key = ("res", beta.a, tuple(div.a for div in system.degrees),
           tuple(f.basis.degree.a for f in system.polys),
           None if alpha0 is None else alpha0.a)
    rows, col_blocks, width, scatter, order, gather = fan.kept(
        key, _res_plan, system, beta, alpha0)
    res = ResMatrix(rows, col_blocks, np.zeros((len(rows), width), dtype=complex),
                    order, alpha0, gather)
    flat = res.matrix.reshape(-1)
    for i, (index, lands) in enumerate(scatter):
        coeffs = system.polys[i].coeffs
        nz = coeffs.nonzero()[0]
        if len(nz) < len(coeffs):
            index, coeffs = index[:, nz], coeffs[nz]
        if not lands and (index < 0).any():
            raise InputError(f"equation {i} does not have degree {system.degrees[i].a}")
        flat[index] = coeffs
    return res


class CokernelMap:
    """Orthonormal cokernel of a ResMatrix.

    Attributes:
        N: complex (delta_plus x dim S_beta) with orthonormal rows and
            ker N = im Res up to TOL_RANK; None from a corank-only call.
            Its columns are in the row order of res.matrix: column k
            belongs to monomial res.order[0][k] of a Res assembled with
            alpha0, else to monomial k of S_beta.
        delta_plus: corank of Res against its row dimension.
        R: triangular factor the cut was taken on, cut on its
            |diagonal|: of one pivoted QR of Res or Res^H, of B on a wide
            reduction, assembled level by level on a tall one (cokernel).
        rank_bounds: (lower bound on sigma_r, upper bound on sigma_{r+1})
            of Res at its rank r, the exact pair when the SVD decided.
        res: the ResMatrix this was computed from; None on a block's map.
        block: the corank-only CokernelMap of Res at alpha, read off res
            one degree res.alpha0 below, with the R of the block's own QR
            or reduction (cokernel); None when res has no alpha0.
    """

    __slots__ = ("N", "delta_plus", "R", "rank_bounds", "res", "block", "_s")

    def __init__(self, N, delta_plus, R, rank_bounds, res=None, block=None):
        self.N = N
        self.delta_plus = delta_plus
        self.R = R
        self.rank_bounds = rank_bounds
        self.res = res
        self.block = block
        self._s = None

    @property
    def singular_values(self):
        """Singular values of R on first read (diagnostics): those of Res,
        or of B on a reduced Res."""
        if self._s is None:
            self._s = np.linalg.svd(self.R, compute_uv=False)
        return self._s

    def __repr__(self):
        return f"CokernelMap(delta_plus={self.delta_plus})"


def _rank(s):
    """Number of singular values s (descending) above TOL_RANK * s[0].

    Raises:
        RankAmbiguousError: the values straddling the cut differ by less
            than GAP_RATIO.
    """
    rank = 0 if s[0] == 0.0 else int(np.sum(s > TOL_RANK * s[0]))
    if 0 < rank < len(s):
        ratio = np.inf if s[rank] == 0.0 else s[rank - 1] / s[rank]
        if ratio < GAP_RATIO:
            raise RankAmbiguousError(
                f"ambiguous rank: singular values {s[rank - 1]:.3e} and "
                f"{s[rank]:.3e} straddle the corank cut with ratio "
                f"{ratio:.1e} < {GAP_RATIO:.0e}"
            )
    return rank


def _certify(a, c, k, upper, norm, top=1.0, weyl=0.0):
    """lower when it certifies a rank cut r, else None.

    M = [[A, B], [0, C]] with ||A^-1||_F <= a, ||C^-1||_F <= c and
    ||A^-1 B||_F <= k has ||M^-1||_F^2 = ||A^-1||^2 + ||C^-1||^2 +
    ||A^-1 B C^-1||^2 <= inverse^2 = a^2 + c^2 + (k c)^2, so a matrix
    within weyl in norm of one with M as an r x r submatrix has sigma_r
    >= lower = 1 / inverse - weyl. With upper >= sigma_{r+1} and norm >=
    sigma_1 >= top, the cut is certified when lower > 10 TOL_RANK norm,
    lower >= 1e3 GAP_RATIO upper and 10 upper <= TOL_RANK top: r is then
    the rank _rank gives on the singular values, and its guard passes.
    """
    # Python floats: a product beyond the float range is inf, not a warning
    kc = k * c
    inverse = (a * a + c * c + kc * kc) ** 0.5
    lower = 1.0 / inverse - weyl
    if (lower > 10 * TOL_RANK * norm and lower >= 1e3 * GAP_RATIO * upper
            and 10 * upper <= TOL_RANK * top):
        return lower
    return None


def _qr_rank(R, reveal):
    """(rank, rank_bounds) of Res from the triangular factor R of its QR.

    r counts |r_ii| > TOL_RANK |r_11|. In units of |r_11| (S = R /
    |r_11|), sigma_r >= 1 / ||S11^-1||_F (LAPACK trtri), sigma_{r+1} <=
    ||S22||_F and sigma_1 <= ||S||_F by interlacing and Weyl, and
    _certify decides the cut on these. R is upper triangular, so S =
    [[S11, S12], [0, S22]], and S is never written whole: S11 is written
    once, F-ordered, and trtri inverts it in place, and ||S||_F joins its
    norm to that of the thin columns [S12; S22] past the cut.
    Otherwise a values-only SVD of R decides, and with reveal an R22
    above the cut raises. A non-finite R (Res beyond double range)
    raises.
    """
    if not np.logical_and.reduce(np.isfinite(R), axis=None):
        raise RankAmbiguousError(
            "Res overflows double precision: its pivoted QR has a non-finite entry")
    d = np.abs(R.diagonal())
    if d[0] > 0.0:
        rank = int(np.add.reduce(d > TOL_RANK * d[0]))
        S11 = np.empty((rank, rank), dtype=complex, order="F")
        np.divide(R[:rank, :rank], d[0], out=S11)
        # the columns past the cut, S12 over S22
        tail = R[:, rank:] / d[0]
        upper = float(_norm(tail[rank:]))
        norm = math.hypot(_norm(S11), _norm(tail))
        a = float(_norm(scipy.linalg.lapack.ztrtri(S11, overwrite_c=True)[0]))
        lower = _certify(a, 0.0, 0.0, upper, norm)
        if lower is not None:
            return rank, (float(lower * d[0]), float(upper * d[0]))
    s = np.linalg.svd(R, compute_uv=False)
    rank = _rank(s)
    cut = TOL_RANK * s[0]
    r22 = _norm(R[rank:, rank:])
    if reveal and r22 > cut:
        raise RankAmbiguousError(
            f"rank not revealed: the trailing block of the pivoted QR has "
            f"norm {r22:.3e} above the cut {cut:.3e}"
        )
    return rank, tuple(float(x) for x in np.r_[np.inf, s, 0.0][rank:rank + 2])


def _geqp3(B):
    """Column-pivoted QR of B (F-ordered, overwritten): (qr, jpvt, tau)."""
    lwork = scipy.linalg.lapack.zgeqp3(B, lwork=-1, overwrite_a=True)[3][0]
    qr, jpvt, tau, _, _ = scipy.linalg.lapack.zgeqp3(
        B, lwork=int(lwork.real), overwrite_a=True)
    return qr, jpvt, tau


def _gees(a):
    """Complex Schur form a = Z T Z^H, unsorted: (T, Z), from LAPACK gees
    with the queried workspace, as scipy.linalg.schur calls it.

    Raises:
        ClusteringError: the QR algorithm did not converge.
    """
    lwork = scipy.linalg.lapack.zgees(_no_select, a, lwork=-1)[-2][0]
    T, _, _, Z, _, info = scipy.linalg.lapack.zgees(
        _no_select, a, lwork=int(lwork.real))
    if info != 0:
        raise ClusteringError(
            f"Schur form not found (LAPACK gees info {info}); reseed")
    return T, Z


def _no_select(_value):
    return None


def _tall(shape):
    return shape[0] >= shape[1] > 0


def _descent(rows, col_blocks, alpha0):
    """The nested order of Res, with row basis rows and column blocks
    col_blocks (as ResMatrix has them), down its chain of steps alpha0, a
    DivisorClass: (rows, cols, shapes). _res_plan writes Res in this
    order, and cokernel reduces it in it; only the bases are read.

    Level j is Res at the degree of rows minus j alpha0, times x^(j v0),
    x^v0 the first monomial of S_alpha0: its rows and columns are the
    monomials of Res that x^(j v0) divides (GradedBasis.below), and the
    other rows vanish in its columns. Res[rows][:, cols] has every level
    as a leading block: the rows and columns of the deepest level first,
    in their order, then those each level adds, each in order. A block
    with no columns touches no row, so none of its rows leads: rows and
    cols are then the identity, the monomial order. shapes[j - 1] is the
    shape of level j, the first that of the block. The levels go on below
    the block only under a tall Res, while the level below pays for its
    lift (_pays); a step trivial in the class group (v0 = 0) gives every
    level the shape of Res, which stops them.

    Raises:
        InputError: alpha0 has no sections.
    """
    between = graded_basis(rows.degree.fan, alpha0)
    if len(between) == 0:
        raise InputError(f"alpha0 = {alpha0.a} has no sections")
    v0 = between.exponents[0]
    # how many times x^v0 divides each row and each column monomial
    depth = [np.minimum.reduce(e[:, v0 > 0] // v0[v0 > 0], axis=1,
                               initial=np.iinfo(np.int64).max)
             for e in (rows.exponents, np.concatenate([b.exponents for _, b in col_blocks]))]
    shapes = [tuple(int(np.add.reduce(d >= 1)) for d in depth)]
    while _tall(tuple(map(len, depth))):
        lower = tuple(int(np.add.reduce(d > len(shapes))) for d in depth)
        if not _pays(shapes[-1], lower):
            break
        shapes.append(lower)
    # a block with no columns touches no row: none of them leads
    levels = len(shapes) if shapes[0][1] else 0
    order_rows, order_cols = (np.argsort(-np.minimum(d, levels), kind="stable")
                              for d in depth)
    return order_rows, order_cols, shapes


def _pays(upper, lower):
    """Whether reducing the level of shape upper by the level of shape
    lower inside it pays for its lift: lower is tall, with fewer columns
    than upper and at most _LEVEL_ASPECT rows per column."""
    return 0 < lower[1] < upper[1] and lower[1] <= lower[0] <= _LEVEL_ASPECT * lower[1]


def _fro(x):
    """Frobenius norm of x, scaled against overflow (BLAS nrm2)."""
    return float(scipy.linalg.blas.dznrm2(x.reshape(-1))) if x.size else 0.0


def _norm(x):
    """np.linalg.norm(x) of a complex x without its wrapper: the same two
    dots on the same operands, so the same bits."""
    x = x.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _norms(x, axis):
    """np.linalg.norm(x, axis=axis) of a complex x without its wrapper:
    the sum of squares it reduces along axis, so the same bits."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _triu(x):
    """np.triu(x) of a 2-D x without its wrapper: the same where on the
    same mask, every entry below the diagonal replaced by a zero of x's
    dtype, so the same values, dtype and layout."""
    rows, cols = x.shape
    below = np.greater.outer(np.arange(rows), np.arange(cols))
    return np.where(below, np.zeros(1, x.dtype), x)


def _eye(rows, cols, k=0, dtype=complex, order="C"):
    """np.eye(rows, cols, k, dtype, order) without its wrapper: zeros with
    ones on the k-th diagonal."""
    out = np.zeros((rows, cols), dtype=dtype, order=order)
    i = np.arange(max(0, -k), min(rows, cols - k))
    out[i, i + k] = 1
    return out


def _trtrs(a, b, trans=0):
    """scipy.linalg.solve_triangular(a, b, trans=trans) of an upper
    triangular complex a and complex b, without its wrapper: the same
    LAPACK trtrs call, on a^T with the flags flipped when a is not
    F-ordered and trans is not 2, as the wrapper makes it. Its
    finiteness scans are left out: _qr_rank refuses a non-finite R, and
    every a here is a leading block of one.

    Raises:
        LinAlgError: a has an exact zero on its diagonal, as the wrapper
            raises it.
    """
    if not b.size:
        return np.empty_like(b)
    if a.flags.f_contiguous or trans == 2:
        x, info = scipy.linalg.lapack.ztrtrs(a, b, trans=trans)
    else:
        x, info = scipy.linalg.lapack.ztrtrs(a.T, b, lower=True, trans=not trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _null_rows(R, jpvt, rank):
    """Orthonormal rows spanning the left null space of A, from the QR
    of A^H: P times the null space of [R11 R12], spanned by
    [-R11^-1 R12; I], so R22 is taken as zero."""
    n = len(jpvt)
    top = _trtrs(R[:rank, :rank], -R[:rank, rank:])
    null = _eye(n, n - rank, -rank)
    null[:rank] = top
    basis = np.empty((n, n - rank), dtype=complex)
    basis[jpvt - 1] = np.linalg.qr(null)[0]
    return basis.conj().T


def _factor(T, reveal):
    """One column-pivoted QR of T, the tall orientation of a matrix A: A
    when A is tall, else A^H, F-ordered and overwritten. (R, rank,
    rank_bounds, qr, jpvt, tau), R the triangle of its leading rows, with
    the singular values of A, and the cut certified on it (_qr_rank)."""
    qr, jpvt, tau = _geqp3(T)
    R = _triu(qr[:min(qr.shape)])
    return (R,) + _qr_rank(R, reveal) + (qr, jpvt, tau)


def _unmqr(side, trans, qr, tau, c):
    """Q c (trans "N") or Q^H c (trans "C"), c from the left (side "L")
    or from the right ("R"), Q the unitary of a geqp3; in place on a
    Fortran-ordered c."""
    qr = qr[:, :len(tau)]
    lwork = scipy.linalg.lapack.zunmqr(side, trans, qr, tau, c, -1)[1][0]
    return scipy.linalg.lapack.zunmqr(
        side, trans, qr, tau, c, int(lwork.real), overwrite_c=True)[0]


def _basis(fac, m, rank):
    """N = E^H Q^H, Q the unitary of a tall level in nested order with
    one (qr, tau, lo, hi) per level in fac (_stack), E the unit vectors
    past the rank: each level's unitary applied from the right to its own
    columns lo:hi, the top level first, so that every slice is
    contiguous."""
    N = _eye(m - rank, m, rank, order="F")
    for qr, tau, lo, hi in fac[::-1]:
        N[:, lo:hi] = _unmqr("R", "C", qr, tau, N[:, lo:hi])
    return N


def _plain(A, corank_only):
    """The map of one QR of A, or of A^H when A is wide; its cut raises."""
    m = len(A)
    if A.shape[1] == 0:
        N = None if corank_only else _eye(m, m)
        return CokernelMap(N, m, np.zeros((0, 0), dtype=complex), ())
    tall = _tall(A.shape)
    R, rank, bounds, qr, jpvt, tau = _factor(
        np.array(A, order="F") if tall else A.conj().T, not corank_only)
    N = None
    if not corank_only and tall:
        E = _eye(m, m - rank, -rank, order="F")
        N = _unmqr("L", "N", qr, tau, E).conj().T
    elif not corank_only:
        N = _null_rows(R, jpvt, rank)
    return CokernelMap(N, m - rank, R, bounds)


def _coupling(R, jpvt, rank, X):
    """||Z||_F, Z = R11^-H V with V the least-squares solution of
    P [I; L] V = X, L^H = R11^-1 R12, from the QR of block^H (_factor)
    and X = res[I, K]: the coupling C1^-1 X of _reduce."""
    Lh = _trtrs(R[:rank, :rank], R[:rank, rank:])
    T = X[jpvt - 1]
    V = T[:rank] + Lh @ T[rank:]
    # (I + L^H L)^-1 by Woodbury, through the small I + L L^H
    gram = _eye(Lh.shape[1], Lh.shape[1], dtype=float) + Lh.conj().T @ Lh
    V -= Lh @ np.linalg.solve(gram, Lh.conj().T @ V)
    return _fro(_trtrs(R[:rank, :rank], V, trans=2))


def _assemble(R_lo, r_lo, X, R_B, jpvt):
    """R of a tall A P = Q R reduced by its block: [[R11_lo, X, R12_lo],
    [0, R_B, 0]] with X in B's pivot order, square, the block's R22
    taken as zero (_reduce)."""
    k = R_B.shape[1]
    n = R_lo.shape[1] + k
    R = np.zeros((n, n), dtype=complex)
    R[:r_lo, :r_lo] = R_lo[:r_lo, :r_lo]
    R[:r_lo, r_lo:r_lo + k] = X[:, jpvt - 1]
    R[:r_lo, r_lo + k:] = R_lo[:r_lo, r_lo:]
    R[r_lo:r_lo + k, r_lo:r_lo + k] = R_B
    return R


def _stack(W, shapes):
    """(fac, R, weyl) of the tall level W[:m, :n], (m, n) = shapes[0], W
    in the nested order of _descent, reduced down the levels of shapes as
    _reduce reduces a tall Res, but uncertified. From the innermost level
    out, each level's geqp3 takes its new columns on the rows below the
    rank of the levels inside, and its unitary turns every column ahead
    in W in place, those outside the level included; the level then
    splits at its count of |r_ii| > TOL_RANK |r_11|, and weyl bounds the
    R22 the levels drop. fac lists one (qr, tau, lo, hi) per level,
    innermost first, its unitary acting on the rows lo:hi."""
    fac, R, weyl, r, n = [], np.zeros((0, 0), dtype=complex), 0.0, 0, 0
    for m1, n1 in shapes[::-1]:
        qr, jpvt, tau = _geqp3(np.array(W[r:m1, n:n1], order="F"))
        W[r:m1, n1:] = _unmqr("L", "C", qr, tau, np.array(W[r:m1, n1:], order="F"))
        weyl += _fro(R[r:, r:])
        R = _assemble(R, r, W[:r, n:n1], _triu(qr[:n1 - n]), jpvt)
        fac.append((qr, tau, r, m1))
        d = np.abs(R.diagonal())
        r, n = int(np.add.reduce(d > TOL_RANK * d[0])), n1
    return fac, R, weyl


def _reduce(W, corank_only, shapes, tall):
    """(map, block's map) of A from the cokernel of B; the map None when
    the block leaves no margin, B's cut raises or the cut of A is not
    certified. N is in the row order of W.

    W is A in the nested order of _descent, whose levels have shapes: the
    block is W[:m1, :n1] and its columns vanish on the other rows, rest; K
    are the other columns, W[:, n1:]. The block is factored in A's
    orientation: a tall A's by its own reduction down the levels (_stack),
    which turns W in place, a wide A's by one geqp3 of its adjoint, which
    leaves W as it is. Its cut r_lo is certified on its R with one trtri
    of all of R11 (_qr_rank), and N_lo, the rows past r_lo of Q^H, is
    taken as its cokernel: its R22, and the parts the levels inside drop,
    are at most weyl_lo. B = [N_lo A[:m1, K]; A[rest, K]] gets one geqp3
    (of B^H for a wide A, written once). A left null vector y of A has
    y[:m1] in the cokernel of the block, so the cokernel of A is that of
    B, lifted back: y[:m1] = c[:d_lo] N_lo, y[rest] = c[d_lo:];
    orthonormal rows c give orthonormal rows y. A wide A lifts explicitly,
    with N_lo from the R of the block's adjoint (_null_rows). A tall A
    keeps every level's unitary: A P = Q R with R = [[R11_lo, X, R12_lo],
    [0, R_B, 0]], X the first r_lo rows of Q_lo^H A[:m1, K], and N = (Q
    E)^H. The levels leave Q_lo^H A[:m1, K] in W, so X, N_lo A[:m1, K] and
    B are slices of W, and ||A[:m1, K]||_F and ||A||_F are taken before
    they turn it.

    The cut of A is r_lo + rank(B). Turning the block's rows by Q_lo^H
    (N_lo its last rows) and its columns by its pivots makes A [[C1, X],
    [0, B]] plus columns of norm at most weyl_lo, C1 square. So
    sigma_{r+1}(A) <= u_B + weyl_lo, u_B the upper bound at B's cut, and
    _certify bounds sigma_r(A) with that weyl. Here 1 / a =
    sigma_{r_lo}(block) - 2 weyl_lo <= sigma_min(C1), c is the bound at
    B's cut, and k >= ||C1^-1 X||: first a ||X||_F, ||X||_F^2 = ||A[:m1,
    K]||_F^2 - ||N_lo A[:m1, K]||_F^2, and, when that product of norms
    misses the margins, solved for: ||C1^-1 X||_F itself under a wide A
    (_coupling), ||R11_lo^-1 X||_F under a tall one, at least ||C1^-1
    X||_F = ||[R11_lo R12_lo]^+ X||_F = ||(I + L L^H)^-1/2 R11_lo^-1
    X||_F, L = R11_lo^-1 R12_lo. The one trtri of the block's whole R11
    keeps a within a factor of the block's true 1 / sigma_{r_lo}, where
    a bound carried up from the levels inside would lose that factor
    again at every level.
    """
    (m1, n1), m = shapes[0], len(W)
    IK = W[:m1, n1:]
    # before the levels of a tall A turn W
    t, norm = _fro(IK), _fro(W)
    if tall:
        fac_lo, R_lo, weyl_lo = _stack(W, shapes)
        r_lo, bounds_lo = _qr_rank(R_lo, False)
    else:
        R_lo, r_lo, bounds_lo, _, jpvt_lo, _ = _factor(W[:m1, :n1].conj().T, False)
        weyl_lo = 0.0
    below = CokernelMap(None, m1 - r_lo, R_lo, bounds_lo)
    weyl_lo += _fro(R_lo[r_lo:, r_lo:])
    scale = float(abs(R_lo[0, 0]))
    if not (scale > 0.0 and bounds_lo[0] > 2 * weyl_lo and m - r_lo):
        return None, below
    if tall:
        X, NK = W[:r_lo, n1:], W[r_lo:m1, n1:]
        T = np.array(W[r_lo:, n1:], order="F")
    else:
        N_lo = _null_rows(R_lo, jpvt_lo, r_lo)
        NK = N_lo @ IK
        # B^H written once, as the rows of its conjugate: no copy of B
        conj = np.empty((len(NK) + m - m1, NK.shape[1]), dtype=complex)
        np.conjugate(NK, out=conj[:len(NK)])
        np.conjugate(W[m1:, n1:], out=conj[len(NK):])
        T = conj.T
    try:
        R, rank, (lower_b, upper_b), qr, jpvt, tau = _factor(T, not corank_only)
    except RankAmbiguousError:
        return None, below
    # in units of the block's |r_11|; Python floats, so a product beyond
    # the float range is inf, not a warning
    a, c = scale / (bounds_lo[0] - 2 * weyl_lo), scale / lower_b
    upper = (upper_b + weyl_lo) / scale
    margins = {"upper": upper, "norm": norm / scale,
               "top": max(1.0, abs(R[0, 0]) / scale), "weyl": upper}
    t, p = t / scale, _fro(NK) / scale
    cert = (_certify(a, c, a * max(t * t - p * p, 0.0) ** 0.5, **margins)
            or _certify(a, c, _fro(_trtrs(R_lo[:r_lo, :r_lo], X))
                        if tall else _coupling(R_lo, jpvt_lo, r_lo, IK), **margins))
    if not cert:
        return None, below
    N = None
    if tall:
        R = _assemble(R_lo, r_lo, X, R, jpvt)
        if not corank_only:
            N = _basis(fac_lo + [(qr, tau, r_lo, m)], m, r_lo + rank)
    elif not corank_only:
        C = _null_rows(R, jpvt, rank)
        N = np.empty((len(C), m), dtype=complex)
        N[:, :m1] = C[:, :len(N_lo)] @ N_lo
        N[:, m1:] = C[:, len(N_lo):]
    return CokernelMap(N, m - r_lo - rank, R, (cert * scale, upper * scale)), below


def cokernel(res, corank_only=False):
    """Compute the cokernel of Res with a certified rank decision.

    The rank is the number of singular values above TOL_RANK * sigma_1 and
    the corank is counted against the row dimension, so a matrix with few
    columns exposes its structural cokernel too.

    Every path makes column-pivoted QRs (LAPACK geqp3) and no singular
    vectors. The plain path makes one, of the tall orientation T of Res:
    Res itself when it has at least as many rows as columns, Res^H
    otherwise. T P = Q R, so the square triangular factor R has the
    singular values of Res. _qr_rank certifies the cut on |diag R| from R
    (_certify); a values-only SVD of R runs only when that fails or
    CokernelMap.singular_values is read. With R11 the leading rank x rank
    block of R, R12 beside it and R22 the trailing block, the full path
    builds N from the same QR:

    - tall Res: the left null space is spanned by the trailing columns
      of Q: LAPACK unmqr applies Q to the unit vectors past the rank;
    - wide Res: the left null space is the null space of T, which is P
      times the null space of [R11 R12], spanned by [-R11^{-1} R12; I].

    Both bases treat R22 as zero, so N Res is as small as R22. Pivoted
    QR keeps R22 near the discarded singular values on all but contrived
    matrices; when it does not, the full path raises instead of returning
    an N that misses the image. With corank_only, N is None and only that
    guard is skipped.

    When res was assembled with alpha0 (res.alpha0), it is Res at alpha +
    alpha0, alpha its degree minus alpha0, and Res at alpha is read off
    it, never assembled: times the first monomial x^v0 of S_alpha0, it is
    the block res[I, J] of the rows and columns x^v0 divides, and its
    columns vanish off its rows (_descent). Res at alpha - alpha0 sits in
    the block the same way, and so on down the chain. assemble_res wrote
    res in the nested order of that chain, the block leading, and res
    records it from the plan the fan keeps (res.order). When the
    block has columns and is not all of res, cokernel first reduces res
    by the block (_reduce). With rest the other rows and K the other
    columns, the cokernel of res is that of B = [N_lo res[I, K];
    res[rest, K]], N_lo the block's cokernel, lifted back. The block and
    B are factored in the orientation of res:

    - wide res: one QR of block^H gives the block's corank and its
      R-based N_lo, and B goes through the wide path above: on the 27
      lines B is 261 x 342 where res is 441 x 552. R and the singular
      values are those of B;
    - tall res: the block is itself reduced by its own block, and so on
      down the chain while each level below pays for its lift
      (_descent): on P^2 at degree 20, six levels from 780 x 380 down to
      595 x 210. The levels are factored from the innermost out: each
      QR takes only a level's new columns and the rows the levels inside
      leave, and its Q^H turns every column ahead of it once, in place.
      R is assembled from one QR per level (its |diagonal| is not
      monotone across the level bounds), and N is Q E as above, each
      level's Q on its own rows.

    Both orientations read res.matrix in its nested order, every level a
    leading block: in place when wide, and copied once, contiguously,
    when tall, for the levels to turn. res.matrix is never written.

    The cut at alpha, the block's corank, is certified on the block's R
    with one trtri of all of its R11; the cut at the top reuses that
    bound and inverts only B's R11 (_certify). rank_bounds is then that
    pair, weaker than one QR of res would give. Each proof uses only
    res P = Q R, whichever pivots were chosen. When the top cut is not
    certified, or there is nothing to reduce by, the plain map of
    res.matrix as it stands runs instead. Either way the columns of N
    are in the row order of res.matrix. The block's map, the block
    attribute of the result, is corank-only and reads the block as the
    leading res.matrix[:m1, :n1]: from the reduction when it ran, with
    the R of the block's own QR or reduction; else the plain map of that
    block.

    Raises:
        RankAmbiguousError: the singular values straddling the cut differ
            by less than GAP_RATIO, so the corank is not trustworthy;
            Res overflows double precision in the QR; or (full path) R22
            exceeds the cut: the QR does not reveal the rank. Either of
            the two cuts, at alpha + alpha0 or at alpha, may raise.
    """
    cok = below = None
    if res.order is not None:
        shapes = res.order[2]
        (m1, n1), n = shapes[0], res.shape[1]
        if 0 < n1 < n:
            tall = _tall(res.shape)
            # the reduction turns a tall W in place; res.matrix stays
            W = res.matrix.copy() if tall else res.matrix
            cok, below = _reduce(W, corank_only, shapes, tall)
    if cok is None:
        cok = _plain(res.matrix, corank_only)
    cok.res = res
    if below is None and res.order is not None:
        # no reduction ran: the block is all of res, or has no columns
        below = _plain(res.matrix[:m1, :n1], True)
    cok.block = below
    return cok


class MultiplicationFamily:
    """Commuting multiplication matrices M_{x^b / h_0} for b in S_alpha0.

    M_b is linear in b's coefficient vector over S_alpha0, and
    sum_b h0_b M_b = I; from delta_plus = SPAN_MIN_DELTA on,
    schur_cluster reads the members in span{I, M} of its Schur driver M
    off I and M's Schur form, not off the stack.

    Attributes:
        stack: complex (members x delta_plus x delta_plus) array, member j
            the matrix of the j-th monomial of S_alpha0.
        matrices: {exponent tuple of x^b: delta_plus x delta_plus matrix},
            in the monomial order of S_alpha0; each a view into stack.
        basis_columns: indices into the S_alpha basis selected by pivoted
            QR.
        h0_coeffs: coefficients of the random h_0 over S_alpha0.
        alpha0_basis: GradedBasis of S_alpha0.
        delta_plus: matrix dimension.
        cond: condition number of the restricted N_{h_0}: its 2-norm
            condition when that needed an SVD, else the upper bound
            ||R11||_F ||R11^-1||_F from the pivoted QR that chose the
            columns, which is at least cond_2 and within COND_MAX.
    """

    __slots__ = ("stack", "matrices", "basis_columns", "h0_coeffs",
                 "alpha0_basis", "delta_plus", "cond")

    def __init__(self, stack, basis_columns, h0_coeffs,
                 alpha0_basis, delta_plus, cond):
        self.stack = stack
        self.matrices = dict(zip(alpha0_basis.monomials, stack))
        self.basis_columns = basis_columns
        self.h0_coeffs = h0_coeffs
        self.alpha0_basis = alpha0_basis
        self.delta_plus = delta_plus
        self.cond = cond

    @property
    def monomials(self):
        return self.alpha0_basis.monomials

    def combination(self, coeffs):
        """Sum of coeffs[j] * M_{b_j / h_0} over the S_alpha0 monomials.

        Summed over the stack's first axis in member order, so the result
        has the rounding of a loop over the members (a BLAS tensordot
        does not, and moves the Schur form's last bits).
        """
        return np.add.reduce(np.asarray(coeffs)[:, None, None] * self.stack, axis=0)

    def __repr__(self):
        return (f"MultiplicationFamily({len(self.matrices)} matrices, "
                f"delta_plus={self.delta_plus})")


def _restriction_cond(R11, sub):
    """cond_2 of sub, or a bound on it that settles the COND_MAX test.

    sub is the restriction n_h0[:, columns], and R11 the leading square
    triangle of the pivoted QR that picked the columns, so the two have
    the same singular values. cond_2 lies between max|r_ii| / min|r_ii|
    and ||R11||_F ||R11^-1||_F (LAPACK trtri). The upper bound is
    returned when it is within COND_MAX, inf when the lower bound
    exceeds it; the SVD runs only between the two.
    """
    d = np.abs(R11.diagonal())
    if not np.maximum.reduce(d) <= COND_MAX * np.minimum.reduce(d):
        return np.inf
    inverse, info = scipy.linalg.lapack.ztrtri(R11)
    upper = _norm(R11) * _norm(inverse)
    if info == 0 and upper <= COND_MAX:
        return float(upper)
    return float(np.linalg.cond(sub))


def multiplication_family(cok, seed=0):
    """Build the multiplication matrices from a cokernel at alpha + alpha0.

    alpha0 is the multiplier degree cok.res was assembled with, and alpha
    the degree of cok.res minus alpha0. The monomial maps N_b:
    S_alpha -> C^delta are exact column gathers of N, all in one: x^b x^a
    is the monomial of S_{alpha+alpha0} at the point m_b + m_a, whose
    column of N is its position in the nested order cok.res.order[0].
    The bases and that gather index, composed with the order once, are
    part of the plan of cok.res that the fan keeps, and cok.res records
    them (ResMatrix.gather). h_0 is a random complex Gaussian
    combination over S_alpha0, and the invertible restriction is chosen
    by column-pivoted QR on N_{h_0} (LAPACK geqp3). One LU factorization
    of that restriction and one solve on the right-hand sides of every
    member, side by side (LAPACK getrf and getrs), give the whole family
    as one stacked array. Its members are linear in their coefficient
    vectors and sum_b h0_b M_b = I: from delta_plus = SPAN_MIN_DELTA on,
    schur_cluster transforms only the m - 2 members outside span{h_0,
    driver} and reads the others through an m x m change of basis.

    Args:
        cok: CokernelMap, not corank-only, of a Res assembled with alpha0
            (assemble_res).
        seed: seeds the h_0 draw; retries continue the same stream.

    The first h_0 draw whose restriction is conditioned within
    H0_COND_TARGET is taken; when none of the 1 + RETRIES_MAX draws is,
    the best-conditioned one.

    Raises:
        InputError: cok is corank-only (it has no N), its Res was
            assembled without alpha0, or S_alpha has fewer than
            delta_plus monomials.
        BasepointError: every one of the 1 + RETRIES_MAX h_0 draws had a
            restriction conditioned worse than COND_MAX, which is the
            symptom of alpha0 having basepoints on the solution set.
    """
    if cok.N is None:
        raise InputError("the cokernel map is corank-only: it has no N to "
                         "read the multiplication maps off")
    if cok.res.alpha0 is None:
        raise InputError("Res was assembled without alpha0: there is no "
                         "multiplier degree to read the family at")
    s_alpha, s_alpha0, idx = cok.res.gather

    delta = cok.delta_plus
    if len(s_alpha) < delta:
        raise InputError(
            f"dim S_alpha = {len(s_alpha)} < delta_plus = {delta}; "
            "the pair cannot carry an invertible restriction"
        )

    if delta == 0:
        empty = np.zeros((len(s_alpha0), 0, 0), dtype=complex)
        coeffs = np.zeros(len(s_alpha0), dtype=complex)
        return MultiplicationFamily(empty, (), coeffs, s_alpha0, 0, 0.0)

    # one gather for all N_b, member-major (stack[j] = N_{b_j}), written
    # member by member with no second copy
    stack = np.empty((len(s_alpha0), delta, len(s_alpha)), dtype=complex)
    for j, at in enumerate(idx):
        stack[j] = cok.N[:, at]

    # h_0 and its retries continue one stream of the seed (_draws); the
    # first draw within H0_COND_TARGET is taken, else the best of them all
    best = None
    for coeffs in _draws(seed, 1, len(s_alpha0), RETRIES_MAX + 1):
        # np.tensordot(coeffs, stack, axes=(0, 0)) without its wrapper: the
        # same dot of coeffs, as one row, against the flattened members
        n_h0 = np.dot(coeffs.reshape(1, -1),
                      stack.reshape(len(coeffs), -1)).reshape(stack.shape[1:])
        # geqp3 overwrites its argument: a Fortran copy of n_h0
        qr, jpvt, _ = _geqp3(np.array(n_h0, order="F"))
        columns = tuple(sorted((jpvt[:delta] - 1).tolist()))
        sub = n_h0[:, columns]
        cond = _restriction_cond(_triu(qr[:delta, :delta]), sub)
        if best is None or cond < best[0]:
            best = cond, coeffs, columns, sub
        if cond <= H0_COND_TARGET:
            break
    cond, coeffs, columns, sub = best
    # freed before the solve, whose right-hand side is gathered from N
    del stack
    if not cond <= COND_MAX:
        raise BasepointError(
            f"no well-conditioned multiplier after {RETRIES_MAX + 1} draws; "
            "alpha0 may have basepoints on the solution set"
        )

    # members side by side as one right-hand side (delta x members * delta)
    members = len(s_alpha0)
    rhs = cok.N[:, idx[:, columns].reshape(-1)]
    # the condition test above leaves getrf no zero pivot
    lu, piv, _ = scipy.linalg.lapack.zgetrf(sub)
    solved = scipy.linalg.lapack.zgetrs(lu, piv, rhs)[0]
    family = np.ascontiguousarray(
        solved.reshape(delta, members, delta).transpose(1, 0, 2))
    return MultiplicationFamily(family, columns, coeffs,
                                s_alpha0, delta, float(cond))


class SchurClustering:
    """Joint block triangularization of a multiplication family.

    Attributes:
        block_sizes: cluster multiplicities mu_i, summing to delta_plus.
        tables: complex array of shape (clusters, len(family.monomials));
            entry (i, j) is Trace(Delta_i^b) / mu_i for the j-th monomial
            x^b of family.monomials.
        leakage: largest relative below-block-diagonal norm over members.
        leakage_by_member: that norm for every family member, in
            family.monomials order (diagnostics export).
        cluster_gap: the threshold that produced the clusters.
    """

    __slots__ = ("block_sizes", "tables", "leakage", "cluster_gap",
                 "leakage_by_member")

    def __init__(self, block_sizes, tables, leakage, cluster_gap,
                 leakage_by_member=()):
        self.block_sizes = block_sizes
        self.tables = tables
        self.leakage = leakage
        self.cluster_gap = cluster_gap
        self.leakage_by_member = tuple(leakage_by_member)

    def __repr__(self):
        return (f"SchurClustering(sizes={list(self.block_sizes)}, "
                f"leakage={self.leakage:.2e})")


def _cluster_labels(values, gap):
    """Connected components of |vi - vj| <= gap * (1 + (|vi|+|vj|)/2),
    numbered by first appearance."""
    mag = np.abs(values)
    near = (np.abs(values[:, None] - values[None, :])
            <= gap * (1.0 + (mag[:, None] + mag[None, :]) / 2.0))
    index = np.arange(len(values))
    if np.add.reduce(near, axis=None) == len(values):  # every value its own cluster
        return index
    # min-label propagation: every label stays the index of a value in
    # its own component, so the fixed point is the component's first index
    labels = index
    while True:
        new = np.minimum.reduce(np.where(near, labels[None, :], len(values)), axis=1)
        new = new[new]
        if np.logical_and.reduce(new == labels):
            break
        labels = new
    # a component's first index labels itself; count those up to each label
    return (np.add.accumulate(labels == index) - 1)[labels]


def _reorder(T, Z, labels):
    """Move equal-label Schur values into contiguous runs with LAPACK trsen.

    Labels number clusters by first appearance, as _cluster_labels does.
    Selecting every value labelled <= c brings cluster c up behind the
    earlier ones; trsen keeps the relative order of the selected and of
    the unselected values, so each cluster keeps its internal order.
    A failed trsen swap raises ClusteringError.
    """
    labels = np.asarray(labels)
    for c in range(len(labels)):
        if np.logical_and.reduce(labels[:-1] <= labels[1:]):
            break
        select = labels <= c
        T, Z, _, _, _, _, info = scipy.linalg.lapack.ztrsen(
            select, T, Z, job="N")
        if info != 0:
            raise ClusteringError(
                f"Schur reordering failed (LAPACK trsen info {info}); reseed")
        labels = np.concatenate([labels[select], labels[~select]])
    return T, Z, labels


def _below_block_norm(Tb, labels):
    """Frobenius norm of Tb below the diagonal blocks of sorted labels,
    over the leading axes of Tb."""
    return _norms(Tb[..., labels[:, None] > labels[None, :]], -1)


_GAP_CEILING = 0.1


def _span(h0, driver, size):
    """The coordinates (i, j) of S_alpha0 that carry span{h0, driver} in
    schur_cluster's change of basis; (0, 0) with one member.

    size holds each member's size ||M_b||_F. The span's coordinates are
    those of the 2 x 2 minor of largest modulus of [h0; driver] with
    every coordinate scaled by its size. By Cramer's rule the unit
    vectors of the other coordinates then enter members i and j with
    coefficients of modulus at most size_i / size_a, so a member read off
    the span carries errors relative to its own size, and a member that
    vanishes at every solution, of size at the rounding floor, is
    transformed itself.
    """
    products = np.multiply.outer(h0 * size, driver * size)
    return divmod(int(abs(products - products.T).argmax()), len(h0))


def schur_cluster(family, seed=0):
    """Cluster the joint spectrum of a multiplication family.

    Takes the complex Schur form T = Z^H M Z of a random member M =
    sum_b d_b M_b, groups nearby diagonal values, reorders them into
    contiguous blocks with LAPACK trsen, and reads every member through
    the same unitary Z, one masked norm for every member's leakage and
    one reduceat over the diagonals for all the tables.

    Z^H M_b Z is linear in the coefficient vector of b over S_alpha0, and
    h_0 gives I (sum_b h0_b M_b = I), the driver d gives T. So from
    delta_plus = SPAN_MIN_DELTA on, only the m - 2 members whose unit
    vectors complete {h_0, d} to a basis of C^m, each member scaled by its
    size (_span; none when m <= 2), are transformed; every member's
    Z^H M_b Z, its table column and its leakage follow from I, T and those
    transforms through the inverse G of that basis. A member read off the
    span whose table entry cancels to exactly 0.0 is transformed itself,
    since recovery takes an exact zero for a vanishing coordinate. Below
    SPAN_MIN_DELTA every member is transformed.

    A multiple eigenvalue with a nontrivial Jordan block scatters its
    computed copies over a radius like eps**(1/mu), far wider than any
    fixed grouping threshold.  Grouping starts at CLUSTER_GAP; when the
    blocks leak, the gap is widened tenfold and the diagonal is
    regrouped, up to a relative ceiling of 0.1; distinct solutions of a
    random combination sit O(1) apart, so the widening merges scattered
    copies without fusing true clusters.

    Raises:
        ClusteringError: some member leaks below the block diagonal by
            more than LEAK_TOL (relative) at every attempted gap,
            meaning the clusters do not bound joint invariant subspaces.
    """
    mons = family.monomials
    delta, m = family.delta_plus, len(mons)
    (driver_coeffs,) = _draws(seed, 2, m, 1)
    if delta == 0:
        return SchurClustering((), np.zeros((0, m), dtype=complex),
                               0.0, CLUSTER_GAP)

    M = family.combination(driver_coeffs)
    T0, Z0 = _gees(M)
    size = _norms(family.stack, (1, 2))
    norms = np.maximum(1.0, size)
    stack, span = family.stack, ()
    if delta >= SPAN_MIN_DELTA:
        span = _span(family.h0_coeffs, driver_coeffs, size)
        outside = [a for a in range(m) if a not in span]
        # rows h_0, d, then the unit vectors outside the span: a basis of C^m
        G = np.linalg.inv(np.concatenate(([family.h0_coeffs, driver_coeffs],
                                          _eye(m, m, dtype=float)[outside]))[:m])
        stack = stack[outside]

    gap, basis = CLUSTER_GAP, None
    while True:
        labels = _cluster_labels(T0.diagonal(), gap)
        T, Z, labels = _reorder(T0, Z0, labels)
        bounds = np.concatenate(([True], labels[1:] != labels[:-1], [True])).nonzero()[0]
        starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]

        # the members in the Schur basis Z, transformed once per basis: a
        # gap whose reordering swaps nothing keeps Z0, and regroups only
        # the tables and the leakage
        if Z is not basis:
            basis, members = Z, Z.conj().T @ stack @ Z
            if span:
                # Z^H M_b Z = sum_k G[b, k] K_k, K = (I, T, Z^H M_a Z outside)[:m]
                K = np.concatenate((_eye(delta, delta, dtype=float)[None], T[None],
                                    members))[:m]
                members = np.dot(G, K.reshape(m, -1)).reshape(m, delta, delta)
        Tb = members
        tables = (np.add.reduceat(Tb.diagonal(axis1=1, axis2=2), starts, axis=1) / sizes).T
        # a member read off the span can cancel to exactly 0.0 where it
        # vanishes, which recovery takes for a vanishing coordinate; the
        # member transformed itself gives rounding noise there, as the
        # others do. On a copy: another gap may redo other members
        redo = [b for b in set(span) if not np.logical_and.reduce(tables[:, b])]
        if redo:
            Tb = members.copy()
            Tb[redo] = Z.conj().T @ family.stack[redo] @ Z
            tables = (np.add.reduceat(Tb.diagonal(axis1=1, axis2=2), starts, axis=1) / sizes).T
        by_member = _below_block_norm(Tb, labels) / norms
        leakage = float(np.maximum.reduce(by_member))
        if leakage <= LEAK_TOL:
            return SchurClustering(tuple(sizes.tolist()), tables,
                                   leakage, gap, by_member.tolist())
        if gap >= _GAP_CEILING:
            raise ClusteringError(
                f"clustering failed (leakage {leakage:.2e} > "
                f"{LEAK_TOL:.0e}) at every gap up to {gap:.0e}; "
                "reseed"
            )
        gap = min(gap * 10.0, _GAP_CEILING)
