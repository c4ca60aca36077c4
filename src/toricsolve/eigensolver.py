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
import operator

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
# relative eigenvalue grouping threshold the clustering starts at, and
# the largest relative below-block-diagonal norm a clustering may leave
CLUSTER_GAP = 1e-4
LEAK_TOL = 1e-6
# number of (seed, stage, size) keys whose seeded draws stay kept
DRAWS_MAX = 8
# the most rows per column a Res below the top of a staircase may have
# and still be a level of it (cokernel)
_LEVEL_ASPECT = 2.5


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
        rows: GradedBasis of S_beta; row order is its monomial order.
        col_blocks: (equation index, GradedBasis of S_{beta - alpha_i})
            pairs, one per equation, in equation order.
        matrix: dense complex matrix, rows x total block width.
    """

    __slots__ = ("rows", "col_blocks", "matrix")

    def __init__(self, rows, col_blocks, matrix):
        self.rows = rows
        self.col_blocks = col_blocks
        self.matrix = matrix

    @property
    def shape(self):
        return self.matrix.shape

    def block_widths(self):
        return [len(b) for _, b in self.col_blocks]

    def __repr__(self):
        return f"ResMatrix(shape={self.matrix.shape}, blocks={self.block_widths()})"


def _res_plan(system, beta):
    """The index data of Res at beta, built once and kept by the fan.

    Returns (rows, col_blocks, width, scatter). Per equation, scatter
    holds the flat matrix index of the row of m_b + m_c in the column of
    m_c, for every point m_c of its block (axis 0) and m_b of its
    polynomial's basis (axis 1), and whether every one of those points
    lands in rows. They all land when the polynomial has its degree, as
    the section polytopes add; a point that does not has a negative
    index. The key is beta's representative, each equation's degree
    representative and the degree representative of each polynomial's
    basis.
    """
    fan = system.fan
    beta = as_divisor(fan, beta)
    key = ("res", beta.a, tuple(div.a for div in system.degrees),
           tuple(f.basis.degree.a for f in system.polys))

    def build():
        rows = graded_basis(fan, beta)
        col_blocks = [(i, graded_basis(fan, rows.degree - div))
                      for i, div in enumerate(system.degrees)]
        width = sum(len(b) for _, b in col_blocks)
        scatter, col = [], 0
        for i, block in col_blocks:
            r = rows.rows(block.points[:, None] + system.polys[i].basis.points[None])
            cols = col + np.arange(len(block))[:, None]
            scatter.append((r * width + cols, bool((r >= 0).all())))
            col += len(block)
        return rows, col_blocks, width, scatter
    return fan.kept(key, build)


def assemble_res(system, beta, allow_empty=False):
    """Assemble Res at degree beta for a homogeneous system.

    Entry placement is exact index arithmetic: the column of the point
    m_c in block i holds the coefficient of f_i at each point m_b in the
    row of m_b + m_c. Those positions depend on the fan and the degrees
    alone, so the fan keeps them per degree (_res_plan) and a repeat
    call only writes the nonzero coefficients of each equation through
    one flat scatter.

    Args:
        system: HomogeneousSystem.
        beta: DivisorClass or representative vector for the row degree.
        allow_empty: accept a Res with zero columns instead of raising.
            Pair verification probes low degrees where that is legitimate
            (the cokernel is then all of S_beta).

    Returns:
        ResMatrix with lexicographic row and column order.

    Raises:
        InputError: every column block is empty (degree too low) and
            allow_empty is False, or a nonzero term of an equation does
            not land in S_beta (its polynomial is not of its degree).
    """
    rows, col_blocks, width, scatter = _res_plan(system, beta)
    if len(system) > 0 and width == 0 and not allow_empty:
        raise InputError("degree too low: every column block of Res is empty")

    matrix = np.zeros((len(rows), width), dtype=complex)
    flat = matrix.reshape(-1)
    for i, (index, lands) in enumerate(scatter):
        coeffs = system.polys[i].coeffs
        nz = coeffs.nonzero()[0]
        if len(nz) < len(coeffs):
            index, coeffs = index[:, nz], coeffs[nz]
        if not lands and (index < 0).any():
            raise InputError(f"equation {i} does not have degree {system.degrees[i].a}")
        flat[index] = coeffs
    return ResMatrix(rows, col_blocks, matrix)


class CokernelMap:
    """Orthonormal cokernel of a ResMatrix.

    Attributes:
        N: complex (delta_plus x dim S_beta) with orthonormal rows and
            ker N = im Res up to TOL_RANK; None from a corank-only call.
        delta_plus: corank of Res against its row dimension.
        R: square triangular factor of a pivoted QR of Res (of Res^H when
            Res is wide), cut on its |diagonal|. On a staircase of more
            than one level it is assembled from one QR per level, and its
            |diagonal| is not monotone across the level bounds. None on
            the map of a block whose cut was certified inside the
            staircase of the Res above it.
        rank_bounds: (lower bound on sigma_r, upper bound on sigma_{r+1})
            of Res at its rank r, the exact pair when the SVD decided.
        res: the ResMatrix this was computed from.
        block: the corank-only CokernelMap of the block passed to
            cokernel (Res one alpha0 below), None without one.
    """

    __slots__ = ("N", "delta_plus", "R", "rank_bounds", "res", "block", "_s")

    def __init__(self, N, delta_plus, R, rank_bounds, res, block=None):
        self.N = N
        self.delta_plus = delta_plus
        self.R = R
        self.rank_bounds = rank_bounds
        self.res = res
        self.block = block
        self._s = None

    @property
    def singular_values(self):
        """Singular values of Res, from R on first read (diagnostics)."""
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


def _qr_rank(R, reveal, lead=None):
    """(rank, rank_bounds, inverse) of Res from the triangular factor R
    of its QR.

    r counts |r_ii| > TOL_RANK |r_11|. On S = R / |r_11| (no overflow or
    underflow), sigma_r >= 1 / ||S11^-1||_F, sigma_{r+1} <= ||S22||_F and
    sigma_1 <= ||S||_F by interlacing and Weyl. Within the margins below,
    r is the rank _rank gives on the singular values, both guards pass,
    and inverse is the bound on ||S11^-1||_F that certified the cut.
    Otherwise a values-only SVD of R decides, inverse is None, and with
    reveal an R22 above the cut raises. A non-finite R (Res beyond double
    range) raises.

    lead = (k, a) says that S[:k, :k] = A, with ||A^-1||_F <= a, is
    certified already. Then S11 = [[A, B], [0, C]], and ||S11^-1||_F^2 =
    ||A^-1||^2 + ||C^-1||^2 + ||A^-1 B C^-1||^2 <= a^2 + c^2 + (a b c)^2
    with b = ||B||_F and c = ||C^-1||_F, so only C goes to LAPACK trtri.
    The trtri of all of S11 runs only when that bound misses the margins.
    """
    if not np.isfinite(R).all():
        raise RankAmbiguousError(
            "Res overflows double precision: its pivoted QR has a non-finite entry")
    d = np.abs(R.diagonal())
    if d[0] > 0.0:
        S = R / d[0]
        rank = int(np.count_nonzero(d > TOL_RANK * d[0]))
        upper = np.linalg.norm(S[rank:, rank:])
        floor = 10 * TOL_RANK * np.linalg.norm(S)
        margin = 1e3 * GAP_RATIO * upper
        inverse = np.inf
        if lead is not None and lead[0] <= rank:
            k, a = lead
            # Python floats: a product beyond the float range is inf
            c = (float(np.linalg.norm(scipy.linalg.lapack.ztrtri(S[k:rank, k:rank])[0]))
                 if k < rank else 0.0)
            abc = a * float(np.linalg.norm(S[:k, k:rank])) * c
            inverse = (a * a + c * c + abc * abc) ** 0.5
        if not (1.0 / inverse > floor and 1.0 / inverse >= margin):
            inverse = np.linalg.norm(scipy.linalg.lapack.ztrtri(S[:rank, :rank])[0])
        lower = 1.0 / inverse
        if lower > floor and 10 * upper <= TOL_RANK and lower >= margin:
            return rank, (float(lower * d[0]), float(upper * d[0])), float(inverse)
    s = np.linalg.svd(R, compute_uv=False)
    rank = _rank(s)
    cut = TOL_RANK * s[0]
    r22 = np.linalg.norm(R[rank:, rank:])
    if reveal and r22 > cut:
        raise RankAmbiguousError(
            f"rank not revealed: the trailing block of the pivoted QR has "
            f"norm {r22:.3e} above the cut {cut:.3e}"
        )
    return rank, tuple(float(x) for x in np.r_[np.inf, s, 0.0][rank:rank + 2]), None


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


def _unmqr(trans, qr, tau, c):
    """Q c (trans "N") or Q^H c (trans "C"), Q the unitary of a geqp3;
    in place on a Fortran-ordered c."""
    c = np.asfortranarray(c)
    lwork = scipy.linalg.lapack.zunmqr("L", trans, qr, tau, c, -1)[1][0]
    return scipy.linalg.lapack.zunmqr(
        "L", trans, qr, tau, c, int(lwork.real), overwrite_c=True)[0]


def _tall(shape):
    return shape[0] >= shape[1] > 0


def _one_level(shape):
    """The plan of a staircase of one level: all of Res, in its order."""
    return slice(None), [(slice(None), slice(None))], [shape]


def _chain(res, step, shift):
    """The staircase plan of a tall Res at beta down the chain of degrees
    beta - j step, j = 0, 1, ...: (order, takes, bounds).

    Level j is Res at beta - j step. Multiplying by x^(j b0), b0 = shift
    the first point of S_step, carries its row x^a to the row x^(j b0) x^a
    of Res at beta and its column x^c of block i to the column x^(j b0)
    x^c of block i; those columns vanish off those rows, and level j + 1
    sits inside level j the same way. In the nested order the rows and
    columns of the innermost level come first, then those each level
    adds. order is that order of the rows; bounds[i] the rows and
    columns of the i-th level from the inside, so bounds[-1] is the
    shape of Res; takes[i] indexes Res at the rows level i adds and at
    every column from those it adds on, in nested order. Those rows are
    zero in the columns of the levels inside.

    Levels go down while Res at the next degree has columns and at least
    as many rows, but no more than _LEVEL_ASPECT times as many. A level
    finalizes at most as many rows as it has columns, yet carries the
    rest of its rows up and applies its reflectors to every column
    ahead; a taller level costs more in copies and LAPACK calls than the
    rows it finalizes save.
    """
    fan = res.rows.degree.fan
    starts = np.cumsum([0] + res.block_widths())
    rows, cols = [np.arange(res.shape[0])], [np.arange(res.shape[1])]
    while True:
        j = len(rows)
        below = graded_basis(fan, res.rows.degree - j * step)
        blocks = [graded_basis(fan, b.degree - j * step) for _, b in res.col_blocks]
        shape = len(below), sum(map(len, blocks))
        if not 0 < shape[1] <= shape[0] <= _LEVEL_ASPECT * shape[1]:
            break
        rows.append(res.rows.rows(below.points + j * shift))
        cols.append(np.concatenate([start + top.rows(low.points + j * shift)
                                    for start, (_, top), low
                                    in zip(starts, res.col_blocks, blocks)]))
    if len(rows) == 1:
        return _one_level(res.shape)
    bounds = [(len(r), len(c)) for r, c in zip(rows[::-1], cols[::-1])]
    # each level's rows and columns in Res order, those of the level
    # inside it taken out
    order = np.concatenate([rows[-1]] + [np.setdiff1d(r, s, assume_unique=True)
                                         for r, s in zip(rows[-2::-1], rows[:0:-1])])
    col_order = np.concatenate([cols[-1]] + [np.setdiff1d(c, s, assume_unique=True)
                                             for c, s in zip(cols[-2::-1], cols[:0:-1])])
    takes, m0, n0 = [], 0, 0
    for m1, n1 in bounds:
        takes.append(np.ix_(order[m0:m1], col_order[n0:]))
        m0, n0 = m1, n1
    return order, takes, bounds


def _staircase_plan(res, block):
    """(plan of res, plan of block), kept by the fan per row and column
    bases of res and block (the bases the fan keeps, so a repeat call
    builds no key of degrees).

    block is Res one degree alpha0 below res. The plan of res is _chain's
    down by alpha0 when res is tall, else None. When it has more than one
    level, its second level is block, whose corank the staircase
    certifies on the way. The plan of block is needed, and made, only
    when block is tall and is no level of res's staircase.

    Raises:
        InputError: alpha0 has no sections, or block is not Res at the
            degree of res minus alpha0 for the same equation degrees.
    """
    fan = res.rows.degree.fan
    key = ("staircase", res.rows, block.rows, tuple(res.col_blocks),
           tuple(block.col_blocks))

    def build():
        step = res.rows.degree - block.rows.degree
        between = graded_basis(fan, step)
        if (len(between) == 0 or [b.degree.a for _, b in block.col_blocks]
                != [(b.degree - step).a for _, b in res.col_blocks]):
            raise InputError("the block is not Res at a degree below this one")
        shift = between.points[0]
        top = _chain(res, step, shift) if _tall(res.shape) else None
        low = None
        if (top is None or len(top[2]) == 1) and _tall(block.shape):
            low = _chain(block, step, shift)
        return top, low
    return fan.kept(key, build)


def _staircase(A, plan, block=None):
    """Column-pivoted QR of a tall A, one level of its staircase at a
    time: (R, levels, below, lead).

    A is taken in the plan's nested order, innermost level first. Level
    by level, geqp3 factors W, what the levels inside leave of this
    level's columns: the rows past the split of the level inside, with
    the trailing triangle of its R and the reflected columns, over the
    new rows, zero there. Its reflectors are applied once to the columns
    ahead. The level's first rows, as far as its |diagonal| runs above
    TOL_RANK |r_11|, are final rows of R; the rest go up into the next W.
    The top level is split nowhere. So A P = Q R with R the n x n
    triangle of the final rows and Q the product of the levels'
    unitaries, level i acting on the rows levels[i][2]:levels[i][3] of
    the nested order, innermost first. A plan of one level is one geqp3
    of all of A.

    With block, the ResMatrix of the second level from the top, that
    level's R is certified (_qr_rank, corank only) before its split: the
    split is at its rank, below is the block's CokernelMap, and lead =
    (rank, ||S11^-1||_F bound) lets _qr_rank certify the top from it.
    Otherwise below and lead are None.
    """
    m, n = A.shape
    _, takes, bounds = plan
    R = np.zeros((n, n), dtype=complex)
    levels, below, lead = [], None, None
    r0 = m0 = n0 = k = w = 0
    for i, ((m1, n1), take) in enumerate(zip(bounds, takes)):
        carried = m0 - r0
        # a Fortran-ordered array of our own, so LAPACK may overwrite it
        W = np.zeros((m1 - r0, n - r0), dtype=complex, order="F")
        if carried:
            W[:carried, :n0 - r0] = np.triu(qr[k:, k:w])
            W[:carried, n0 - r0:] = turned[k:]
        W[carried:, n0 - r0:] = A[take]
        w = n1 - r0
        # in place on the leading columns, which are Fortran-contiguous
        qr, jpvt, tau = _geqp3(W[:, :w])
        if r0:
            R[:r0, r0:n1] = R[:r0, r0:n1][:, jpvt - 1]
        levels.append((qr, tau, r0, m1))
        if n1 == n:
            R[r0:, r0:] = np.triu(qr[:w])
            return R, levels, below, lead
        turned = _unmqr("C", qr, tau, W[:, w:])
        if i == 0:
            cut = TOL_RANK * abs(qr[0, 0])
        if block is not None and i == len(bounds) - 2:
            R[r0:n1, r0:n1] = np.triu(qr[:w])
            rank, rank_bounds, inverse = _qr_rank(R[:n1, :n1], False)
            below = CokernelMap(None, m1 - rank, None, rank_bounds, block)
            lead = None if inverse is None else (rank, inverse)
            k = min(max(rank - r0, 0), w)
        else:
            above = np.abs(qr.diagonal()) > cut
            k = w if above.all() else int(above.argmin())
        R[r0:r0 + k, r0:n1] = np.triu(qr[:k, :w])
        R[r0:r0 + k, n1:] = turned[:k]
        r0, m0, n0 = r0 + k, m1, n1


def _cokernel(res, corank_only, plan, block=None):
    """cokernel of res, on the staircase plan when res is tall; the
    block's map is certified on the way when block is its second level."""
    A = res.matrix
    nrows, ncols = A.shape
    if ncols == 0:
        N = None if corank_only else np.eye(nrows, dtype=complex)
        return CokernelMap(N, nrows, np.zeros((0, 0), dtype=complex), (), res)
    if nrows < ncols:
        qr, jpvt, _ = _geqp3(A.conj().T)
        R = np.triu(qr[:nrows])
        rank, bounds, _ = _qr_rank(R, not corank_only)
        if corank_only:
            return CokernelMap(None, nrows - rank, R, bounds, res)
        null = np.vstack([
            scipy.linalg.solve_triangular(R[:rank, :rank], -R[:rank, rank:]),
            np.eye(nrows - rank),
        ])
        basis = np.empty((nrows, nrows - rank), dtype=complex)
        basis[jpvt - 1] = np.linalg.qr(null)[0]
        return CokernelMap(basis.conj().T, nrows - rank, R, bounds, res)

    R, levels, below, lead = _staircase(A, plan, block)
    try:
        rank, bounds, _ = _qr_rank(R, not corank_only, lead)
    except RankAmbiguousError:
        if len(levels) == 1:
            raise
        plan = _one_level(A.shape)
        R, levels, _, _ = _staircase(A, plan)
        rank, bounds, _ = _qr_rank(R, not corank_only)
    N = None
    if not corank_only:
        # N^H = Q E, E the unit vectors past the rank: each level's Q on
        # its own rows of the nested order, the top level's first
        X = np.eye(nrows, nrows - rank, -rank, dtype=complex, order="F")
        for qr, tau, lo, hi in reversed(levels):
            X[lo:hi] = _unmqr("N", qr, tau, X[lo:hi])
        N = np.empty((nrows - rank, nrows), dtype=complex)
        N[:, plan[0]] = X.conj().T
    return CokernelMap(N, nrows - rank, R, bounds, res, below)


def cokernel(res, corank_only=False, block=None):
    """Compute the cokernel of Res with a certified rank decision.

    The rank is the number of singular values above TOL_RANK * sigma_1 and
    the corank is counted against the row dimension, so a matrix with few
    columns exposes its structural cokernel too.

    Every path makes a column-pivoted QR (LAPACK geqp3) of the tall
    orientation B of Res: Res itself when it has at least as many rows as
    columns, Res^H otherwise. B P = Q R, so the square triangular factor
    R has the singular values of Res. _qr_rank certifies the cut on
    |diag R| from R; a values-only SVD of R runs only when that fails or
    CokernelMap.singular_values is read. With R11 the leading rank x rank
    block of R, R12 beside it and R22 the trailing block, the full path
    builds N from the same QR, with no U:

    - tall Res: the left null space is spanned by the trailing columns
      of Q, the product of the staircase levels' unitaries: LAPACK unmqr
      applies each level's to its own rows of those unit vectors;
    - wide Res: the left null space is the null space of B, which is P
      times the null space of [R11 R12], spanned by [-R11^{-1} R12; I].

    Both bases treat R22 as zero, so N Res is as small as R22. Pivoted
    QR keeps R22 near the discarded singular values on all but contrived
    matrices; when it does not, the full path raises instead of returning
    an N that misses the image. With corank_only, N is None and only that
    guard is skipped.

    Staircase: block is Res at alpha, one degree alpha0 below res. res
    holds it, times a monomial x^b0 of S_alpha0, as a column block that
    vanishes off its rows; Res at alpha - alpha0 sits in block the same
    way, and so on down the chain (_chain). A tall res is factored one
    level of that staircase at a time (_staircase): each QR takes only a
    level's new columns and the rows the levels inside leave. The cut at
    alpha, the block's corank, is certified on the way; the cut at the
    top reuses that certificate and inverts only the top level's own
    R11. Each proof uses only Res P = Q R, whichever pivots were chosen.
    If the top cut raises, one QR of all of res runs instead. With one
    level (no block, or a block without columns, wide, or more than
    _LEVEL_ASPECT times as tall as wide) the QR is of all of res, and a
    block that is no level of res is factored on its own. The block's
    map is the block attribute of the result.

    Raises:
        RankAmbiguousError: the singular values straddling the cut differ
            by less than GAP_RATIO, so the corank is not trustworthy;
            Res overflows double precision in the QR; or (full path) R22
            exceeds the cut: the QR does not reveal the rank. Either of
            the two cuts, at res or at block, may raise.
        InputError: block is not Res at a degree below res's by a
            degree with sections, for the same equation degrees.
    """
    if block is None:
        return _cokernel(res, corank_only, _one_level(res.shape))
    top, low = _staircase_plan(res, block)
    cok = _cokernel(res, corank_only, top, block)
    if cok.block is None:
        cok.block = _cokernel(block, True, low)
    return cok


class MultiplicationFamily:
    """Commuting multiplication matrices M_{x^b / h_0} for b in S_alpha0.

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
    if not d.max() <= COND_MAX * d.min():
        return np.inf
    inverse, info = scipy.linalg.lapack.ztrtri(R11)
    upper = np.linalg.norm(R11) * np.linalg.norm(inverse)
    if info == 0 and upper <= COND_MAX:
        return float(upper)
    return float(np.linalg.cond(sub))


def _gather_plan(fan, alpha, alpha0):
    """(S_alpha, S_alpha0, gather) for a degree pair, kept by the fan:
    gather[j, a] is the row of S_{alpha+alpha0} holding x^b_j x^a, for
    b_j in S_alpha0 and a in S_alpha; the section polytopes add, so no
    index is -1."""
    alpha, alpha0 = as_divisor(fan, alpha), as_divisor(fan, alpha0)

    def build():
        s_alpha, s_alpha0 = graded_basis(fan, alpha), graded_basis(fan, alpha0)
        rows = graded_basis(fan, alpha + alpha0)
        return (s_alpha, s_alpha0,
                rows.rows(s_alpha0.points[:, None] + s_alpha.points[None]))
    return fan.kept(("gather", alpha.a, alpha0.a), build)


def multiplication_family(cok, system, pair, seed=0):
    """Build the multiplication matrices from a cokernel at alpha + alpha0.

    The monomial maps N_b: S_alpha -> C^delta are exact column gathers of
    N, all in one: x^b x^a is the monomial of S_{alpha+alpha0} at the
    point m_b + m_a. The bases and that gather index depend on the pair
    alone, so the fan keeps them per pair (_gather_plan). h_0 is a
    random complex Gaussian combination over S_alpha0, and the
    invertible restriction is chosen by column-pivoted QR on N_{h_0}
    (LAPACK geqp3). One LU factorization of that restriction and one
    solve on the right-hand sides of every member, side by side (LAPACK
    getrf and getrs), give the whole family as one stacked array.

    Args:
        cok: CokernelMap computed at degree alpha + alpha0.
        system: the HomogeneousSystem.
        pair: (alpha, alpha0) as DivisorClass or representative vectors,
            or any object with .alpha / .alpha0 attributes.
        seed: seeds the h_0 draw; retries continue the same stream.

    Raises:
        BasepointError: every one of the 1 + RETRIES_MAX h_0 draws had a
            restriction conditioned worse than COND_MAX, which is the
            symptom of alpha0 having basepoints on the solution set.
    """
    if hasattr(pair, "alpha"):
        alpha, alpha0 = pair.alpha, pair.alpha0
    else:
        alpha, alpha0 = pair
    s_alpha, s_alpha0, idx = _gather_plan(system.fan, alpha, alpha0)
    rows = cok.res.rows
    expected = tuple(map(operator.add, s_alpha.degree.a, s_alpha0.degree.a))
    if tuple(rows.degree.a) != expected:
        raise InputError(
            f"cokernel degree {tuple(rows.degree.a)} does not match "
            f"alpha + alpha0 = {expected}"
        )

    delta = cok.delta_plus
    if len(s_alpha0) == 0:
        raise InputError("S_alpha0 is empty: nothing to multiply by")
    if len(s_alpha) < delta:
        raise InputError(
            f"dim S_alpha = {len(s_alpha)} < delta_plus = {delta}; "
            "the pair cannot carry an invertible restriction"
        )

    if delta == 0:
        empty = np.zeros((len(s_alpha0), 0, 0), dtype=complex)
        coeffs = np.zeros(len(s_alpha0), dtype=complex)
        return MultiplicationFamily(empty, (), coeffs, s_alpha0, 0, 0.0)

    # one gather for all N_b (stack[j] = N_{b_j})
    stack = cok.N[:, idx].transpose(1, 0, 2)

    # h_0 and its retries continue one stream of the seed (_draws)
    for coeffs in _draws(seed, 1, len(s_alpha0), RETRIES_MAX + 1):
        # np.tensordot(coeffs, stack, axes=(0, 0)) without its wrapper: the
        # same dot of coeffs, as one row, against the flattened members
        n_h0 = np.dot(coeffs.reshape(1, -1),
                      stack.reshape(len(coeffs), -1)).reshape(stack.shape[1:])
        # geqp3 overwrites its argument: a Fortran copy of n_h0
        qr, jpvt, _ = _geqp3(np.array(n_h0, order="F"))
        columns = tuple(sorted((jpvt[:delta] - 1).tolist()))
        sub = n_h0[:, columns]
        cond = _restriction_cond(np.triu(qr[:delta, :delta]), sub)
        if cond <= COND_MAX:
            break
    else:
        raise BasepointError(
            f"no well-conditioned multiplier after {RETRIES_MAX + 1} draws; "
            "alpha0 may have basepoints on the solution set"
        )

    # members side by side as one right-hand side (delta x members * delta)
    members = len(s_alpha0)
    rhs = stack[:, :, columns].transpose(1, 0, 2).reshape(delta, -1)
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
    if np.count_nonzero(near) == len(values):  # every value its own cluster
        return index
    # min-label propagation: every label stays the index of a value in
    # its own component, so the fixed point is the component's first index
    labels = index
    while True:
        new = np.where(near, labels[None, :], len(values)).min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    # a component's first index labels itself; count those up to each label
    return (np.cumsum(labels == index) - 1)[labels]


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
        if np.all(labels[:-1] <= labels[1:]):
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
    return np.linalg.norm(Tb[..., labels[:, None] > labels[None, :]], axis=-1)


_GAP_CEILING = 0.1


def schur_cluster(family, seed=0):
    """Cluster the joint spectrum of a multiplication family.

    Takes the complex Schur form of a random member M_{h/h_0}, groups
    nearby diagonal values, reorders them into contiguous blocks with
    LAPACK trsen, and reads every member through the same unitary Z:
    one batched product Z^H M Z over the family's stack, one masked norm
    for every member's leakage and one reduceat over the diagonals for
    all the tables.

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
    delta = family.delta_plus
    (driver_coeffs,) = _draws(seed, 2, len(mons), 1)
    if delta == 0:
        return SchurClustering((), np.zeros((0, len(mons)), dtype=complex),
                               0.0, CLUSTER_GAP)

    M = family.combination(driver_coeffs)
    T0, Z0 = _gees(M)
    norms = np.maximum(1.0, np.linalg.norm(family.stack, axis=(1, 2)))

    gap = CLUSTER_GAP
    while True:
        labels = _cluster_labels(T0.diagonal(), gap)
        _, Z, labels = _reorder(T0, Z0, labels)
        bounds = np.concatenate(([True], labels[1:] != labels[:-1], [True])).nonzero()[0]
        starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]

        Tb = Z.conj().T @ family.stack @ Z
        by_member = _below_block_norm(Tb, labels) / norms
        diag = Tb.diagonal(axis1=1, axis2=2)
        tables = (np.add.reduceat(diag, starts, axis=1) / sizes).T
        leakage = float(by_member.max())
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
