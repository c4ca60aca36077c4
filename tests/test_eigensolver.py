"""Res assembly, cokernel ranks, multiplication matrices, Schur clusters."""

import functools
import re
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricsolve import eigensolver
from toricsolve.cox import CoxPolynomial, HomogeneousSystem, graded_basis, homogenize
from toricsolve.eigensolver import (
    COND_MAX,
    DRAWS_MAX,
    GAP_RATIO,
    LEAK_TOL,
    RETRIES_MAX,
    TOL_RANK,
    _LEVEL_ASPECT,
    CokernelMap,
    ResMatrix,
    _below_block_norm,
    _cluster_labels,
    _qr_rank,
    _rank,
    _reorder,
    _restriction_cond,
    _staircase,
    _staircase_plan,
    assemble_res,
    cokernel,
    multiplication_family,
    schur_cluster,
)
from toricsolve.errors import BasepointError, InputError, RankAmbiguousError
from toricsolve.formats import load_system_file
from toricsolve.lattice import Polytope
from toricsolve.regularity import improved_pair, user_pair, verify_pair
from toricsolve.solver import solve

from systems import (
    DIAMOND,
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    OVERFLOW_LAURENT,
    P2_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    WP112_RAYS,
    assemble_res_reference,
    cluster_labels_reference,
    draws_reference,
    intro_laurent,
    lines27_laurent,
    mixed_volume,
    pillow_fan,
    pillow_laurent,
)

P1_RAYS = [(1,), (-1,)]


def p1_system(terms):
    return homogenize([terms], rays=P1_RAYS)


def lines27_system(seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    return homogenize(lines27_laurent(c), rays=LINES27_RAYS)


# --------------------------------------------------------------- assembly

def test_res_shape_27lines():
    system = lines27_system()
    res = assemble_res(system, (0, 0, 5, 5, 0, 0))
    assert res.shape == (441, 552)
    assert res.block_widths() == [126, 126, 150, 150]
    res_hi = assemble_res(system, (0, 0, 7, 7, 0, 0))
    assert res_hi.shape == (1296, 2256)
    assert res_hi.block_widths() == [540, 540, 588, 588]


def test_res_single_equation_on_line():
    # x1 - x2 at degree 1: one column, rows ordered x2 then x1
    system = p1_system([((1,), 1.0), ((0,), -1.0)])
    res = assemble_res(system, (0, 1))
    assert res.rows.monomials == [(0, 1), (1, 0)]
    assert np.array_equal(res.matrix, np.array([[-1.0], [1.0]]))


def test_res_degree_too_low():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    with pytest.raises(InputError):
        assemble_res(system, (0, 0, 0, 0))


def test_res_pillow_shape():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    res = assemble_res(system, (3, 3, 3, 3))
    assert res.shape == (25, 26)
    assert res.block_widths() == [13, 13]


def reference_res(system, beta):
    """Res by exponent arithmetic, one entry at a time: for every column
    x^c of every block and every term x^b of f_i, add the coefficient at
    the row found by looking up the exponent b + c."""
    fan = system.fan
    rows = graded_basis(fan, beta)
    blocks = [graded_basis(fan, tuple(x - y for x, y in zip(rows.degree.a, div.a)))
              for div in system.degrees]
    matrix = np.zeros((len(rows), sum(len(b) for b in blocks)), dtype=complex)
    col = 0
    for f, block in zip(system.polys, blocks):
        for cexp in block.monomials:
            for bexp, coeff in f.terms():
                matrix[rows.position(tuple(x + y for x, y in zip(bexp, cexp))), col] += coeff
            col += 1
    return matrix


def random_system(rng, supports, rays):
    return homogenize(
        [[(e, complex(*rng.standard_normal(2))) for e in s] for s in supports], rays=rays)


def test_res_matches_reference_assembler():
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    wp112 = [(0, 0), (1, 0), (2, 0), (0, 1)]
    # the WP(1,1,2) pair has alpha = (1, 0, 0), where both blocks are empty
    systems = [
        homogenize(pillow_laurent(), rays=PILLOW_RAYS),
        lines27_system(),
        random_system(rng, [p2_dense, p2_dense], P2_RAYS),
        random_system(rng, [wp112, wp112], WP112_RAYS),
    ]
    for system in systems:
        pair = improved_pair(system)
        for beta, allow_empty in ((pair.alpha, True), (pair.top, False)):
            res = assemble_res(system, beta, allow_empty=allow_empty)
            assert np.array_equal(res.matrix, reference_res(system, beta))


def test_res_missing_row_raises():
    # f lives in degree (1,1,1,1) but the system claims degree 0, so the
    # products f * S_(1,1,1,1) leave S_(1,1,1,1): no entry may land on row -1
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    f = CoxPolynomial(basis, np.arange(1, len(basis) + 1))
    system = HomogeneousSystem(fan, [f], [fan.divisor((0, 0, 0, 0))])
    with pytest.raises(InputError):
        assemble_res(system, (1, 1, 1, 1))


def test_wrong_degree_raises_on_every_call():
    """A polynomial off its claimed degree raises on the call that builds
    the fan's plan and on every call that reuses it. One whose nonzero
    terms all land is assembled as before, from the same plan."""
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    f = CoxPolynomial(basis, np.arange(1, len(basis) + 1))
    system = HomogeneousSystem(fan, [f], [fan.divisor((0, 0, 0, 0))])
    for _ in range(2):
        with pytest.raises(InputError, match="equation 0 does not have degree"):
            assemble_res(system, (1, 1, 1, 1))
    # the center of the diamond lands in S_(1,1,1,1) times S_0 = C
    center = np.zeros(len(basis))
    center[basis.rows(np.array([0, 0]))] = 2.0
    lands = HomogeneousSystem(fan, [CoxPolynomial(basis, center)],
                              [fan.divisor((0, 0, 0, 0))])
    for _ in range(2):
        assert np.array_equal(assemble_res(lands, (1, 1, 1, 1)).matrix,
                              assemble_res_reference(lands, (1, 1, 1, 1)).matrix)
    with pytest.raises(InputError, match="equation 0 does not have degree"):
        assemble_res(system, (1, 1, 1, 1))


# --------------------------------------------------------------- cokernel

# both paths make the same pivoted QR and take the same certified cut; the
# corank-only path skips the basis and the guard that protects it
BOTH_PATHS = pytest.mark.parametrize("corank_only", [False, True],
                                     ids=["full", "corank_only"])


@BOTH_PATHS
def test_cokernel_pillow_corank(corank_only):
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    res = assemble_res(system, (3, 3, 3, 3))
    # independent exact-arithmetic oracle: entries are small integers
    exact = sympy.Matrix(res.matrix.real.astype(int).tolist())
    assert exact.rank() == 21
    cok = cokernel(res, corank_only=corank_only)
    assert cok.delta_plus == 4
    sigma1 = cok.singular_values[0]
    if corank_only:
        assert cok.N is None
    else:
        assert cok.N.shape == (4, 25)
        # rows orthonormal and N * Res numerically zero
        assert np.allclose(cok.N @ cok.N.conj().T, np.eye(4), atol=1e-12)
        assert np.linalg.norm(cok.N @ res.matrix, 2) <= 10 * TOL_RANK * sigma1
    # same corank one multiplier lower
    res_low = assemble_res(system, (2, 2, 2, 2))
    assert res_low.shape == (13, 10)
    assert cokernel(res_low, corank_only=corank_only).delta_plus == 4


@BOTH_PATHS
def test_cokernel_27lines_corank(corank_only):
    system = lines27_system()
    res = assemble_res(system, (0, 0, 5, 5, 0, 0))
    cok = cokernel(res, corank_only=corank_only)
    assert cok.delta_plus == 45
    if not corank_only:
        sigma1 = cok.singular_values[0]
        assert np.linalg.norm(cok.N @ res.matrix, 2) <= 10 * TOL_RANK * sigma1


@BOTH_PATHS
def test_cokernel_zero_system_is_identity(corank_only):
    fan = pillow_fan()
    system = HomogeneousSystem(fan, [], [])
    res = assemble_res(system, (1, 1, 1, 1))
    assert res.shape == (5, 0)
    cok = cokernel(res, corank_only=corank_only)
    assert cok.delta_plus == 5
    if corank_only:
        assert cok.N is None
    else:
        assert np.array_equal(cok.N, np.eye(5))


def _crafted_without_gap():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    res = assemble_res(system, (3, 3, 3, 3))
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((25, 25))
                        + 1j * rng.standard_normal((25, 25)))
    v, _ = np.linalg.qr(rng.standard_normal((26, 26))
                        + 1j * rng.standard_normal((26, 26)))
    # smooth geometric decay: no spectral gap anywhere near the cut
    s = np.logspace(0, -12, 25)
    return ResMatrix(res.rows, res.col_blocks,
                     u @ (s[:, None] * v[:25].conj()))


@BOTH_PATHS
def test_cokernel_ambiguous_rank(corank_only):
    crafted = _crafted_without_gap()
    with pytest.raises(RankAmbiguousError) as info:
        cokernel(crafted, corank_only=corank_only)
    # both paths raise the same message: the same cut on the same values
    with pytest.raises(RankAmbiguousError) as other:
        cokernel(crafted, corank_only=not corank_only)
    assert str(info.value) == str(other.value)


def test_cokernel_paths_agree_on_singular_values():
    system = lines27_system()
    res = assemble_res(system, (0, 0, 5, 5, 0, 0))
    full, only = cokernel(res), cokernel(res, corank_only=True)
    assert full.delta_plus == only.delta_plus
    assert np.allclose(full.singular_values, only.singular_values,
                       rtol=1e-12, atol=1e-13 * full.singular_values[0])


def svd_cokernel(res):
    """The reference: the trailing left singular vectors of a full SVD of
    Res, cut where cokernel cuts."""
    A = res.matrix
    U, s, _ = np.linalg.svd(A, full_matrices=A.shape[0] > A.shape[1])
    return U[:, _rank(s):].conj().T, s


def _exact_cokernel(A, N):
    """N moved onto the exact left null space of A, up to the rounding of
    its own entries: two steps N -= (N A) A^+, with A^+ cut at the rank
    len(A) - len(N) and N A formed in extended precision."""
    r = len(A) - len(N)
    U, s, Vh = np.linalg.svd(A)
    pinv = (Vh[:r].conj().T / s[:r]) @ U[:, :r].conj().T
    ext = np.clongdouble
    for _ in range(2):
        N = N - (N.astype(ext) @ A.astype(ext)).astype(complex) @ pinv
    return N


def _top_res(name):
    rng = np.random.default_rng(5)
    if name == "pillow":
        # the default pair: the improved one has a tall 12 x 8 Res
        system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
        return assemble_res(system, user_pair(system, (2, 2, 2, 2), (1, 1, 1, 1)).top)
    if name == "lines27":
        system = lines27_system()
    elif name == "P2 degree 6":
        p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
        system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    else:
        wp112 = [(0, 0), (1, 0), (2, 0), (0, 1)]
        system = random_system(rng, [wp112, wp112], WP112_RAYS)
    return assemble_res(system, improved_pair(system).top)


# Res at alpha + alpha0: pillow 25 x 26 (its default pair) and lines27
# 441 x 552 are wide, P^2 degree 6 78 x 42 and WP(1,1,2) 6 x 4 are tall
@pytest.mark.parametrize("name", ["pillow", "lines27", "P2 degree 6", "WP112"])
def test_cokernel_matches_svd_reference(name):
    res = _top_res(name)
    assert (res.shape[0] < res.shape[1]) == (name in ("pillow", "lines27"))
    cok = cokernel(res)
    ref, s = svd_cokernel(res)
    assert cok.delta_plus == len(ref) > 0
    assert np.allclose(cok.singular_values, s, rtol=1e-12, atol=1e-13 * s[0])
    N = cok.N
    assert N.shape == ref.shape
    assert np.linalg.norm(N @ res.matrix, 2) <= 10 * TOL_RANK * s[0]
    assert np.allclose(N @ N.conj().T, np.eye(len(N)), atol=1e-12)
    angles = scipy.linalg.subspace_angles(N.conj().T, ref.conj().T)
    assert angles.max() <= 1e-8
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        # N is as accurate as the SVD's cokernel: its largest angle to
        # the exact one is at most twice the SVD's (0.56 times on lines27)
        exact = _exact_cokernel(res.matrix, ref).conj().T
        error = [scipy.linalg.subspace_angles(B.conj().T, exact).max()
                 for B in (N, ref)]
        assert error[0] <= 2 * error[1]


def _kahan(n, c=0.3):
    """Kahan's triangular matrix, columns shrunk by 1e-10 per index so
    that column pivoting keeps their order. Its last singular value is far
    below its last diagonal entry: pivoted QR does not reveal its rank."""
    k = (np.diag(np.sqrt(1 - c * c) ** np.arange(n))
         @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1)))
    return (k * (1 - 1e-10 * np.arange(n))).astype(complex)


@pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
def test_cokernel_kahan_raises(tall):
    k = np.vstack([_kahan(64), np.zeros((1, 64))])
    crafted = ResMatrix(None, [], k if tall else k.conj().T)
    # the SVD sees a clean gap: sigma_64 / sigma_1 is about 1e-9, and
    # sigma_63 / sigma_64 about 1e7
    ref, s = svd_cokernel(crafted)
    assert len(ref) == (2 if tall else 1)
    assert s[-1] < 1e-8 * s[0] < s[-2] / 1e3
    # but R22 = r_64,64, near 7.5e-3, is far above the cut
    with pytest.raises(RankAmbiguousError, match="rank not revealed") as info:
        cokernel(crafted)
    assert f"above the cut {1e-8 * s[0]:.3e}" in str(info.value)
    assert cokernel(crafted, corank_only=True).delta_plus == len(ref)


def _planted(seed, rows, cols, kept, decay, gap):
    """Res-shaped rows x cols matrix U diag(s) V^H: `kept` values from 1
    down to 10^-decay, then the rest 10^-gap below the last kept value
    (exact zeros when gap is None)."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    s = np.logspace(0, -decay, kept)
    tail = np.zeros(k - kept) if gap is None else s[-1] * 10.0 ** -gap * np.logspace(0, -1, k - kept)
    u = np.linalg.qr(rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, k)) + 1j * rng.standard_normal((cols, k)))[0]
    return ResMatrix(None, [], (u * np.r_[s, tail]) @ v.conj().T)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(2, 30),
       cols=st.integers(2, 30), kept=st.integers(1, 29),
       decay=st.floats(0, 7.5), gap=st.one_of(st.none(), st.floats(0, 16)),
       corank_only=st.booleans())
# inside the certificate's margin, so the SVD decides: a gap of 10^5.5
# clears GAP_RATIO but not 1e3 * GAP_RATIO; a last kept value 3e-8 clears
# the cut but not tenfold; a gap of 10 is ambiguous
@example(seed=1, rows=20, cols=12, kept=8, decay=6.0, gap=5.5, corank_only=False)
@example(seed=2, rows=9, cols=25, kept=5, decay=7.5, gap=8.0, corank_only=True)
@example(seed=3, rows=14, cols=14, kept=9, decay=7.5, gap=1.0, corank_only=False)
def test_certified_cut_matches_svd_rank(seed, rows, cols, kept, decay, gap,
                                        corank_only):
    assume(kept < min(rows, cols))
    res = _planted(seed, rows, cols, kept, decay, gap)
    s = np.linalg.svd(res.matrix, compute_uv=False)
    # a value within rounding of the cut, or a ratio within rounding of
    # GAP_RATIO, may fall either way between the SVDs of Res and of R
    assume(not np.isclose(s, TOL_RANK * s[0], rtol=1e-6, atol=0.0).any())
    r = int(np.sum(s > TOL_RANK * s[0]))
    assume(not (0 < r < len(s)
                and np.isclose(s[r - 1], GAP_RATIO * s[r], rtol=1e-6, atol=0.0)))
    try:
        want = rows - _rank(s)
    except RankAmbiguousError as ref:
        with pytest.raises(RankAmbiguousError) as info:
            cokernel(res, corank_only=corank_only)
        # the same message, its two values equal to their last printed digit
        number = r"\d\.\d+e[+-]\d+"
        got, want_msg = str(info.value), str(ref)
        assert re.sub(number, "#", got) == re.sub(number, "#", want_msg)
        assert np.allclose([float(x) for x in re.findall(number, got)[:2]],
                           [float(x) for x in re.findall(number, want_msg)[:2]],
                           rtol=1e-3, atol=0.0)
        return
    # a tail just under the cut can leave R22 above it while the SVD sees
    # a clean gap: the Kahan case below, not a property of the certificate
    assume(corank_only or not TOL_RANK / 1e3 < s[kept] / s[0] <= TOL_RANK)
    cok = cokernel(res, corank_only=corank_only)
    assert cok.delta_plus == want
    # the bounds bracket the singular values either side of the cut
    r, slack = rows - want, 1e-13 * s[0]
    lower, upper = cok.rank_bounds
    assert lower <= s[r - 1] + slack
    assert upper >= (s[r] if r < len(s) else 0.0) - slack


@pytest.mark.parametrize("gap, exact", [(None, False), (5.5, True)],
                         ids=["certified", "inside the margin"])
def test_rank_bounds_certificate_or_exact(gap, exact):
    res = _planted(1, 20, 12, 8, 6.0, gap)
    s = np.linalg.svd(res.matrix, compute_uv=False)
    cok = cokernel(res)
    assert cok.delta_plus == 12
    lower, upper = cok.rank_bounds
    if exact:
        # the certificate cannot prove a gap of 10^5.5, so the SVD decided
        assert np.allclose([lower, upper], s[7:9], rtol=1e-12)
    else:
        assert lower >= 1e3 * GAP_RATIO * upper
        assert s[8] <= upper + 1e-13 and lower <= s[7]


# at 1e200 and 1e-200 the squares in the norms of R or of R11^-1 would
# overflow or underflow without the 1 / |r_11| scaling
@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e200, 1e-200])
@pytest.mark.parametrize("corank_only", [False, True], ids=["full", "corank_only"])
def test_certificate_survives_extreme_scale(scale, corank_only):
    res = assemble_res(lines27_system(), (0, 0, 5, 5, 0, 0))
    scaled = ResMatrix(res.rows, res.col_blocks, res.matrix * scale)
    # warnings are errors in this suite: no overflow, underflow or division
    cok = cokernel(scaled, corank_only=corank_only)
    assert cok.delta_plus == 45
    lower, upper = cok.rank_bounds
    assert lower >= 1e3 * GAP_RATIO * upper
    assert 1e-12 * scale < lower < 1e3 * scale


def test_res_beyond_double_range_is_typed():
    with pytest.raises(RankAmbiguousError, match="overflows double precision") as info:
        solve(OVERFLOW_LAURENT)
    assert (info.value.stage, info.value.exit_code) == ("rank", 4)
    system = homogenize(OVERFLOW_LAURENT)
    with pytest.raises(RankAmbiguousError, match="overflows double precision"):
        verify_pair(system, improved_pair(system))


def test_benchmark_shaped_res_certifies_without_svd(monkeypatch):
    svd = np.linalg.svd

    def no_svd_here(*args, **kwargs):
        # recovery's least squares may still use the SVD; the rank may not
        if sys._getframe(1).f_globals["__name__"] == "toricsolve.eigensolver":
            raise AssertionError("the rank cut fell back to an SVD")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", no_svd_here)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert solve(lines27_laurent(c), rays=LINES27_RAYS, seed=1).delta_plus == 45
    cube = [p for p in product(range(4), repeat=3) if sum(p) <= 3]
    dense = [[(p, rng.standard_normal() + 1j * rng.standard_normal()) for p in cube]
             for _ in range(3)]
    assert solve(dense, seed=1).delta_plus == 27


# ------------------------------------ staircase down the alpha0 chain

P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


def _points(vertices):
    return Polytope.from_points(vertices).lattice_points()


DENSE_RAYS = {"P2": P2_RAYS, "P3": P3_RAYS, "P1xP1": DIAMOND,
              "Hirzebruch": HIRZEBRUCH_RAYS, "WP112": WP112_RAYS}


def _sizes(shape):
    """Every size of one equation's support on shape: d for the multiple
    of the fan's polytope, with a second side on P^1 x P^1 and the height
    c <= d on F_1."""
    ds = range(1, 3 if shape == "P3" else 5)
    if shape == "P1xP1":
        return list(product(ds, ds))
    if shape == "Hirzebruch":
        return [(d, c) for d in ds for c in range(1, d + 1)]
    return [(d,) for d in ds]


def _dense_system(rng, shape, sizes):
    """A generic square system on shape, one equation per size, the
    full lattice points of its polytope as support."""
    supports = []
    for size in sizes:
        d = size[0]
        if shape in ("P2", "P3"):
            n = len(sizes)
            vertices = [(0,) * n] + [tuple(d * (i == j) for i in range(n)) for j in range(n)]
        elif shape == "P1xP1":
            vertices = list(product((0, d), (0, size[1])))
        elif shape == "Hirzebruch":
            c = size[1]
            vertices = [(0, 0), (d + 1, 0), (d + 1 - c, c), (0, c)]
        else:
            vertices = [(0, 0), (2 * d, 0), (0, d)]
        supports.append(_points(vertices))
    return random_system(rng, supports, DENSE_RAYS[shape])


def _levels(system):
    """Levels of the staircase of Res at alpha + alpha0, 0 when it is
    wide."""
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha, allow_empty=True)
    top = assemble_res(system, pair.top)
    plan = _staircase_plan(top, low)[0]
    return 0 if plan is None else len(plan[2])


@functools.cache
def _staircase_sizes():
    """(shape, sizes) of every dense_systems support whose staircase has
    two or more levels. The levels follow from the supports alone, so
    one draw of coefficients decides each."""
    return [(shape, sizes) for shape in DENSE_RAYS
            for sizes in product(_sizes(shape), repeat=3 if shape == "P3" else 2)
            if _levels(_dense_system(np.random.default_rng(0), shape, sizes)) > 1]


@st.composite
def dense_systems(draw):
    """Dense generic square systems on P^2, P^3, P^1 x P^1, F_1 and
    P(1,1,2), each equation its own degree: full supports of
    (multiples of) the fan's polytope, Gaussian coefficients."""
    shape = draw(st.sampled_from(list(DENSE_RAYS)))
    sizes = [draw(st.sampled_from(_sizes(shape))) for _ in range(3 if shape == "P3" else 2)]
    return _dense_system(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                         shape, sizes)


@st.composite
def tall_systems(draw):
    """dense_systems whose Res at alpha + alpha0 is tall with a staircase
    of two or more levels."""
    shape, sizes = draw(st.sampled_from(_staircase_sizes()))
    return _dense_system(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                         shape, sizes)


def one_qr_cokernel(res, corank_only=False):
    """The reference for a tall Res: one geqp3 of all of Res, the cut
    certified on its R, N the trailing columns of its Q, as cokernel made
    them before the staircase. Returns a CokernelMap."""
    A = res.matrix
    m, n = A.shape
    lapack = scipy.linalg.lapack
    lwork = lapack.zgeqp3(A, lwork=-1)[3][0]
    qr, _, tau, _, _ = lapack.zgeqp3(np.array(A, order="F"), lwork=int(lwork.real))
    R = np.triu(qr[:n])
    rank, bounds, _ = _qr_rank(R, not corank_only)
    if corank_only:
        return CokernelMap(None, m - rank, R, bounds, res)
    basis = np.eye(m, m - rank, -rank, dtype=complex, order="F")
    lwork = lapack.zunmqr("L", "N", qr, tau, basis, -1)[1][0]
    basis = lapack.zunmqr("L", "N", qr, tau, basis, int(lwork.real), overwrite_c=True)[0]
    return CokernelMap(basis.conj().T, m - rank, R, bounds, res)


def _unitary_error(U):
    return np.abs(np.linalg.svd(U, compute_uv=False) - 1.0).max()


def _tall(res):
    return res.shape[0] >= res.shape[1] > 0


def _check_staircase(system):
    """The staircase of Res at alpha + alpha0 against its shapes and
    against one QR of all of it; returns its number of levels."""
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha, allow_empty=True)
    top = assemble_res(system, pair.top)
    plan, _ = _staircase_plan(top, low)
    order, takes, bounds = plan
    cols = takes[0][1].ravel()
    assert sorted(order) == list(range(top.shape[0]))
    assert sorted(cols) == list(range(top.shape[1]))
    # level i from the top is Res at alpha + alpha0 - i alpha0 (x^(i b0)
    # keeps the monomial order), and its columns vanish off its rows
    nested = top.matrix[np.ix_(order, cols)]
    step = top.rows.degree - low.rows.degree
    for i, (m, n) in enumerate(bounds[::-1]):
        level = assemble_res(system, top.rows.degree - i * step, allow_empty=True)
        assert level.shape == (m, n) and 0 < n <= m <= _LEVEL_ASPECT * n
        assert np.array_equal(top.matrix[np.ix_(np.sort(order[:m]), np.sort(cols[:n]))],
                              level.matrix)
        assert not nested[m:, :n].any()
    # the chain stops at the first Res that is no level
    below = assemble_res(system, top.rows.degree - len(bounds) * step, allow_empty=True)
    assert not 0 < below.shape[1] <= below.shape[0] <= _LEVEL_ASPECT * below.shape[1]

    plain = one_qr_cokernel(top)
    cok = cokernel(top, block=low)
    # the staircase's own cut, without the fallback to one QR
    R, _, lo, lead = _staircase(top.matrix, plan, low)
    assert _qr_rank(R, True, lead)[0] == top.shape[0] - plain.delta_plus
    assert np.array_equal(cok.R, R)
    assert cok.delta_plus == plain.delta_plus
    assert cokernel(top, corank_only=True, block=low).delta_plus == plain.delta_plus
    assert lo.delta_plus == one_qr_cokernel(low, corank_only=True).delta_plus
    assert verify_pair(system, pair) == (lo.delta_plus, plain.delta_plus)
    s = plain.singular_values
    assert np.allclose(cok.singular_values, s, rtol=1e-10, atol=1e-12 * s[0])
    if plain.delta_plus:
        # the same cokernel: N N_plain^H is unitary
        assert _unitary_error(cok.N @ plain.N.conj().T) <= 1e-10
        assert np.linalg.norm(cok.N @ top.matrix, 2) <= 10 * TOL_RANK * s[0]
    return len(bounds)


@settings(max_examples=40, deadline=None)
@given(system=tall_systems())
def test_block_path_matches_plain_path(system):
    assert _check_staircase(system) > 1


def p3_system(degree, seed=5):
    cube = [p for p in product(range(degree + 1), repeat=3) if sum(p) <= degree]
    return random_system(np.random.default_rng(seed), [cube] * 3, P3_RAYS)


@pytest.mark.parametrize("degree, levels", [(3, 3), (4, 4)])
def test_staircase_on_p3_has_its_levels(degree, levels):
    # Res at alpha + alpha0 120 x 105, then 84 x 60 and 56 x 30 (degree 3);
    # 286 x 252 down to 120 x 60 (degree 4)
    assert _check_staircase(p3_system(degree)) == levels


def _same_cokernel(a, b):
    return (a.delta_plus == b.delta_plus and a.rank_bounds == b.rank_bounds
            and np.array_equal(a.R, b.R)
            and (a.N is b.N is None or np.array_equal(a.N, b.N)))


def test_block_certificate_failure_falls_back():
    """Scaling the block's columns by 1e-14 puts them, tiny, at the head
    of the assembled R: its leading diagonal no longer reveals the rank,
    and the staircase's cut raises. cokernel then returns the one-level
    result, one QR of all of Res."""
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    plan, _ = _staircase_plan(top, low)
    cols = plan[1][0][1].ravel()[:low.shape[1]]
    scaled = top.matrix.copy()
    scaled[:, cols] *= 1e-14
    top = ResMatrix(top.rows, top.col_blocks, scaled)
    low = ResMatrix(low.rows, low.col_blocks, low.matrix * 1e-14)
    # the block is still x^b0 times Res at alpha, now scaled
    assert np.array_equal(top.matrix[np.ix_(plan[0][:low.shape[0]], cols)], low.matrix)
    R, _, _, lead = _staircase(top.matrix, plan, low)
    with pytest.raises(RankAmbiguousError, match="rank not revealed"):
        _qr_rank(R, True, lead)
    cok = cokernel(top, block=low)
    assert _same_cokernel(cok, cokernel(top))
    assert _same_cokernel(cok, one_qr_cokernel(top))
    assert cok.block.delta_plus == one_qr_cokernel(low, corank_only=True).delta_plus


def test_block_is_ignored_where_it_cannot_help():
    """A wide Res at alpha + alpha0, or an empty Res at alpha, gives
    bit-identical results with and without the block: one level, and a
    tall one is one QR of all of Res."""
    systems = {
        "wide": lines27_system(),
        "empty at alpha": homogenize(intro_laurent(3.0)),
        "pillow": homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE),
    }
    for name, system in systems.items():
        pair = improved_pair(system)
        low = assemble_res(system, pair.alpha, allow_empty=True)
        top = assemble_res(system, pair.top)
        if name == "wide":
            assert top.shape[0] < top.shape[1]
        else:
            assert low.shape[1] == 0 and top.shape[0] >= top.shape[1]
        plan = _staircase_plan(top, low)[0]
        assert plan is None if name == "wide" else len(plan[2]) == 1
        for corank_only in (False, True):
            cok = cokernel(top, corank_only, block=low)
            assert _same_cokernel(cok, cokernel(top, corank_only)), name
            if name != "wide":
                assert _same_cokernel(cok, one_qr_cokernel(top, corank_only)), name
            assert cok.block.delta_plus == (low.shape[0] if name != "wide" else 45)


@pytest.mark.parametrize("name", ["intro", "pillow", "P2 conics"])
def test_one_level_n_is_the_trailing_columns_of_q(name):
    """On a staircase of one level, N is Q E with E the unit vectors past
    the rank, turned by one left zunmqr of the one geqp3 of all of Res:
    bit for bit what one_qr_cokernel makes, with the block and without.
    Two conics on P^2 have a block with columns (6 x 2 under 10 x 6)
    that is too tall to be a level, and is factored on its own."""
    system = {
        "intro": lambda: homogenize(intro_laurent(3.0)),
        "pillow": lambda: homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE),
        "P2 conics": lambda: _dense_system(np.random.default_rng(0), "P2", [(2,), (2,)]),
    }[name]()
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha, allow_empty=True)
    top = assemble_res(system, pair.top)
    assert len(_staircase_plan(top, low)[0][2]) == 1
    want = one_qr_cokernel(top).N
    assert want.shape[0] > 0
    assert np.array_equal(cokernel(top).N, want)
    assert np.array_equal(cokernel(top, block=low).N, want)


def test_block_map_is_corank_only():
    """cokernel(res, block=Res at alpha) carries the certified corank-only
    map of the block: from inside the staircase when the block is a level
    of it (no R of its own), else from its own factorization."""
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    for corank_only in (False, True):
        lo = cokernel(top, corank_only, block=low).block
        assert lo.res is low and lo.N is None and lo.R is None
        assert lo.delta_plus == one_qr_cokernel(low, corank_only=True).delta_plus
        rank = low.shape[0] - lo.delta_plus
        s = np.linalg.svd(low.matrix, compute_uv=False)
        lower, upper = lo.rank_bounds
        slack = 1e-13 * s[0]
        assert lower <= s[rank - 1] + slack
        assert upper >= (s[rank] if rank < len(s) else 0.0) - slack
    # without a block there is no block map
    assert cokernel(low).block is None and cokernel(top).block is None
    # a wide Res above: the block factored on its own, its R kept
    system = lines27_system()
    pair = improved_pair(system)
    wide = assemble_res(system, pair.top)
    low = assemble_res(system, pair.alpha)
    assert wide.shape[0] < wide.shape[1] and _tall(low)
    lo = cokernel(wide, corank_only=True, block=low).block
    assert lo.N is None and lo.R.shape == (low.shape[1],) * 2
    assert lo.delta_plus == one_qr_cokernel(low, True).delta_plus


def test_top_cut_reuses_the_certificate_at_alpha(monkeypatch):
    """The top R11 is [[A, B], [0, C]] with A the R11 certified at alpha:
    trtri inverts only C, and the bound a^2 + c^2 + (a b c)^2 on
    ||S11^-1||_F^2 is at least the norm trtri of all of S11 gives."""
    system = p3_system(3)
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    plan, _ = _staircase_plan(top, low)
    R, _, lo, lead = _staircase(top.matrix, plan, low)
    low_rank = low.shape[0] - lo.delta_plus
    assert lead[0] == low_rank
    trtri, sizes = scipy.linalg.lapack.ztrtri, []
    monkeypatch.setattr(scipy.linalg.lapack, "ztrtri",
                        lambda a: sizes.append(len(a)) or trtri(a))
    rank, bounds, inverse = _qr_rank(R, True, lead)
    assert sizes == [rank - low_rank]
    sizes.clear()
    assert _qr_rank(R, True)[0] == rank and sizes == [rank]
    S = R / abs(R[0, 0])
    assert inverse >= np.linalg.norm(trtri(S[:rank, :rank])[0])
    s = np.linalg.svd(R, compute_uv=False)
    assert bounds[0] <= s[rank - 1] and bounds[1] >= s[rank]


def test_block_from_unrelated_degree_rejected():
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    top = assemble_res(system, (0, 0, 11))
    # S_(-1) has no sections: Res at degree 12 is not a block of Res at 11
    above = assemble_res(system, (0, 0, 12))
    with pytest.raises(InputError, match="not Res at a degree below"):
        cokernel(top, block=above)
    # nor is Res at 10 of another system on the fan: one equation only
    other = HomogeneousSystem(system.fan, system.polys[:1], system.degrees[:1])
    with pytest.raises(InputError, match="not Res at a degree below"):
        cokernel(top, block=assemble_res(other, (0, 0, 10)))
    assert cokernel(top, block=assemble_res(system, (0, 0, 10))).block.res.shape == (66, 30)


# ------------------------------------------------ Res from the fan's plans

@st.composite
def user_systems(draw):
    """A dense_systems system rebuilt as a user would: some coefficients
    set to zero inside the tight basis, and some equations moved to a
    degree one ray divisor up, with their terms on the same points."""
    system = draw(dense_systems())
    fan = system.fan
    polys, degrees = [], []
    for f, div in zip(system.polys, system.degrees):
        keep = np.array(draw(st.lists(st.booleans(), min_size=len(f.basis),
                                      max_size=len(f.basis))))
        coeffs = np.where(keep, f.coeffs, 0.0)
        j = draw(st.integers(-1, fan.k - 1))
        if j >= 0:
            div = div + fan.divisor(tuple(int(i == j) for i in range(fan.k)))
            basis = graded_basis(fan, div)
            lifted = np.zeros(len(basis), dtype=complex)
            lifted[basis.rows(f.basis.points)] = coeffs
            polys.append(CoxPolynomial(basis, lifted))
        else:
            polys.append(CoxPolynomial(f.basis, coeffs))
        degrees.append(div)
    return HomogeneousSystem(fan, polys, degrees)


@settings(max_examples=40, deadline=None)
@given(system=st.one_of(dense_systems(), user_systems()))
def test_planned_res_matches_reference_scatter(system):
    """Res from the fan's plan equals the scatter from the bases alone,
    at alpha and alpha + alpha0, on the call that builds the plan and on
    the one that reuses it."""
    pair = improved_pair(system)
    for beta in (pair.alpha, pair.top):
        want = assemble_res_reference(system, beta, allow_empty=True)
        for _ in range(2):
            got = assemble_res(system, beta, allow_empty=True)
            assert got.rows is want.rows
            assert got.col_blocks == want.col_blocks
            assert np.array_equal(got.matrix, want.matrix)


# ------------------------------------------------- multiplication family

PILLOW_PAIR = ((2, 2, 2, 2), (1, 1, 1, 1))


def pillow_family(rays=PILLOW_RAYS_SOLVE, seed=0):
    system = homogenize(pillow_laurent(), rays=rays)
    res = assemble_res(system, (3, 3, 3, 3))
    cok = cokernel(res)
    return system, multiplication_family(cok, system, PILLOW_PAIR, seed=seed)


def test_family_identity_and_commutators():
    _, fam = pillow_family()
    assert fam.delta_plus == 4
    assert len(fam.basis_columns) == 4
    ident = fam.combination(fam.h0_coeffs)
    assert np.allclose(ident, np.eye(4), atol=1e-10)
    mats = [fam.matrices[b] for b in fam.monomials]
    for a in mats:
        for b in mats:
            bound = 1e-8 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
            assert np.linalg.norm(a @ b - b @ a) <= bound


def test_family_fixed_basis_matrices():
    # reproduce the reference multiplication matrices on explicitly chosen
    # monomial bases: B gathers the four S_{alpha+alpha0} monomials, and
    # the columns of M_g are B^{-1} N(g * w_j) for the four S_alpha ones
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    res = assemble_res(system, (3, 3, 3, 3))
    cok = cokernel(res)
    rows = res.rows
    v_mons = [(0, 2, 6, 4), (1, 3, 5, 3), (1, 5, 5, 1), (4, 6, 2, 0)]
    w_mons = [(0, 0, 4, 4), (1, 1, 3, 3), (1, 3, 3, 1), (4, 4, 0, 0)]
    B = cok.N[:, [rows.position(v) for v in v_mons]]

    def mult(g):
        cols = [rows.position(tuple(x + y for x, y in zip(g, w)))
                for w in w_mons]
        return np.linalg.solve(B, cok.N[:, cols])

    assert np.allclose(mult((0, 2, 2, 0)), np.eye(4), atol=1e-8)
    expected = np.array([
        [0, 0, 0, 0],
        [1, 0, 0, -1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ], dtype=complex)
    assert np.allclose(mult((1, 1, 1, 1)), expected, atol=1e-8)

    # the same matrix in exact rational arithmetic: K spans the left
    # nullspace of the integer Res matrix, so (K V)^{-1} K picks the
    # unique residue coordinates; this pins the last-column signs
    A = sympy.Matrix(res.matrix.real.astype(int).tolist())
    K = sympy.Matrix.hstack(*A.T.nullspace()).T
    assert (K * A).is_zero_matrix
    V = sympy.zeros(25, 4)
    for j, v in enumerate(v_mons):
        V[rows.position(v), j] = 1

    def mult_exact(g):
        cols = sympy.zeros(25, 4)
        for j, w in enumerate(w_mons):
            cols[rows.position(tuple(x + y for x, y in zip(g, w))), j] = 1
        return (K * V).solve(K * cols)

    assert mult_exact((0, 2, 2, 0)) == sympy.eye(4)
    assert mult_exact((1, 1, 1, 1)) == sympy.Matrix(
        [[0, 0, 0, 0], [1, 0, 0, -1], [0, 0, 0, 1], [0, 0, 0, 0]])


def test_restriction_cond_runs_the_svd_only_between_its_bounds(monkeypatch):
    """max|r_ii| / min|r_ii| <= cond_2 <= ||R11||_F ||R11^-1||_F: the
    SVD runs only when the two bounds straddle COND_MAX."""
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
    rng = np.random.default_rng(0)

    def decide(R):
        n = len(R)
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        return _restriction_cond(R.astype(complex), q @ R)

    # the Frobenius bound accepts: cond_2 = 1 <= 101 <= COND_MAX
    assert decide(np.eye(101)) == pytest.approx(101.0) and not calls
    # the diagonal rejects: 1 / 1e-9 > COND_MAX
    assert decide(np.diag(np.r_[np.ones(100), 1e-9])) == np.inf and not calls
    # straddling, accepted: cond_2 = 5e7, the bound about 10 times that
    straddle = np.diag(np.r_[np.ones(100), 2e-8])
    assert decide(straddle) == pytest.approx(5e7, rel=1e-9) and len(calls) == 1
    # straddling, rejected: Kahan's diagonal ratio is 20, cond_2 about 1e9
    assert COND_MAX < decide(_kahan(64)) < np.inf and len(calls) == 2


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63), size=st.integers(1, 40))
def test_kept_draws_match_fresh_streams(seed, size):
    """Every kept draw, on both stages and for every retry, has the bits
    of a fresh stream, and cannot be written to."""
    for stage, count in ((1, RETRIES_MAX + 1), (2, 1)):
        got = eigensolver._draws(seed, stage, size, count)
        want = draws_reference(seed, stage, size, count)
        assert len(got) == count
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and not g.flags.writeable


def test_kept_draws_stay_bounded_and_follow_the_seed():
    """The memo holds at most DRAWS_MAX keys, and a seed met again after
    others gets its own draws back, not the last ones."""
    for seed in list(range(3 * DRAWS_MAX)) + [0, 5, 1]:
        got = eigensolver._draws(seed, 2, 7, 1)[0]
        assert np.array_equal(got, draws_reference(seed, 2, 7, 1)[0])
        assert eigensolver._draws.cache_info().currsize <= DRAWS_MAX


@pytest.mark.parametrize("rejected", range(RETRIES_MAX + 1))
def test_family_retries_take_the_next_draws_of_the_stream(monkeypatch, rejected):
    """With the first `rejected` restrictions turned down, h_0 is draw
    number `rejected` of the seed's stage-1 stream; past the last retry
    the family raises."""
    cond = eigensolver._restriction_cond
    calls = []

    def fail_first(R11, sub):
        calls.append(1)
        return np.inf if len(calls) <= rejected else cond(R11, sub)

    monkeypatch.setattr(eigensolver, "_restriction_cond", fail_first)
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    cok = cokernel(assemble_res(system, (3, 3, 3, 3)))
    members = len(graded_basis(system.fan, PILLOW_PAIR[1]))
    family = multiplication_family(cok, system, PILLOW_PAIR, seed=11)
    want = draws_reference(11, 1, members, rejected + 1)[rejected]
    assert np.array_equal(family.h0_coeffs, want)
    monkeypatch.setattr(eigensolver, "_restriction_cond", lambda R11, sub: np.inf)
    with pytest.raises(BasepointError):
        multiplication_family(cok, system, PILLOW_PAIR, seed=11)


def test_family_degree_mismatch_rejected():
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    res = assemble_res(system, (2, 2, 2, 2))
    cok = cokernel(res)
    with pytest.raises(InputError):
        multiplication_family(cok, system, PILLOW_PAIR)


def test_one_point_system_eigenvalue_ratio():
    # x1 - 2 x2 vanishes at t = 2; the family eigenvalues are x_i / h0
    system = p1_system([((1,), 1.0), ((0,), -2.0)])
    res = assemble_res(system, (0, 2))
    cok = cokernel(res)
    assert cok.delta_plus == 1
    fam = multiplication_family(cok, system, ((0, 1), (0, 1)))
    lam_x1 = fam.matrices[(1, 0)][0, 0]
    lam_x2 = fam.matrices[(0, 1)][0, 0]
    assert lam_x1 / lam_x2 == pytest.approx(2.0, abs=1e-10)


# --------------------------------------------------------- schur clusters

def test_reorder_machinery():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    T0, Z0 = scipy.linalg.schur(A, output="complex")
    labels = [i % 3 for i in range(12)]
    T, Z, out = _reorder(T0.copy(), Z0.copy(), labels)
    assert list(out) == [0] * 4 + [1] * 4 + [2] * 4
    assert np.allclose(np.tril(T, -1), 0, atol=1e-10)
    assert np.allclose(Z @ Z.conj().T, np.eye(12), atol=1e-12)
    assert np.allclose(Z @ T @ Z.conj().T, A, atol=1e-9)
    for lab in range(3):
        before = sorted(
            (complex(T0[i, i]) for i in range(12) if i % 3 == lab),
            key=lambda z: (z.real, z.imag),
        )
        segment = T[lab * 4:(lab + 1) * 4, lab * 4:(lab + 1) * 4]
        after = sorted((complex(x) for x in np.diag(segment)),
                       key=lambda z: (z.real, z.imag))
        assert np.allclose(before, after, atol=1e-9)


def ref_cluster_labels(values, gap):
    """Union-find reference for _cluster_labels."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            tol = gap * (1.0 + (abs(values[i]) + abs(values[j])) / 2.0)
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    labels = [find(i) for i in range(n)]
    order = {}
    for lab in labels:
        if lab not in order:
            order[lab] = len(order)
    return [order[lab] for lab in labels]


def ref_below_block_norm(Tb, sizes):
    """Nested-loop reference for _below_block_norm."""
    slices = []
    off = 0
    for mu in sizes:
        slices.append(slice(off, off + mu))
        off += mu
    low = 0.0
    for jb, sj in enumerate(slices):
        for ib in range(jb):
            low += float(np.sum(np.abs(Tb[sj, slices[ib]]) ** 2))
    return np.sqrt(low)


def planted_spectrum(rng, gap):
    """Shuffled spectrum with magnitudes over 1e-3..1e3, planted clusters
    of copies inside the gap, and chains of neighbours each inside the
    gap of the last but spanning several gaps end to end."""
    def point():
        return 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())

    vals = [point() for _ in range(rng.integers(0, 8))]
    for _ in range(rng.integers(1, 5)):
        c = point()
        tol = gap * (1.0 + abs(c))
        vals += [c + 0.3 * tol * point() / 1e3 for _ in range(rng.integers(2, 5))]
    for _ in range(rng.integers(1, 3)):
        v = point()
        for _ in range(rng.integers(2, 6)):
            vals.append(v)
            v = v + 0.8 * gap * (1.0 + abs(v)) * np.exp(2j * np.pi * rng.uniform())
    vals = np.array(vals)
    return vals[rng.permutation(len(vals))]


def test_cluster_labels_match_union_find():
    rng = np.random.default_rng(5)
    for _ in range(300):
        gap = 10.0 ** rng.integers(-4, 0)
        vals = planted_spectrum(rng, gap)
        assert list(_cluster_labels(vals, gap)) == ref_cluster_labels(vals, gap)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gap_exp=st.integers(-4, -1))
def test_cluster_labels_renumber_as_np_unique_did(seed, gap_exp):
    """Counting the components' first indices gives the labels and the
    dtype that np.unique's inverse gave."""
    gap = 10.0 ** gap_exp
    rng = np.random.default_rng(seed)
    # planted clusters, and values 1 apart on a ray, each its own cluster
    spread = np.arange(1, rng.integers(2, 9)) * np.exp(2j * np.pi * rng.uniform())
    for vals in (planted_spectrum(rng, gap), spread):
        got, want = _cluster_labels(vals, gap), cluster_labels_reference(vals, gap)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_below_block_norm_matches_loop():
    rng = np.random.default_rng(6)
    for _ in range(100):
        sizes = list(rng.integers(1, 5, size=rng.integers(1, 8)))
        n = sum(sizes)
        Tb = ((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
              * 10.0 ** rng.uniform(-3, 3, size=(n, n)))
        labels = np.repeat(np.arange(len(sizes)), sizes)
        got = _below_block_norm(Tb, labels)
        want = ref_below_block_norm(Tb, sizes)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_schur_cluster_pillow_multiplicity():
    system, fam = pillow_family(seed=1)
    clusters = schur_cluster(fam, seed=1)
    assert sorted(clusters.block_sizes) == [2, 2]
    assert sum(clusters.block_sizes) == fam.delta_plus
    assert clusters.leakage <= 1e-6
    # each cluster table evaluates x^b / h0 at one of the two points
    h0 = {b: c for b, c in zip(fam.monomials, fam.h0_coeffs)}

    def expected_table(z):
        vals = {b: np.prod(np.asarray(z) ** np.array(b)) for b in fam.monomials}
        h = sum(h0[b] * vals[b] for b in fam.monomials)
        return {b: vals[b] / h for b in fam.monomials}

    targets = [expected_table(np.array([0, 1, 1, 1], dtype=complex)),
               expected_table(np.array([1, 1, 0, 1j], dtype=complex))]
    for table in clusters.tables:
        dists = [max(abs(table[j] - t[b]) for j, b in enumerate(fam.monomials))
                 for t in targets]
        assert min(dists) < 1e-8
    matched = set()
    for table in clusters.tables:
        dists = [max(abs(table[j] - t[b]) for j, b in enumerate(fam.monomials))
                 for t in targets]
        matched.add(int(np.argmin(dists)))
    assert matched == {0, 1}
    # sum_b h0_b * lambda_{b,i} telescopes to 1 in every cluster
    for table in clusters.tables:
        total = sum(h0[b] * table[j] for j, b in enumerate(fam.monomials))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_schur_cluster_singleton():
    system = p1_system([((1,), 1.0), ((0,), -2.0)])
    res = assemble_res(system, (0, 2))
    fam = multiplication_family(cokernel(res), system, ((0, 1), (0, 1)))
    clusters = schur_cluster(fam, seed=0)
    assert clusters.block_sizes == (1,)
    table = clusters.tables[0]
    col = {b: j for j, b in enumerate(fam.monomials)}
    assert table[col[(1, 0)]] / table[col[(0, 1)]] == pytest.approx(2.0, abs=1e-10)


def test_zero_solution_family():
    # a constant plus anything has no zeros at all
    system = homogenize([
        [((0, 0), 1.0)],
        pillow_laurent()[0],
    ], rays=PILLOW_RAYS)
    res = assemble_res(system, (2, 2, 2, 2))
    cok = cokernel(res)
    assert cok.delta_plus == 0
    fam = multiplication_family(cok, system, ((1, 1, 1, 1), (1, 1, 1, 1)))
    clusters = schur_cluster(fam)
    assert clusters.block_sizes == ()
    assert clusters.tables.shape == (0, len(fam.monomials))


# ------------------------------------ stacked family and Schur reads
# The family and the Schur reads as they were before they were stacked:
# one lu_solve per member, and one Z^H M Z product, leakage norm and
# trace table column per member. The stacked code must reproduce them.


def reference_family_matrices(cok, system, pair, family):
    s_alpha = graded_basis(system.fan, pair.alpha)
    s_alpha0 = family.alpha0_basis
    rows = cok.res.rows
    columns = list(family.basis_columns)
    n_b = [cok.N[:, rows.rows(m + s_alpha.points)] for m in s_alpha0.points]
    n_h0 = np.tensordot(family.h0_coeffs, np.array(n_b), axes=(0, 0))
    factor = scipy.linalg.lu_factor(n_h0[:, columns])
    return {b: scipy.linalg.lu_solve(factor, n[:, columns])
            for b, n in zip(s_alpha0.monomials, n_b)}


def reference_schur_cluster(matrices, monomials, seed, cluster_gap=1e-4):
    """(block sizes, tables, leakage by member) read member by member."""
    delta = len(next(iter(matrices.values())))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    weights = (rng.standard_normal(len(monomials))
              + 1j * rng.standard_normal(len(monomials)))
    M = np.zeros((delta, delta), dtype=complex)
    for c, b in zip(weights, monomials):
        M += c * matrices[b]
    T0, Z0 = scipy.linalg.schur(M, output="complex")
    gap = cluster_gap
    while True:
        _, Z, labels = _reorder(T0, Z0, _cluster_labels(np.diag(T0), gap))
        starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
        sizes = np.diff(np.r_[starts, delta])
        tables = np.empty((len(sizes), len(monomials)), dtype=complex)
        by_member = []
        for j, b in enumerate(monomials):
            Tb = Z.conj().T @ matrices[b] @ Z
            low = ref_below_block_norm(Tb, sizes)
            by_member.append(low / max(1.0, np.linalg.norm(matrices[b])))
            tables[:, j] = np.add.reduceat(np.diag(Tb), starts) / sizes
        if max(by_member) <= LEAK_TOL or gap >= 0.1:
            return tuple(int(mu) for mu in sizes), tables, by_member
        gap = min(gap * 10.0, 0.1)


def _rel_close(got, want, rel=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


def _family_case(name):
    if name == "pillow":
        system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    elif name == "intro e=3":
        system = homogenize(intro_laurent(1e-3), rays=HIRZEBRUCH_RAYS)
    else:
        system = lines27_system(seed=0)
    pair = improved_pair(system)
    return system, pair, cokernel(assemble_res(system, pair.top))


@pytest.mark.parametrize("name", ["pillow", "intro e=3", "lines27"])
def test_stacked_family_and_schur_reads_match_per_member(name):
    system, pair, cok = _family_case(name)
    family = multiplication_family(cok, system, pair, seed=3)
    want = reference_family_matrices(cok, system, pair, family)
    assert list(family.matrices) == list(want) == family.monomials
    assert family.stack.shape == (len(want), cok.delta_plus, cok.delta_plus)
    for b, mat in family.matrices.items():
        assert np.shares_memory(mat, family.stack)
        assert _rel_close(mat, want[b])

    clustering = schur_cluster(family, seed=3)
    sizes, tables, by_member = reference_schur_cluster(want, family.monomials, seed=3)
    assert clustering.block_sizes == sizes
    if name == "lines27":
        assert sorted(sizes).count(6) == 3
    assert _rel_close(clustering.tables, tables)
    assert len(clustering.leakage_by_member) == len(by_member)
    for got, ref in zip(clustering.leakage_by_member, by_member):
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


# ------------------------------------ direct LAPACK calls
# multiplication_family and schur_cluster call geqp3, getrf, getrs and
# gees themselves. Through scipy's wrappers the same routines must give
# the same bits.

DATA = Path(__file__).parent / "data"


def _lapack_case(name):
    if name == "dense_p2_d6_seed0":
        sf = load_system_file(DATA / f"{name}.system.json")
        system = homogenize(sf.laurent(), rays=sf.rays)
        pair = improved_pair(system)
        lo = assemble_res(system, pair.alpha, allow_empty=True)
        return system, pair, cokernel(assemble_res(system, pair.top), block=lo)
    return _family_case(name)


def scipy_family(cok, system, pair, seed):
    """(stack, basis_columns, cond) of multiplication_family, with the
    pivoted QR, LU and solve of scipy.linalg."""
    s_alpha = graded_basis(system.fan, pair.alpha)
    s_alpha0 = graded_basis(system.fan, pair.alpha0)
    idx = cok.res.rows.rows(s_alpha0.points[:, None] + s_alpha.points[None])
    stack = np.moveaxis(cok.N[:, idx], 1, 0)
    delta = cok.delta_plus
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    for _ in range(RETRIES_MAX + 1):
        coeffs = (rng.standard_normal(len(s_alpha0))
                  + 1j * rng.standard_normal(len(s_alpha0)))
        n_h0 = np.tensordot(coeffs, stack, axes=(0, 0))
        R, piv = scipy.linalg.qr(n_h0, pivoting=True, mode="r")
        columns = tuple(sorted(int(p) for p in piv[:delta]))
        cond = _restriction_cond(R[:, :delta], n_h0[:, columns])
        if cond <= COND_MAX:
            break
    rhs = np.moveaxis(stack[:, :, columns], 0, 1).reshape(delta, -1)
    solved = scipy.linalg.lu_solve(scipy.linalg.lu_factor(n_h0[:, columns]), rhs)
    family = np.moveaxis(solved.reshape(delta, len(s_alpha0), delta), 1, 0)
    return family, columns, float(cond)


@pytest.mark.parametrize("name", ["pillow", "intro e=3", "lines27", "dense_p2_d6_seed0"])
def test_direct_lapack_calls_match_scipy_bit_for_bit(name, monkeypatch):
    system, pair, cok = _lapack_case(name)
    family = multiplication_family(cok, system, pair, seed=3)
    stack, columns, cond = scipy_family(cok, system, pair, seed=3)
    assert np.array_equal(family.stack, stack)
    assert family.basis_columns == columns
    assert family.cond == cond

    clustering = schur_cluster(family, seed=3)
    monkeypatch.setattr(eigensolver, "_gees",
                        lambda M: scipy.linalg.schur(M, output="complex"))
    want = schur_cluster(family, seed=3)
    assert clustering.block_sizes == want.block_sizes
    assert np.array_equal(clustering.tables, want.tables)
    assert clustering.leakage == want.leakage
    assert clustering.leakage_by_member == want.leakage_by_member


# ------------------------------------------------------------ properties

def test_corank_equals_mixed_volume():
    # generic coefficients on random small supports: the solution count
    # on the compactification equals the mixed volume (Qhull reference)
    rng = np.random.default_rng(42)
    done = 0
    while done < 5:
        supports = []
        for _ in range(2):
            pts = {tuple(rng.integers(-2, 3, size=2))
                   for _ in range(rng.integers(2, 6))}
            supports.append(sorted(pts))
        eqs = [[(e, complex(c)) for e, c in
                zip(sup, rng.standard_normal(len(sup))
                    + 1j * rng.standard_normal(len(sup)))]
               for sup in supports]
        try:
            system = homogenize(eqs)
        except InputError:
            continue
        alpha = tuple(sum(d.a[j] for d in system.degrees)
                      for j in range(system.k))
        beta = tuple(2 * x for x in alpha)
        cok = cokernel(assemble_res(system, beta))
        assert cok.delta_plus == mixed_volume(supports)
        if cok.delta_plus > 0:
            fam = multiplication_family(cok, system, (alpha, alpha))
            mats = list(fam.matrices.values())
            for a in mats[:4]:
                for b in mats[:4]:
                    bound = 1e-8 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
                    assert np.linalg.norm(a @ b - b @ a) <= bound
        done += 1
