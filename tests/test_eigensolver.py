"""Res assembly, cokernel ranks, multiplication matrices, Schur clusters."""

import functools
import re
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricsolve import cox, eigensolver, solver
from toricsolve.cox import CoxPolynomial, HomogeneousSystem, as_divisor, graded_basis, homogenize
from toricsolve.eigensolver import (
    CLUSTER_GAP,
    COND_MAX,
    DRAWS_MAX,
    GAP_RATIO,
    H0_COND_TARGET,
    LEAK_TOL,
    RETRIES_MAX,
    SPAN_MIN_DELTA,
    TOL_RANK,
    CokernelMap,
    ResMatrix,
    _below_block_norm,
    _descent,
    _cluster_labels,
    _pays,
    _qr_rank,
    _rank,
    _reduce,
    _reorder,
    _restriction_cond,
    assemble_res,
    cokernel,
    multiplication_family,
    schur_cluster,
)
from toricsolve.errors import BasepointError, InputError, RankAmbiguousError, SpanError
from toricsolve.formats import load_system_file
from toricsolve.lattice import Polytope
from toricsolve.regularity import (
    Provenance,
    RegularityPair,
    default_pair,
    improved_pair,
    user_pair,
    verify_pair,
)
from toricsolve.solver import solve

from systems import (
    DIAMOND,
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    OVERFLOW_LAURENT,
    P2_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    TRIVIAL_ALPHA0,
    WP112_RAYS,
    assemble_res_reference,
    cluster_labels_reference,
    draws_reference,
    intro_laurent,
    lines27_laurent,
    mixed_volume,
    pillow_fan,
    pillow_laurent,
    trivial_alpha0_laurent,
)

P1_RAYS = [(1,), (-1,)]
EPS = np.finfo(float).eps


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
        top = assemble_res(system, pair.top)
        assert np.array_equal(top.matrix, reference_res(system, pair.top))
        # Res at alpha, read off Res at alpha + alpha0, empty blocks and all
        I, J = _placed(top, pair.alpha0)
        assert np.array_equal(top.matrix[np.ix_(I, J)], reference_res(system, pair.alpha))
        if len(J):
            assert np.array_equal(assemble_res(system, pair.alpha).matrix,
                                  reference_res(system, pair.alpha))
        else:
            with pytest.raises(InputError, match="degree too low"):
                assemble_res(system, pair.alpha)


def test_res_missing_row_raises():
    # f lives in degree (1,1,1,1) but the system claims degree 0, so the
    # products f * S_(1,1,1,1) leave S_(1,1,1,1): no entry may land on row -1
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    f = CoxPolynomial(basis, np.arange(1, len(basis) + 1))
    system = HomogeneousSystem(fan, [f], [fan.divisor((0, 0, 0, 0))])
    with pytest.raises(InputError):
        assemble_res(system, (1, 1, 1, 1))


def test_degree_without_sections_is_refused():
    """Each column block is read off S_beta by a monomial of its
    equation's degree: a hand-built system whose degree has no sections
    is refused by name, with and without alpha0."""
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    f = CoxPolynomial(basis, np.arange(1, len(basis) + 1))
    empty = fan.divisor((-1, 0, 0, 0))
    assert len(graded_basis(fan, empty)) == 0
    system = HomogeneousSystem(fan, [f, f], [fan.divisor((1, 1, 1, 1)), empty])
    for alpha0 in ((), ((1, 1, 1, 1),)):
        with pytest.raises(InputError, match=r"equation 1: degree \(-1, 0, 0, 0\) has no sections"):
            assemble_res(system, (3, 3, 3, 3), *alpha0)


def test_wrong_degree_raises_on_every_call():
    """A polynomial off its claimed degree raises on the call that builds
    the fan's plan and on every call that reuses it. One whose nonzero
    terms all land is assembled as before, from the same plan. Both hold
    in lexicographic order and in the nested order of alpha0 = (1, 1, 1,
    1), whose block is 1 x 1 in the 5 x 5 Res: the reference Res at the
    rows and columns of that order."""
    fan = pillow_fan()
    basis = graded_basis(fan, (1, 1, 1, 1))
    f = CoxPolynomial(basis, np.arange(1, len(basis) + 1))
    system = HomogeneousSystem(fan, [f], [fan.divisor((0, 0, 0, 0))])
    # the center of the diamond lands in S_(1,1,1,1) times S_0 = C
    center = np.zeros(len(basis))
    center[basis.rows(np.array([0, 0]))] = 2.0
    lands = HomogeneousSystem(fan, [CoxPolynomial(basis, center)],
                              [fan.divisor((0, 0, 0, 0))])
    for alpha0 in ((), ((1, 1, 1, 1),)):
        for _ in range(2):
            with pytest.raises(InputError, match="equation 0 does not have degree"):
                assemble_res(system, (1, 1, 1, 1), *alpha0)
        for _ in range(2):
            res = assemble_res(lands, (1, 1, 1, 1), *alpha0)
            assert (res.order is None) == (not alpha0)
            want = assemble_res_reference(lands, (1, 1, 1, 1)).matrix
            if alpha0:
                rows, cols, shapes = res.order
                assert shapes == [(1, 1)]
                want = want[np.ix_(rows, cols)]
            assert np.array_equal(res.matrix, want)
        with pytest.raises(InputError, match="equation 0 does not have degree"):
            assemble_res(system, (1, 1, 1, 1), *alpha0)


def test_degree_too_low_is_checked_before_alpha0():
    """A Res with no columns raises "degree too low" even when alpha0 has
    no sections; with columns, that alpha0 raises "no sections"."""
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    for _ in range(2):
        with pytest.raises(InputError, match="degree too low"):
            assemble_res(system, (0, 0, 0, 0), (-1, 0, 0, 0))
        with pytest.raises(InputError, match="no sections"):
            assemble_res(system, (3, 3, 3, 3), (-1, 0, 0, 0))


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


# ------------------------------------ reduction down the alpha0 chain

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


def _depth(top, alpha0):
    """The levels cokernel reduces top by when top is assembled with
    alpha0 (a vector or a class), 0 when it takes the plain map: no block
    with columns, or the block is all of Res."""
    alpha0 = as_divisor(top.rows.degree.fan, alpha0)
    shapes = _descent(top.rows, top.col_blocks, alpha0)[2]
    return len(shapes) if 0 < shapes[0][1] < top.shape[1] else 0


def _nested(lex, alpha0):
    """lex as assemble_res writes it with alpha0, from its own matrix,
    which a test may have planted: in the nested order of _descent,
    which it records, and alpha0 recorded."""
    alpha0 = as_divisor(lex.rows.degree.fan, alpha0)
    plan = _descent(lex.rows, lex.col_blocks, alpha0)
    rows, cols, _ = plan
    return ResMatrix(lex.rows, lex.col_blocks, lex.matrix[np.ix_(rows, cols)], plan, alpha0,
                     _gather(lex, rows, alpha0))


def _gather(lex, rows, alpha0):
    """ResMatrix.gather of lex written in the nested row order rows, from
    the bases: the row of lex holding x^b x^a, for b in S_alpha0 and a in
    S_alpha, alpha the degree of lex minus alpha0, at its place in rows."""
    fan = lex.rows.degree.fan
    s_alpha0 = graded_basis(fan, alpha0)
    s_alpha = graded_basis(fan, lex.rows.degree - alpha0)
    index = lex.rows.rows(s_alpha0.points[:, None] + s_alpha.points[None])
    return s_alpha, s_alpha0, np.argsort(rows)[index]


def _same_plan(got, want):
    """Whether two plans (rows, cols, shapes) of _descent are equal."""
    return (np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            and got[2] == want[2])


def _plain_res(res):
    """res.matrix as it stands, recorded with no alpha0: cokernel gives
    it the plain map, N in the row order of res.matrix."""
    return ResMatrix(res.rows, res.col_blocks, res.matrix)


def _monomial(cok):
    """cok.N with its columns in the monomial order of S_beta."""
    if cok.res.order is None:
        return cok.N
    N = np.empty_like(cok.N)
    N[:, cok.res.order[0]] = cok.N
    return N


@functools.cache
def _reduced_sizes():
    """(shape, sizes) of every dense_systems support whose Res at alpha +
    alpha0 is tall and reduced by its block. The depth follows from the
    supports alone, so one draw of coefficients decides each."""
    found = []
    for shape in DENSE_RAYS:
        for sizes in product(_sizes(shape), repeat=3 if shape == "P3" else 2):
            system = _dense_system(np.random.default_rng(0), shape, sizes)
            pair = improved_pair(system)
            top = assemble_res(system, pair.top)
            if _tall(top) and _depth(top, pair.alpha0):
                found.append((shape, sizes))
    return found


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
    """dense_systems whose Res at alpha + alpha0 is tall and reduced by
    its block."""
    shape, sizes = draw(st.sampled_from(_reduced_sizes()))
    return _dense_system(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                         shape, sizes)


def one_qr_cokernel(res, corank_only=False):
    """The reference for a tall Res: one geqp3 of all of Res, the cut
    certified on its R, N the trailing columns of its Q, as cokernel's
    plain map makes them. Returns a CokernelMap."""
    A = res.matrix
    m, n = A.shape
    lapack = scipy.linalg.lapack
    lwork = lapack.zgeqp3(A, lwork=-1)[3][0]
    qr, _, tau, _, _ = lapack.zgeqp3(np.array(A, order="F"), lwork=int(lwork.real))
    R = np.triu(qr[:n])
    rank, bounds = _qr_rank(R, not corank_only)
    if corank_only:
        return CokernelMap(None, m - rank, R, bounds, res)
    basis = np.eye(m, m - rank, -rank, dtype=complex, order="F")
    lwork = lapack.zunmqr("L", "N", qr, tau, basis, -1)[1][0]
    basis = lapack.zunmqr("L", "N", qr, tau, basis, int(lwork.real), overwrite_c=True)[0]
    return CokernelMap(basis.conj().T, m - rank, R, bounds, res)


def _reduced(top, plan, corank_only=False):
    """The reduction's own map of a lexicographic top, without the
    fallback to one QR: _reduce of top gathered in the nested order of
    plan (_descent), N in that order's rows."""
    rows, cols, shapes = plan
    return _reduce(top.matrix[np.ix_(rows, cols)], corank_only, shapes, _tall(top))


def _unitary_error(U):
    return np.abs(np.linalg.svd(U, compute_uv=False) - 1.0).max()


def _tall(res):
    return res.shape[0] >= res.shape[1] > 0


def _check_reduction(system):
    """The reduction of Res at alpha + alpha0 down its chain against the
    shapes of its levels and against one QR of all of it; returns its
    depth."""
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    rows, cols, shapes = plan = _descent(top.rows, top.col_blocks, pair.alpha0)
    # level j is x^(j b0) times Res at alpha + alpha0 - j alpha0, the
    # leading block of the plan's nested order, and its columns vanish
    # off its rows; every level below the block pays for its lift
    above = (top.shape[0], top.shape[1])
    for j, (m, n) in enumerate(shapes, 1):
        level = assemble_res(system, top.rows.degree - j * pair.alpha0)
        I, J = _placed(top, pair.alpha0, j)
        assert level.shape == (m, n) == (len(I), len(J))
        assert np.array_equal(top.matrix[np.ix_(I, J)], level.matrix)
        assert np.array_equal(np.sort(rows[:m]), I) and np.array_equal(np.sort(cols[:n]), J)
        assert not top.matrix[np.ix_(rows[m:], cols[:n])].any()
        assert j == 1 or _pays(above, (m, n))
        above = (m, n)
    # the chain stops at the first level below that would not pay
    below = assemble_res_reference(system, top.rows.degree - (len(shapes) + 1) * pair.alpha0,
                                   allow_empty=True)
    assert not _pays(above, below.shape)

    plain = one_qr_cokernel(top)
    nested = assemble_res(system, pair.top, pair.alpha0)
    cok = cokernel(nested)
    N = _monomial(cok)
    # the reduction's own map, without the fallback to one QR
    reduced, lo = _reduced(top, plan)
    assert reduced is not None
    assert np.array_equal(cok.R, reduced.R) and np.array_equal(cok.N, reduced.N)
    assert cok.delta_plus == plain.delta_plus
    assert cokernel(nested, corank_only=True).delta_plus == plain.delta_plus
    assert lo.delta_plus == one_qr_cokernel(low, corank_only=True).delta_plus
    assert verify_pair(system, pair) == (lo.delta_plus, plain.delta_plus)
    s = plain.singular_values
    assert np.allclose(cok.singular_values, s, rtol=1e-10, atol=1e-12 * s[0])
    if plain.delta_plus:
        # the same cokernel: N N_plain^H is unitary
        assert _unitary_error(N @ plain.N.conj().T) <= 1e-10
        assert np.linalg.norm(N @ top.matrix, 2) <= 10 * TOL_RANK * s[0]
    return len(shapes)


@settings(max_examples=40, deadline=None)
@given(system=tall_systems())
def test_block_path_matches_plain_path(system):
    assert _check_reduction(system) >= 1


def p3_system(degree, seed=5):
    cube = [p for p in product(range(degree + 1), repeat=3) if sum(p) <= degree]
    return random_system(np.random.default_rng(seed), [cube] * 3, P3_RAYS)


@pytest.mark.parametrize("degree, depth", [(3, 3), (4, 4)])
def test_reduction_on_p3_has_its_depth(degree, depth):
    # Res at alpha + alpha0 120 x 105, then 84 x 60 down to 35 x 12,
    # where 20 x 3 below would not pay (degree 3); 286 x 252 down to
    # 84 x 30 (degree 4)
    assert _check_reduction(p3_system(degree)) == depth


@pytest.mark.parametrize("case, depth", [("P3 degree 3", 3), ("P3 degree 4", 4),
                                         ("dense_p2_d6_seed0 default", 4)])
def test_tall_reduction_turns_once_per_level(case, depth, monkeypatch):
    """Each level of a tall reduction turns every column ahead of it with
    one left zunmqr, so a reduction of depth L makes L of them, with and
    without corank_only; N is built from the right."""
    if case.startswith("P3"):
        system = p3_system(int(case[-1]))
        pair = improved_pair(system)
    else:
        system, pair = _golden_pair(*case.split())
    top = assemble_res(system, pair.top)
    nested = assemble_res(system, pair.top, pair.alpha0)
    plan = _descent(top.rows, top.col_blocks, pair.alpha0)
    assert _tall(top) and _depth(top, pair.alpha0) == depth
    sides = []
    unmqr = eigensolver._unmqr
    monkeypatch.setattr(eigensolver, "_unmqr",
                        lambda side, *args: sides.append(side) or unmqr(side, *args))
    for corank_only in (False, True):
        reduced = _reduced(top, plan, corank_only)[0]
        assert reduced is not None
        assert sides.count("L") == depth
        sides.clear()
        # cokernel takes that map, with no fallback to one QR
        cok = cokernel(nested, corank_only)
        assert np.array_equal(cok.R, reduced.R)
        assert sides.count("L") == depth
        sides.clear()


# a tall top reduced at depth 4, a wide one reduced by its block (25 x
# 26) and one that takes the plain map
@pytest.mark.parametrize("name, which, depth", [
    ("dense_p2_d6_seed0", "default", 4), ("pillow_seed1", "default", 1),
    ("pillow_seed1", "improved", 0)])
def test_cokernel_leaves_res_as_it_was(name, which, depth):
    """Neither the plain map of the lexicographic Res nor cokernel of the
    Res assemble_res writes with alpha0, whose reduction turns its own
    copy in place, writes res.matrix; the latter's maps are those of
    _reference_map bit for bit, N in the order the Res records."""
    system, pair = _golden_pair(name, which)
    top = assemble_res(system, pair.top)
    nested = assemble_res(system, pair.top, pair.alpha0)
    assert _depth(top, pair.alpha0) == depth
    assert _same_plan(nested.order, _descent(top.rows, top.col_blocks, pair.alpha0))
    for res in (top, nested):
        before = res.matrix.tobytes()
        for corank_only in (False, True):
            cok = cokernel(res, corank_only)
            assert res.matrix.tobytes() == before
            if res is nested:
                _check_same_map(cok, _reference_map(top, pair.alpha0, corank_only))


def _reference_map(lex, alpha0, corank_only=False):
    """The map cokernel gives Res assembled with alpha0, made from the
    lexicographic Res lex: the reduction's own map (_reduced) where the
    Res is reduced and its cut certified, else the plain map of lex
    gathered in the nested order of _descent; the block's map from the
    reduction, or where none ran the plain map of the block gathered
    from lex. N is in the rows of that order, and the map's res is lex
    so gathered, with the order and alpha0 recorded."""
    alpha0 = as_divisor(lex.rows.degree.fan, alpha0)
    rows, cols, shapes = plan = _descent(lex.rows, lex.col_blocks, alpha0)
    nested = lex.matrix[np.ix_(rows, cols)]
    cok = below = None
    if _depth(lex, alpha0):
        cok, below = _reduced(lex, plan, corank_only)
    if cok is None:
        cok = eigensolver._plain(nested, corank_only)
    if below is None:
        m1, n1 = shapes[0]
        below = eigensolver._plain(lex.matrix[np.ix_(rows[:m1], cols[:n1])], True)
    cok.res = ResMatrix(lex.rows, lex.col_blocks, nested, plan, alpha0,
                        _gather(lex, rows, alpha0))
    cok.block = below
    return cok


def _check_same_map(got, want):
    """got is the map want, bit for bit, N and its block's map too."""
    assert got.delta_plus == want.delta_plus and got.rank_bounds == want.rank_bounds
    assert np.array_equal(got.R, want.R)
    if want.N is None:
        assert got.N is None
    else:
        assert np.array_equal(got.N, want.N)
    if want.block is not None:
        assert got.block.delta_plus == want.block.delta_plus
        assert np.array_equal(got.block.R, want.block.R)


def _same_cokernel(a, b):
    return (a.delta_plus == b.delta_plus and a.rank_bounds == b.rank_bounds
            and np.array_equal(a.R, b.R)
            and (a.N is b.N is None or np.array_equal(a.N, b.N)))


def test_block_certificate_failure_falls_back():
    """Scaling the block's columns by 1e-14 leaves the block's cut in
    units of a |r_11| far below the norm of Res, so the top cut misses
    the floor of its margin and the reduction gives up. cokernel then
    returns the plain map, one QR of all of Res in the order it was
    assembled in."""
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    plan = _descent(top.rows, top.col_blocks, pair.alpha0)
    rows, cols = _placed(top, pair.alpha0)
    scaled = top.matrix.copy()
    scaled[:, cols] *= 1e-14
    top = ResMatrix(top.rows, top.col_blocks, scaled)
    low = ResMatrix(low.rows, low.col_blocks, low.matrix * 1e-14)
    # the block is still x^b0 times Res at alpha, now scaled
    assert np.array_equal(top.matrix[np.ix_(rows, cols)], low.matrix)
    assert _reduced(top, plan)[0] is None
    nested = _nested(top, pair.alpha0)
    cok = cokernel(nested)
    assert _same_cokernel(cok, cokernel(_plain_res(nested)))
    assert _same_cokernel(cok, one_qr_cokernel(nested))
    assert cok.block.delta_plus == one_qr_cokernel(low, corank_only=True).delta_plus


def _no_structure(top, alpha0):
    """Whether cokernel takes the plain map of top assembled with alpha0:
    the block has no columns or all of them, and there is nothing to
    reduce by."""
    return _depth(top, alpha0) == 0


def test_block_is_ignored_where_it_cannot_help():
    """An empty Res at alpha gives bit-identical results with and without
    alpha0: its order is the identity, with the block's shape recorded,
    so Res is assembled bit for bit as without alpha0, and cokernel makes
    no reduction, one QR of all of Res."""
    systems = {
        "empty at alpha": homogenize(intro_laurent(3.0)),
        "pillow": homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE),
    }
    for name, system in systems.items():
        pair = improved_pair(system)
        low = assemble_res_reference(system, pair.alpha, allow_empty=True)
        top = assemble_res(system, pair.top)
        assert low.shape[1] == 0 and top.shape[0] >= top.shape[1]
        assert _no_structure(top, pair.alpha0)
        with_alpha0 = assemble_res(system, pair.top, pair.alpha0)
        rows, cols, shapes = with_alpha0.order
        assert np.array_equal(rows, np.arange(top.shape[0]))
        assert np.array_equal(cols, np.arange(top.shape[1]))
        assert shapes == [low.shape]
        assert np.array_equal(with_alpha0.matrix, top.matrix)
        for corank_only in (False, True):
            cok = cokernel(with_alpha0, corank_only)
            assert _same_cokernel(cok, cokernel(top, corank_only)), name
            assert _same_cokernel(cok, one_qr_cokernel(top, corank_only)), name
            assert cok.block.delta_plus == low.shape[0]


@pytest.mark.parametrize("name", ["intro", "pillow", "P2 conics"])
def test_one_level_n_is_the_trailing_columns_of_q(name):
    """The plain map's N is Q E with E the unit vectors past the rank,
    turned by one left zunmqr of the one geqp3 of all of Res: bit for bit
    what one_qr_cokernel makes. Every top has that map without alpha0;
    intro and pillow, whose block has no columns, have it with alpha0
    too. Two conics on P^2 have a block with columns (6 x 2 under 10 x
    6), so with alpha0 they are reduced by it, at depth 1, to the same
    cokernel."""
    system = {
        "intro": lambda: homogenize(intro_laurent(3.0)),
        "pillow": lambda: homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE),
        "P2 conics": lambda: _dense_system(np.random.default_rng(0), "P2", [(2,), (2,)]),
    }[name]()
    pair = improved_pair(system)
    top = assemble_res(system, pair.top)
    want = one_qr_cokernel(top).N
    assert want.shape[0] > 0
    assert np.array_equal(cokernel(top).N, want)
    got = _monomial(cokernel(assemble_res(system, pair.top, pair.alpha0)))
    if name == "P2 conics":
        assert _depth(top, pair.alpha0) == 1
        assert _unitary_error(got @ want.conj().T) <= 1e-12
    else:
        assert _no_structure(top, pair.alpha0)
        assert np.array_equal(got, want)


def test_block_map_is_corank_only():
    """The cokernel of a Res assembled with alpha0 carries the certified
    corank-only map of Res at alpha, with the R its cut was certified on:
    one QR of the block when it is factored plain, else the R of its own
    reduction. The map holds no ResMatrix: the block is read off res."""
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    nested = assemble_res(system, pair.top, pair.alpha0)
    for corank_only in (False, True):
        lo = cokernel(nested, corank_only).block
        assert lo.res is None and lo.N is None
        # the block of this tall top is reduced by its own block (depth
        # 2): R is the triangle of that reduction, with the block's
        # singular values
        assert _depth(top, pair.alpha0) == 2
        assert np.array_equal(lo.R, np.triu(lo.R)) and lo.R.shape == (low.shape[1],) * 2
        s = np.linalg.svd(low.matrix, compute_uv=False)
        assert np.allclose(lo.singular_values, s, rtol=1e-10, atol=1e-12 * s[0])
        assert lo.delta_plus == one_qr_cokernel(low, corank_only=True).delta_plus
        rank = low.shape[0] - lo.delta_plus
        lower, upper = lo.rank_bounds
        slack = 1e-13 * s[0]
        assert lower <= s[rank - 1] + slack
        assert upper >= (s[rank] if rank < len(s) else 0.0) - slack
    # without alpha0 there is no block map
    assert cokernel(low).block is None and cokernel(top).block is None
    # a wide Res above: the block factored by one QR of its adjoint, the
    # trapezoid R of that QR kept
    system = lines27_system()
    pair = improved_pair(system)
    wide = assemble_res(system, pair.top, pair.alpha0)
    low = assemble_res(system, pair.alpha)
    assert wide.shape[0] < wide.shape[1] and _tall(low)
    lo = cokernel(wide, corank_only=True).block
    assert lo.N is None and lo.R.shape == low.shape[::-1]
    assert lo.delta_plus == one_qr_cokernel(low, True).delta_plus


def _lines27_pair(seed):
    """(Res at alpha + alpha0, Res at alpha, alpha0) of lines27's
    improved pair."""
    system = lines27_system(seed)
    pair = improved_pair(system)
    return assemble_res(system, pair.top), assemble_res(system, pair.alpha), pair.alpha0


# seed 0 is certified with the coupling a ||X||_F, seeds 1 and 2 need
# ||C1^-1 X||_F itself
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_res_is_reduced_by_its_block(seed):
    """On the 27 lines Res at alpha + alpha0 (441 x 552) is wide. With
    Res at alpha (225 x 210) read off as its block, cokernel factors B =
    [N_lo Res[I, K]; Res[rest, K]], 261 x 342, and lifts B's cokernel
    back: the cokernel the SVD gives, as accurate, and the same coranks
    on the corank-only path."""
    top, low, alpha0 = _lines27_pair(seed)
    rows, cols, shapes = _descent(top.rows, top.col_blocks, alpha0)
    I, J = _placed(top, alpha0)
    assert shapes == [low.shape] == [(len(I), len(J))]
    assert np.array_equal(rows[:len(I)], I) and np.array_equal(cols[:len(J)], J)
    assert (len(I), top.shape[0] - len(I), top.shape[1] - len(J)) == (225, 216, 342)
    nested = _nested(top, alpha0)
    cok = cokernel(nested)
    # the reduced path, not its fallback to one QR of Res^H
    assert cok.R.shape == (261, 261)
    assert cok.delta_plus == cok.block.delta_plus == 45
    N = _monomial(cok)
    assert np.allclose(N @ N.conj().T, np.eye(45), atol=1e-12)
    ref, s = svd_cokernel(top)
    assert np.linalg.norm(N @ top.matrix, 2) <= 10 * TOL_RANK * s[0]
    assert scipy.linalg.subspace_angles(N.conj().T, ref.conj().T).max() <= 1e-8
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        exact = _exact_cokernel(top.matrix, ref).conj().T
        error = [scipy.linalg.subspace_angles(B.conj().T, exact).max() for B in (N, ref)]
        assert error[0] <= 2 * error[1]
    # the certified pair brackets the singular values at the cut
    lower, upper = cok.rank_bounds
    assert lower <= s[395] and upper >= s[396]
    assert lower >= 1e3 * GAP_RATIO * upper
    only = cokernel(nested, corank_only=True)
    assert only.N is None and only.R.shape == (261, 261)
    assert (only.delta_plus, only.block.delta_plus) == (45, 45)


def _section(degree):
    """The lattice points of the section polytope of a DivisorClass, read
    off the polytope itself: the reference for the bases the fan keeps,
    most of which are read off a higher basis (GradedBasis.below)."""
    return degree.polytope().lattice_point_array()


def _placed(top, alpha0, times=1):
    """(I, J) of Res at alpha in Res at alpha + alpha0 (top), from the
    section polytopes: x^(times b0) times Res at the degree of top minus
    times alpha0, b0 the first point of S_alpha0. I are the rows x^(times
    b0) x^a of top in the row order of that Res, J the columns x^(times
    b0) x^c of each of its blocks in its column order; every point
    lands."""
    fan = top.rows.degree.fan
    drop = times * as_divisor(fan, alpha0)
    shift = times * _section(as_divisor(fan, alpha0))[0]
    starts = np.cumsum([0] + top.block_widths())
    I = top.rows.rows(_section(top.rows.degree - drop) + shift)
    J = np.concatenate([start + block.rows(_section(block.degree - drop) + shift)
                        for start, (_, block) in zip(starts, top.col_blocks)])
    assert (I >= 0).all() and (J >= 0).all()
    return I, J


GOLDEN = ["pillow_seed1", "intro_e3_seed0", "lines27_seed0", "dense_p2_d6_seed0"]


def _golden_pair(name, which):
    """(system, pair) of a golden system's default or improved pair."""
    sf = load_system_file(DATA / f"{name}.system.json")
    system = homogenize(sf.laurent(), rays=sf.rays)
    return system, (default_pair if which == "default" else improved_pair)(system)


def _check_placement(system, pair):
    """x^b0 times Res at alpha is res[I, J] of res = Res at alpha +
    alpha0, bit for bit, at the (I, J) cokernel reads it from, and the
    columns J vanish on every row outside I. Returns (res, Res at
    alpha); the latter from the reference when it has no column, where
    assemble_res refuses it."""
    top = assemble_res(system, pair.top)
    I, J = _placed(top, pair.alpha0)
    rows, cols, ((m1, n1), *_) = _descent(top.rows, top.col_blocks, pair.alpha0)
    assert (m1, n1) == (len(I), len(J))
    if len(J):
        assert np.array_equal(np.sort(rows[:m1]), I) and np.array_equal(np.sort(cols[:n1]), J)
        low = assemble_res(system, pair.alpha)
    else:
        # a block with no columns leads nothing: the order is the identity
        assert np.array_equal(rows, np.arange(top.shape[0]))
        assert np.array_equal(cols, np.arange(top.shape[1]))
        low = assemble_res_reference(system, pair.alpha, allow_empty=True)
    assert np.array_equal(top.matrix[np.ix_(I, J)], low.matrix)
    outside = np.ones(top.shape[0], dtype=bool)
    outside[I] = False
    assert outside.sum() == top.shape[0] - len(I)
    assert not top.matrix[outside][:, J].any()
    return top, low


def _dense_pn(n, degree, seed=0):
    """n dense equations of degree `degree` on P^n, Gaussian."""
    pts = [p for p in product(range(degree + 1), repeat=n) if sum(p) <= degree]
    return random_system(np.random.default_rng(seed), [pts] * n,
                         {2: P2_RAYS, 3: P3_RAYS}[n])


# tall tops, reduced at depth 4 (105 x 72) and 2 (78 x 42); wide
# tops, reduced: lines27 441 x 552 and pillow 25 x 26
@pytest.mark.parametrize("name, which", [
    ("dense_p2_d6_seed0", "default"), ("dense_p2_d6_seed0", "improved"),
    ("lines27_seed0", "improved"), ("pillow_seed1", "default")])
def test_placement_holds_res_at_alpha(name, which):
    """x^b0 times Res at alpha is res[I, J], and the columns J vanish on
    every row outside I."""
    top, low = _check_placement(*_golden_pair(name, which))
    assert _tall(top) == (name == "dense_p2_d6_seed0") and low.shape[1] > 0


# the benchmark's dense shapes: P^2 at degree 20 and P^3 at degree 6
@pytest.mark.parametrize("n, degree", [(2, 20), (3, 6)])
def test_placement_holds_on_the_dense_benchmark_shapes(n, degree):
    system = _dense_pn(n, degree)
    top, low = _check_placement(system, improved_pair(system))
    assert _tall(top) and low.shape[1] > 0


# the reduction's depth on them: P^2 at degree 20 goes down to 595 x 210,
# P^3 at degree 6 to 286 x 105
@pytest.mark.parametrize("n, degree, depth", [(2, 20, 6), (3, 6, 6)])
def test_reduction_on_the_dense_benchmark_shapes(n, degree, depth):
    """The reduced N of the dense benchmark shapes is orthonormal, and
    annihilates Res, to 1e-13; delta+ and the block's corank are those
    of the plain maps."""
    system = _dense_pn(n, degree)
    pair = improved_pair(system)
    top = assemble_res(system, pair.top)
    plan = _descent(top.rows, top.col_blocks, pair.alpha0)
    assert _tall(top) and _depth(top, pair.alpha0) == depth
    cok = cokernel(assemble_res(system, pair.top, pair.alpha0))
    N = _monomial(cok)
    # the reduction's map, not the fallback to one QR
    assert np.array_equal(cok.N, _reduced(top, plan)[0].N)
    assert np.abs(N @ N.conj().T - np.eye(len(N))).max() <= 1e-13
    assert np.linalg.norm(N @ top.matrix) <= 1e-13 * np.linalg.norm(top.matrix)
    I, J = _placed(top, pair.alpha0)
    assert cok.delta_plus == eigensolver._plain(top.matrix, True).delta_plus == degree ** n
    assert (cok.block.delta_plus
            == eigensolver._plain(top.matrix[np.ix_(I, J)], True).delta_plus)


@settings(max_examples=30, deadline=None)
@given(system=dense_systems())
def test_placement_holds_on_dense_systems(system):
    _check_placement(system, improved_pair(system))


def _check_read_off_the_top(make, pick, monkeypatch):
    """Every basis below the top that a solve reads, read off the top
    (GradedBasis.below), is the section polytope's: each column block,
    S_alpha, and the rows and columns of every chain level, shifted by
    x^(j b0). Each is the one graded_basis gives. pick (default_pair or
    improved_pair) runs on another fan of the same supports (make), so
    that none of the bases it enumerates are kept by the fan solved on.
    Returns the shapes of the levels."""
    monkeypatch.setattr(cox, "_supports", {})
    pair = pick(make())
    monkeypatch.setattr(cox, "_supports", {})
    system = make()
    fan = system.fan
    pair = RegularityPair(fan.divisor(pair.alpha.a), fan.divisor(pair.alpha0.a),
                          pair.provenance)
    res = assemble_res(system, pair.top, pair.alpha0)
    for (_, block), div in zip(res.col_blocks, system.degrees):
        assert np.array_equal(block.points, _section(res.rows.degree - div))
        assert graded_basis(fan, block.degree) is block
    s_alpha = res.gather[0]
    assert np.array_equal(s_alpha.points, _section(pair.alpha))
    assert graded_basis(fan, pair.alpha) is s_alpha
    for basis in [s_alpha] + [b for _, b in res.col_blocks]:
        assert np.array_equal(basis.exponents,
                              basis.points @ np.array(fan.rays).T + basis.degree.a)
    rows, cols, shapes = res.order
    for j, (m, n) in enumerate(shapes, 1):
        I, J = _placed(res, pair.alpha0, j)
        assert (m, n) == (len(I), len(J))
        if shapes[0][1]:
            assert np.array_equal(np.sort(rows[:m]), I) and np.array_equal(np.sort(cols[:n]), J)
    return shapes


@pytest.mark.parametrize("name", GOLDEN)
@pytest.mark.parametrize("which", ["default", "improved"])
def test_bases_read_off_the_top_are_the_polytopes(name, which, monkeypatch):
    sf = load_system_file(DATA / f"{name}.system.json")
    _check_read_off_the_top(lambda: homogenize(sf.laurent(), rays=sf.rays),
                            default_pair if which == "default" else improved_pair,
                            monkeypatch)


def test_bases_read_off_a_tall_top_are_the_polytopes(monkeypatch):
    """P^2 at degree 20, default pair: eight chain levels."""
    shapes = _check_read_off_the_top(lambda: _dense_pn(2, 20), default_pair, monkeypatch)
    assert len(shapes) == 8


@pytest.mark.parametrize("make", [lines27_system, lambda: _dense_pn(2, 20)],
                         ids=["lines27", "P2 degree 20"])
def test_one_enumeration_after_the_pair(make, monkeypatch):
    """On a fresh fan, once the pair is chosen, the Res, its cokernel and
    the family enumerate at most one section polytope, the top's: every
    other basis they read is read off the top."""
    monkeypatch.setattr(cox, "_supports", {})
    system = make()
    pair = improved_pair(system)
    calls = []
    enumerate_ = Polytope.from_inequalities.__func__

    def counted(cls, rays, a):
        calls.append(a)
        return enumerate_(cls, rays, a)

    monkeypatch.setattr(Polytope, "from_inequalities", classmethod(counted))
    family = multiplication_family(cokernel(assemble_res(system, pair.top, pair.alpha0)))
    assert family.delta_plus > 0
    assert calls in ([], [pair.top.a])


def test_reduction_falls_back_when_its_bound_misses():
    """A Kahan block in place of Res at alpha inside Res at alpha +
    alpha0: the tail its QR leaves, about 4e-9 of its |r_11|, is too
    large for the margin 10 upper <= TOL_RANK top of the top cut, so the
    bound on that cut misses, and cokernel returns exactly the map one
    QR of Res^H gives, as without the block. Likewise on a tall top whose
    block's columns are scaled by 1e-14 (as in
    test_block_certificate_failure_falls_back). Both Res are in the
    nested order assemble_res writes with alpha0: the fallback runs on
    that Res as it stands, so its map is the plain map of the nested
    matrix bit for bit, N in the rows of the order the Res records, where
    it spans the cokernel the lexicographic top gives."""
    top, low, alpha0 = _lines27_pair(0)
    I, J = _placed(top, alpha0)
    assert np.array_equal(top.matrix[np.ix_(I, J)], low.matrix)
    kahan = np.zeros(low.shape, dtype=complex)
    kahan[:64, :64] = _kahan(64)
    planted = top.matrix.copy()
    planted[np.ix_(I, J)] = kahan
    top = ResMatrix(top.rows, top.col_blocks, planted)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(np.random.default_rng(5), [p2_dense, p2_dense], P2_RAYS)
    pair = improved_pair(system)
    tall = assemble_res(system, pair.top)
    scaled = tall.matrix.copy()
    scaled[:, _placed(tall, pair.alpha0)[1]] *= 1e-14
    tall = ResMatrix(tall.rows, tall.col_blocks, scaled)
    for lex, alpha0 in ((top, alpha0), (tall, pair.alpha0)):
        nested = _nested(lex, alpha0)
        assert _depth(lex, alpha0)
        for corank_only in (False, True):
            cok = cokernel(nested, corank_only)
            assert _same_cokernel(cok, cokernel(_plain_res(nested), corank_only))
            _check_same_map(cok, _reference_map(lex, alpha0, corank_only))
            plain = cokernel(lex, corank_only)
            assert cok.delta_plus == plain.delta_plus
            if not corank_only:
                assert _unitary_error(_monomial(cok) @ plain.N.conj().T) <= 1e-10
            if lex is top:
                # the SVD of the block's R decides its cut: Kahan's rank is 63
                assert cok.block.delta_plus == low.shape[0] - 63


# seed 1 needs the coupling ||C1^-1 X||_F to certify its top cut
@pytest.mark.parametrize("exit", ["no margin", "B raises", "coupling misses",
                                  "no column", "every column"])
def test_reduction_exits_return_the_plain_map(exit, monkeypatch):
    """Wherever the reduction of a wide Res gives up, cokernel returns
    exactly the map it gives without a block, one QR of Res^H in the
    order Res was assembled in, and the block's corank. On the 27 lines: a block whose adjoint is Kahan's
    matrix, so that the QR of the adjoint leaves R22 above half the
    block's sigma_r; a B whose values straddle its cut with no gap, a
    tenth the scale of Res, whose cut they clear; the coupling bound
    infinite; and a block with no column (alpha0 the degree of Res, so
    Res at degree 0) or with every column (alpha0 = 0, Res itself), which
    leaves nothing to reduce."""
    system = lines27_system(1)
    pair = improved_pair(system)
    top = assemble_res(system, pair.top)
    low = assemble_res(system, pair.alpha)
    alpha0 = pair.alpha0
    I, J = _placed(top, alpha0)
    planted = top.matrix.copy()
    if exit == "no margin":
        kahan = np.zeros(low.shape, dtype=complex)
        kahan[:64, :64] = _kahan(64).conj().T
        planted[np.ix_(I, J)] = kahan
        low = ResMatrix(low.rows, low.col_blocks, kahan)
        R, rank, (lower, _) = eigensolver._factor(kahan.conj().T, False)[:3]
        assert lower <= 2 * np.linalg.norm(R[rank:, rank:])
    elif exit == "B raises":
        rest = np.setdiff1d(np.arange(top.shape[0]), I)
        K = np.setdiff1d(np.arange(top.shape[1]), J)
        planted[np.ix_(I, K)] = 0.0
        planted[np.ix_(rest, K)] = 0.1 * _planted(0, len(rest), len(K), 200, 0.0, 7.5).matrix
    elif exit == "no column":
        alpha0 = pair.top
        low = assemble_res_reference(system, [0] * system.k, allow_empty=True)
    elif exit == "every column":
        alpha0 = [0] * system.k
        low = top
    top = ResMatrix(top.rows, top.col_blocks, planted)
    assert _no_structure(top, alpha0) == exit.endswith("column")
    couplings, raised = [], []
    if exit == "coupling misses":
        monkeypatch.setattr(eigensolver, "_coupling",
                            lambda *args: couplings.append(args) or np.inf)
    factor = eigensolver._factor

    def spied(T, reveal):
        try:
            return factor(T, reveal)
        except RankAmbiguousError:
            raised.append(T.shape)
            raise

    monkeypatch.setattr(eigensolver, "_factor", spied)
    nested = _nested(top, alpha0)
    for corank_only in (False, True):
        cok = cokernel(nested, corank_only)
        assert _same_cokernel(cok, cokernel(_plain_res(nested), corank_only))
        assert cok.block.delta_plus == cokernel(low, corank_only=True).delta_plus
    # B is 261 x 342, factored as B^H; its cut raised on both calls, and
    # only its
    assert raised == [(342, 261)] * 2 * (exit == "B raises")
    assert len(couplings) == 2 * (exit == "coupling misses")


def test_block_that_is_no_level_takes_the_plain_map():
    """A block that is factored by one QR has the map cokernel(block,
    corank_only=True) gives: one under a tall Res reduced at depth 1
    (two conics on P^2: 6 x 2 under 10 x 6, whose block 3 x 0 has no
    columns), one with no columns under a tall Res (pillow), and a wide
    Res as its own block (pillow's default pair with alpha0 = 0, 25 x
    26); the latter two take the plain map."""
    system = _dense_system(np.random.default_rng(0), "P2", [(2,), (2,)])
    pair = improved_pair(system)
    pillow, improved = _golden_pair("pillow_seed1", "improved")
    wide = assemble_res(pillow, default_pair(pillow).top)
    cases = [(assemble_res(system, pair.top), pair.alpha0, assemble_res(system, pair.alpha)),
             (assemble_res(pillow, improved.top), improved.alpha0,
              assemble_res_reference(pillow, improved.alpha, allow_empty=True)),
             (wide, [0] * pillow.k, wide)]
    assert [_depth(top, alpha0) for top, alpha0, _ in cases] == [1, 0, 0]
    for top, alpha0, low in cases:
        for corank_only in (False, True):
            lo = cokernel(_nested(top, alpha0), corank_only).block
            assert _same_cokernel(lo, cokernel(low, corank_only=True))
    assert [low.shape for *_, low in cases] == [(6, 2), (4, 0), (25, 26)]


def test_top_cut_reuses_the_certificate_at_alpha(monkeypatch):
    """The top R11 is [[A, X], [0, C]] with A the R11 certified at alpha,
    the block's: trtri inverts all of A, then only C, B's, never the top
    R11 whole, and the bound a^2 + c^2 + (a ||X|| c)^2 on its inverse
    makes a lower bound at most 1 / ||R11^-1||_F."""
    system = p3_system(3)
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top, pair.alpha0)
    assert _depth(top, pair.alpha0) == 3
    trtri, sizes = scipy.linalg.lapack.ztrtri, []
    monkeypatch.setattr(scipy.linalg.lapack, "ztrtri",
                        lambda a, **kwargs: sizes.append(len(a)) or trtri(a, **kwargs))
    cok = cokernel(top)
    rank = top.shape[0] - cok.delta_plus
    low_rank = low.shape[0] - cok.block.delta_plus
    assert 0 < low_rank < rank
    assert sizes == [low_rank, rank - low_rank]
    R11 = cok.R[:rank, :rank]
    assert np.array_equal(R11, np.triu(R11))
    lower, upper = cok.rank_bounds
    assert lower <= 1 / np.linalg.norm(trtri(R11)[0])
    s = np.linalg.svd(cok.R, compute_uv=False)
    assert lower <= s[rank - 1] and upper >= s[rank]


def test_alpha0_without_sections_rejected():
    rng = np.random.default_rng(5)
    p2_dense = [p for p in np.ndindex(7, 7) if sum(p) <= 6]
    system = random_system(rng, [p2_dense, p2_dense], P2_RAYS)
    # S_(-1) has no sections: no Res at degree 12 sits in Res at 11
    for _ in range(2):
        with pytest.raises(InputError, match="no sections"):
            assemble_res(system, (0, 0, 11), (0, 0, -1))
    # Res at 10 (66 x 30) sits in it by S_1
    low = assemble_res(system, (0, 0, 10))
    assert low.shape == (66, 30)
    assert (cokernel(assemble_res(system, (0, 0, 11), (0, 0, 1))).block.delta_plus
            == cokernel(low, corank_only=True).delta_plus)


@pytest.mark.parametrize("name, pair", TRIVIAL_ALPHA0)
def test_trivial_alpha0_stops_the_chain(name, pair):
    """Every Res down a chain of steps alpha0 trivial in the class group
    has the shape of Res itself: the block is all of Res, so the chain
    stops at it and cokernel takes the plain map. On the pair built
    directly, verify_pair gives two equal coranks; user_pair, and so
    solve, refuses it with SpanError, as the one point of S_alpha0 spans
    nothing."""
    laurent, rays = trivial_alpha0_laurent(name)
    system = homogenize(laurent, rays=rays)
    alpha0 = system.fan.divisor(pair[1])
    assert alpha0.degree() == (0 * alpha0).degree()
    assert len(graded_basis(system.fan, alpha0)) == 1
    top = assemble_res(system, system.fan.divisor(pair[0]) + alpha0)
    assert _descent(top.rows, top.col_blocks, alpha0)[2] == [top.shape]
    built = RegularityPair(system.fan.divisor(pair[0]), alpha0, Provenance.USER_SUPPLIED)
    lo, hi = verify_pair(system, built)
    assert lo == hi == cokernel(top, corank_only=True).delta_plus
    with pytest.raises(SpanError):
        user_pair(system, *pair)
    with pytest.raises(SpanError):
        solve(system, pair=pair)


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
            if want.shape[1] == 0:
                # too low a degree: the plan is built and reused, and raises
                with pytest.raises(InputError, match="degree too low"):
                    assemble_res(system, beta)
                continue
            got = assemble_res(system, beta)
            assert got.rows is want.rows
            assert got.col_blocks == want.col_blocks
            assert np.array_equal(got.matrix, want.matrix)


def _family_outcome(cok):
    """The family of cok at seed 0, or the type of the error it raised."""
    try:
        return multiplication_family(cok, seed=0)
    except (InputError, BasepointError) as exc:
        return type(exc)


def _check_nested_order(system, pair):
    """Res assembled with alpha0 is the lexicographic Res at the order it
    records, bit for bit, on the call that builds the fan's composed
    scatter and on the one that reuses it: the nested order of _descent,
    the identity where the block has no columns. It records alpha0. Its
    maps are those of _reference_map bit for bit, N in that order, and
    so is its family."""
    fan = system.fan
    for key in [k for k in fan._store if k[0] == "res"]:
        del fan._store[key]
    lex = assemble_res(system, pair.top)
    assert lex.order is None and lex.gather is None
    orders = []
    for _ in range(2):
        res = assemble_res(system, pair.top, pair.alpha0)
        assert res.rows is lex.rows and res.col_blocks == lex.col_blocks
        assert res.alpha0 is pair.alpha0
        rows, cols, ((_, n1), *_) = res.order
        assert _same_plan(res.order, _descent(lex.rows, lex.col_blocks, pair.alpha0))
        assert np.array_equal(res.matrix, lex.matrix[np.ix_(rows, cols)])
        if not n1:
            assert np.array_equal(res.matrix, lex.matrix)
        orders.append(res.order)
    # the second call reads the plan the first one built
    assert orders[0] is orders[1]
    for corank_only in (True, False):
        got = cokernel(res, corank_only)
        want = _reference_map(lex, pair.alpha0, corank_only)
        _check_same_map(got, want)
    if want.delta_plus:
        a, b = (_family_outcome(cok) for cok in (got, want))
        if isinstance(b, type):
            assert a is b
        else:
            assert np.array_equal(a.stack, b.stack)
            assert a.basis_columns == b.basis_columns and a.cond == b.cond


@settings(max_examples=40, deadline=None)
@given(system=st.one_of(dense_systems(), tall_systems()))
def test_nested_res_is_the_lexicographic_res_permuted(system):
    _check_nested_order(system, improved_pair(system))


@pytest.mark.parametrize("name, which", [
    ("dense_p2_d6_seed0", "default"), ("dense_p2_d6_seed0", "improved"),
    ("lines27_seed0", "improved"), ("pillow_seed1", "default")])
def test_nested_res_on_the_golden_pairs(name, which):
    _check_nested_order(*_golden_pair(name, which))


@pytest.mark.parametrize("seed", [0, 1])
def test_nested_res_on_lines27(seed):
    """On the 27 lines solve reads Res in place: the wide top is nested
    and reduced, and N stays in its order, where it annihilates Res."""
    system = lines27_system(seed)
    pair = improved_pair(system)
    _check_nested_order(system, pair)
    res = assemble_res(system, pair.top, pair.alpha0)
    cok = cokernel(res)
    assert _depth(res, pair.alpha0) and cok.R.shape == (261, 261)
    s1 = np.linalg.norm(res.matrix, 2)
    assert np.linalg.norm(cok.N @ res.matrix, 2) <= 10 * TOL_RANK * s1


@pytest.mark.parametrize("which", ["default", "improved"])
@pytest.mark.parametrize("name", GOLDEN)
def test_one_order_on_the_golden_pairs(name, which):
    """Every Res assembled with alpha0 records its order, with the block
    leading: res.matrix[:m1, :n1] is x^b0 times Res at alpha, in the
    order of the block's own rows and columns, and its columns vanish
    on the other rows. A block with no columns gives the identity order,
    so Res is the one assembled without alpha0, bit for bit. N, in the
    rows of that order, annihilates res.matrix to rounding, and the
    block's map has the corank the SVD of the block gives."""
    system, pair = _golden_pair(name, which)
    lex = assemble_res(system, pair.top)
    res = assemble_res(system, pair.top, pair.alpha0)
    rows, cols, ((m1, n1), *_) = res.order
    I, J = _placed(lex, pair.alpha0)
    assert (m1, n1) == (len(I), len(J))
    if n1:
        low = assemble_res(system, pair.alpha)
        at = np.ix_(np.searchsorted(I, rows[:m1]), np.searchsorted(J, cols[:n1]))
        assert np.array_equal(res.matrix[:m1, :n1], low.matrix[at])
        assert not res.matrix[m1:, :n1].any()
        s = np.linalg.svd(low.matrix, compute_uv=False)
        block_corank = m1 - int(np.sum(s > TOL_RANK * s[0]))
    else:
        assert np.array_equal(rows, np.arange(lex.shape[0]))
        assert np.array_equal(cols, np.arange(lex.shape[1]))
        assert np.array_equal(res.matrix, lex.matrix)
        block_corank = m1
    cok = cokernel(res)
    assert cok.N.shape == (cok.delta_plus, lex.shape[0])
    size = np.linalg.norm(res.matrix, 2)
    assert np.linalg.norm(cok.N @ res.matrix, 2) <= 1e-13 * size
    assert cok.block.delta_plus == block_corank


# the most a warm lines27 solve may hold at once, in units of the bytes of
# Res: it holds Res and a working set of about 1.2 Res (8.7 MB against
# the 3.9 MB of the 441 x 552 Res); a second Res-sized array alive in the
# cokernel's working set, as a gather of Res into the nested order was,
# puts the peak at 3.4 Res or more
PEAK_RES_MAX = 3.0


def test_warm_lines27_solve_holds_no_second_res():
    """One fixed warm lines27 solve under tracemalloc, which numpy reports
    its buffers to: the traced peak stays below PEAK_RES_MAX times the
    bytes of Res."""
    system = lines27_system(0)
    pair = improved_pair(system)
    res_bytes = assemble_res(system, pair.top, pair.alpha0).matrix.nbytes
    solve(system, seed=0)
    tracemalloc.start()
    try:
        solve(system, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_RES_MAX * res_bytes, f"peak {peak / res_bytes:.2f} Res"


# ------------------------------------------------- multiplication family

PILLOW_PAIR = ((2, 2, 2, 2), (1, 1, 1, 1))


def pillow_family(rays=PILLOW_RAYS_SOLVE, seed=0):
    system = homogenize(pillow_laurent(), rays=rays)
    res = assemble_res(system, (3, 3, 3, 3), PILLOW_PAIR[1])
    cok = cokernel(res)
    return system, multiplication_family(cok, seed=seed)


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
    cok = cokernel(assemble_res(system, (3, 3, 3, 3), PILLOW_PAIR[1]))
    members = len(graded_basis(system.fan, PILLOW_PAIR[1]))
    family = multiplication_family(cok, seed=11)
    want = draws_reference(11, 1, members, rejected + 1)[rejected]
    assert np.array_equal(family.h0_coeffs, want)
    monkeypatch.setattr(eigensolver, "_restriction_cond", lambda R11, sub: np.inf)
    with pytest.raises(BasepointError):
        multiplication_family(cok, seed=11)


def _planted_conds(monkeypatch, conds):
    """The restriction of the i-th h_0 draw is conditioned conds[i]; the
    list returned holds the conditions of the draws tried."""
    tried = []
    monkeypatch.setattr(eigensolver, "_restriction_cond",
                        lambda R11, sub: tried.append(conds[len(tried)]) or tried[-1])
    return tried


@pytest.mark.parametrize("conds, taken", [
    ((3e6, 2e5, 5e4, 1.0), 2),  # the first draw within H0_COND_TARGET
    ((3e6, 2e5, 4e6, 1e7), 1),  # none within it: the best of all draws
    ((2e5, 9e7, 2e5, 3e5), 0),  # of two equal best, the earlier
])
def test_family_takes_a_better_later_draw(monkeypatch, conds, taken):
    """A draw conditioned above H0_COND_TARGET, though within COND_MAX,
    is taken only when no draw of the stream is within the target and
    none is better conditioned."""
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    cok = cokernel(assemble_res(system, (3, 3, 3, 3), PILLOW_PAIR[1]))
    members = len(graded_basis(system.fan, PILLOW_PAIR[1]))
    tried = _planted_conds(monkeypatch, conds)
    family = multiplication_family(cok, seed=11)
    assert len(tried) == (taken + 1 if conds[taken] <= H0_COND_TARGET else RETRIES_MAX + 1)
    assert family.cond == conds[taken]
    assert np.array_equal(family.h0_coeffs,
                          draws_reference(11, 1, members, taken + 1)[taken])
    # the family of that draw, as when it is the first one accepted
    _planted_conds(monkeypatch, [np.inf] * taken + [1.0])
    assert np.array_equal(family.stack,
                          multiplication_family(cok, seed=11).stack)
    # the best draw beyond COND_MAX is a basepoint, though it is finite
    _planted_conds(monkeypatch, [np.inf, 5 * COND_MAX, np.inf, np.inf])
    with pytest.raises(BasepointError):
        multiplication_family(cok, seed=11)


def test_one_point_system_eigenvalue_ratio():
    # x1 - 2 x2 vanishes at t = 2; the family eigenvalues are x_i / h0
    system = p1_system([((1,), 1.0), ((0,), -2.0)])
    res = assemble_res(system, (0, 2), (0, 1))
    cok = cokernel(res)
    assert cok.delta_plus == 1
    fam = multiplication_family(cok)
    lam_x1 = fam.matrices[(1, 0)][0, 0]
    lam_x2 = fam.matrices[(0, 1)][0, 0]
    assert lam_x1 / lam_x2 == pytest.approx(2.0, abs=1e-10)


def test_family_refuses_a_map_it_cannot_read():
    """The family needs N and the multiplier degree: a corank-only map,
    the block's map among them, and the map of a Res assembled without
    alpha0 raise an InputError that names which is missing."""
    sf = load_system_file(DATA / "pillow_seed1.system.json")
    system = homogenize(sf.laurent(), rays=sf.rays)
    pair = improved_pair(system)
    res = assemble_res(system, pair.top, pair.alpha0)
    for cok in (cokernel(res, corank_only=True), cokernel(res).block):
        with pytest.raises(InputError, match="corank-only: it has no N"):
            multiplication_family(cok)
    with pytest.raises(InputError, match="assembled without alpha0"):
        multiplication_family(cokernel(assemble_res(system, pair.top)))


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
    res = assemble_res(system, (0, 2), (0, 1))
    fam = multiplication_family(cokernel(res))
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
    res = assemble_res(system, (2, 2, 2, 2), (1, 1, 1, 1))
    cok = cokernel(res)
    assert cok.delta_plus == 0
    fam = multiplication_family(cok)
    clusters = schur_cluster(fam)
    assert clusters.block_sizes == ()
    assert clusters.tables.shape == (0, len(fam.monomials))


# ------------------------------------ stacked family and Schur reads
# The family and the Schur reads as they were before they were stacked:
# one lu_solve per member, and one Z^H M Z product, leakage norm and
# trace table column per member. The stacked code must reproduce them.
# From delta_plus = SPAN_MIN_DELTA on, schur_cluster transforms only the
# members outside span{h_0, driver} and reads the others off I and T:
# those carry the rounding of I, T and the transformed members, not of
# their own product. The tests below lower SPAN_MIN_DELTA to 0 to read
# small families off the span too.


def reference_family_matrices(cok, system, pair, family):
    s_alpha = graded_basis(system.fan, pair.alpha)
    s_alpha0 = family.alpha0_basis
    rows, N = cok.res.rows, _monomial(cok)
    columns = list(family.basis_columns)
    n_b = [N[:, rows.rows(m + s_alpha.points)] for m in s_alpha0.points]
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
    return system, pair, cokernel(assemble_res(system, pair.top, pair.alpha0))


@pytest.mark.parametrize("name", ["pillow", "intro e=3", "lines27"])
def test_stacked_family_and_schur_reads_match_per_member(name):
    system, pair, cok = _family_case(name)
    family = multiplication_family(cok, seed=3)
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
    assert_reads_match_per_member(family, clustering, tables, by_member, seed=3)


@pytest.mark.parametrize("name", ["pillow", "intro e=3", "lines27"])
def test_span_reads_match_per_member(name, monkeypatch):
    """The families above, read off span{h_0, driver}."""
    monkeypatch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
    system, pair, cok = _family_case(name)
    family = multiplication_family(cok, seed=3)
    want = reference_family_matrices(cok, system, pair, family)
    clustering = schur_cluster(family, seed=3)
    sizes, tables, by_member = reference_schur_cluster(want, family.monomials, seed=3)
    assert clustering.block_sizes == sizes
    assert len(reference_span(family, seed=3)) == 2
    assert_reads_match_per_member(family, clustering, tables, by_member, seed=3)


@pytest.mark.parametrize("span", [False, True], ids=["members", "span"])
def test_schur_transforms_members_once_per_basis(span, monkeypatch):
    """The lines27 family widens its gap; a reordering that swaps nothing
    keeps Z0, and the next attempt reads the members the last one
    transformed. The clustering is bit for bit the one that transforms
    them afresh on every attempt (a copy of each Z forces that)."""
    if span:
        monkeypatch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
    _, _, cok = _family_case("lines27")
    family = multiplication_family(cok, seed=3)
    reads, below, reorder = [], eigensolver._below_block_norm, eigensolver._reorder
    monkeypatch.setattr(eigensolver, "_below_block_norm",
                        lambda Tb, labels: reads.append(Tb) or below(Tb, labels))
    kept = schur_cluster(family, seed=3)
    assert kept.cluster_gap > CLUSTER_GAP
    assert len({id(Tb) for Tb in reads}) < len(reads)

    def afresh(T, Z, labels):
        T, Z, labels = reorder(T, Z, labels)
        return T, Z.copy(), labels

    monkeypatch.setattr(eigensolver, "_reorder", afresh)
    reads.clear()
    fresh = schur_cluster(family, seed=3)
    assert len({id(Tb) for Tb in reads}) == len(reads) > 1
    assert (kept.block_sizes, kept.cluster_gap, kept.leakage, kept.leakage_by_member) == (
        fresh.block_sizes, fresh.cluster_gap, fresh.leakage, fresh.leakage_by_member)
    assert kept.tables.tobytes() == fresh.tables.tobytes()


def reference_span(family, seed):
    """The members schur_cluster reads off span{h_0, driver}."""
    if family.delta_plus < eigensolver.SPAN_MIN_DELTA:
        return set()
    (driver,) = draws_reference(seed, 2, len(family.monomials), 1)
    size = np.linalg.norm(family.stack, axis=(1, 2))
    return set(eigensolver._span(family.h0_coeffs, driver, size))


def assert_reads_match_per_member(family, clustering, tables, by_member, seed):
    """A member transformed itself matches the reference's table column
    to 1e-13 of the largest table entry and its leakage to rel 1e-13. A
    member read off the span is held to the rounding of its own size:
    its table column to 1e-13 ||M_b||_F (on lines27 the members reach
    ||M_b||_F = 8777 against tables of size 2, and the reference's own
    product rounds at 5e-13 there), and its leakage also to 10 eps
    delta_plus absolute, the rounding of one product: T's exact zeros
    below the blocks stand where the reference's product holds noise."""
    assert len(clustering.leakage_by_member) == len(by_member) == len(family.monomials)
    span = reference_span(family, seed)
    size = np.linalg.norm(family.stack, axis=(1, 2))
    scale = np.abs(tables).max(initial=0.0)
    for b, (got, ref) in enumerate(zip(clustering.leakage_by_member, by_member)):
        error = np.abs(clustering.tables[:, b] - tables[:, b]).max(initial=0.0)
        if b in span:
            assert error <= 1e-13 * max(1.0, size[b])
            assert got == pytest.approx(ref, rel=1e-13, abs=10 * EPS * family.delta_plus)
        else:
            assert error <= 1e-13 * scale
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def _family_of_size(system, kind, ray):
    """A family on system with a chosen multiplier degree: none (alpha0 =
    0, one member), a ray divisor (two members on P^1 x P^1, F_1 and
    P(1,1,2)), the improved alpha0, or twice it. alpha is the improved
    pair's top, whose sections carry every restriction; None when the
    corank moves or h_0 finds basepoints."""
    fan = system.fan
    pair = improved_pair(system)
    alpha0 = as_divisor(fan, pair.alpha0)
    alpha0 = {"none": 0 * alpha0,
              "ray": fan.divisor(tuple(int(i == ray % fan.k) for i in range(fan.k))),
              "alpha0": alpha0, "twice": 2 * alpha0}[kind]
    top = as_divisor(fan, pair.top)
    cok = cokernel(assemble_res(system, top + alpha0, alpha0))
    if cok.delta_plus != cokernel(assemble_res(system, top), corank_only=True).delta_plus:
        return None
    try:
        return multiplication_family(cok, seed=ray)
    except BasepointError:
        return None


@settings(max_examples=30, deadline=None)
@given(system=dense_systems(), kind=st.sampled_from(["none", "ray", "alpha0", "twice"]),
       ray=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
@example(system=_dense_system(np.random.default_rng(0), "P1xP1", [(1, 1), (1, 2)]),
         kind="none", ray=0, seed=0)
@example(system=_dense_system(np.random.default_rng(1), "P1xP1", [(1, 1), (1, 2)]),
         kind="ray", ray=0, seed=1)
@example(system=_dense_system(np.random.default_rng(2), "P2", [(2,), (2,)]),
         kind="alpha0", ray=0, seed=2)
@example(system=_dense_system(np.random.default_rng(3), "Hirzebruch", [(2, 1), (1, 1)]),
         kind="twice", ray=0, seed=3)
def test_schur_tables_from_the_span_match_per_member(system, kind, ray, seed):
    """Every member's table column and leakage, read from I, T and the
    members outside span{h_0, driver}, match the reference that
    transforms each member of the stack, for families of one, two, three
    and more members."""
    family = _family_of_size(system, kind, ray)
    assume(family is not None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
        clustering = schur_cluster(family, seed=seed)
        sizes, tables, by_member = reference_schur_cluster(
            family.matrices, family.monomials, seed=seed)
        assert clustering.block_sizes == sizes
        assert_reads_match_per_member(family, clustering, tables, by_member, seed)


def test_a_family_at_the_crossover_is_read_off_the_span():
    """Dense P^2 at degree 10, delta_plus = SPAN_MIN_DELTA = 100: one of
    the three members is transformed, the other two are read off I and
    T, and all match the per-member reference."""
    system = _dense_system(np.random.default_rng(0), "P2", [(10,), (10,)])
    family = _family_of_size(system, "alpha0", 0)
    assert family.delta_plus == eigensolver.SPAN_MIN_DELTA and len(family.monomials) == 3
    counts = _record_products(family)
    clustering = schur_cluster(family, seed=0)
    assert set(counts) == {1}
    family.stack = family.stack.view(np.ndarray)
    sizes, tables, by_member = reference_schur_cluster(
        family.matrices, family.monomials, seed=0)
    assert clustering.block_sizes == sizes
    assert len(reference_span(family, 0)) == 2
    assert_reads_match_per_member(family, clustering, tables, by_member, 0)


def _record_products(family):
    """Make family.stack record how many of its members enter each matrix
    product; returns the list of those counts."""
    counts = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                counts.extend(len(x) for x in inputs if isinstance(x, Recorded))
            plain = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    family.stack = family.stack.view(Recorded)
    return counts


WARM_CASES = {
    "P^1": ([[((2,), 1.0), ((1,), -3.0), ((0,), 2.0)]], {"rays": P1_RAYS}),
    "pillow": (pillow_laurent(), {"rays": PILLOW_RAYS_SOLVE, "seed": 1}),
    "intro e=3": (intro_laurent(1e-3), {"rays": HIRZEBRUCH_RAYS}),
    "dense P^2 degree 6": ("dense_p2_d6_seed0", {}),
    "lines27": ("lines27_seed0", {}),
}


@pytest.mark.parametrize("span", [False, True])
@pytest.mark.parametrize("name", list(WARM_CASES))
def test_warm_solve_transforms_only_the_members_outside_the_span(name, span, monkeypatch):
    """Read off the span, a warm solve's Schur step multiplies Z^H M Z for
    the m - 2 members outside span{h_0, driver} alone, in one batched
    product per clustering, and with m <= 2 transforms no member. Below
    SPAN_MIN_DELTA, as all these families are, it transforms all m."""
    if span:
        monkeypatch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
    eqs, kwargs = WARM_CASES[name]
    if isinstance(eqs, str):
        sf = load_system_file(DATA / f"{eqs}.system.json")
        eqs, kwargs = sf.laurent(), {"rays": sf.rays}
    solve(eqs, **kwargs)
    counts, made = [], multiplication_family

    def recorded(*args, **kw):
        family = made(*args, **kw)
        counts.append(_record_products(family))
        return family

    monkeypatch.setattr(solver, "multiplication_family", recorded)
    result = solve(eqs, **kwargs)
    m = len(graded_basis(result.system.fan, result.pair.alpha0))
    assert result.delta_plus < SPAN_MIN_DELTA
    assert len(counts) == 1 and counts[0]
    assert set(counts[0]) == {max(m - 2, 0) if span else m}
    if name == "P^1":
        assert m == 2


def test_one_member_family_is_read_off_the_identity(monkeypatch):
    """alpha0 = 0: the one member is I / h_0, and no member is transformed."""
    monkeypatch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    family = _family_of_size(system, "none", 0)
    counts = _record_products(family)
    clustering = schur_cluster(family, seed=0)
    assert set(counts) == {0}
    assert clustering.block_sizes == (family.delta_plus,)
    assert clustering.tables == pytest.approx(1.0 / family.h0_coeffs[None], rel=1e-15)
    assert clustering.leakage == 0.0


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 12), h0_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
       sizes=st.lists(st.sampled_from([1e-16, 1e-3, 1.0, 30.0]), min_size=12, max_size=12))
def test_span_bounds_the_coefficients_of_the_span_members(m, h0_seed, seed, sizes):
    """With the span _span picks, every coefficient of a span member over
    a transformed member has modulus at most their ratio of sizes: a
    member read off the span carries errors relative to its own size."""
    (h0,) = draws_reference(h0_seed, 1, m, 1)
    (driver,) = draws_reference(seed, 2, m, 1)
    size = np.array(sizes[:m])
    span = eigensolver._span(h0, driver, size)
    assert span[0] != span[1]
    outside = [a for a in range(m) if a not in span]
    G = np.linalg.inv(np.concatenate(([h0, driver], np.eye(m)[outside])))
    scaled = np.abs(G[list(span), 2:]) * size[outside] / size[list(span), None]
    assert scaled.max(initial=0.0) <= 1.0 + 1e-12


def test_a_vanishing_member_is_transformed_itself(monkeypatch):
    """Pillow's member x^(2,0,2,0) / h_0 vanishes at both points (its
    size sits at the rounding floor): it is never read off the span,
    whose entries carry errors at the scale of the other members."""
    monkeypatch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
    system, pair, cok = _family_case("pillow")
    for seed in range(20):
        family = multiplication_family(cok, seed=seed)
        size = np.linalg.norm(family.stack, axis=(1, 2))
        zero = family.monomials.index((2, 0, 2, 0))
        assert size[zero] <= 1e-14 * size.max()
        assert zero not in reference_span(family, seed)


def test_an_exactly_zero_span_entry_is_read_per_member(monkeypatch):
    """On pillow seed 364 a member read off the span has a table entry
    that cancels to exactly 0.0. It is transformed itself, and both double
    points stay boundary points; read off the span, one came back as a
    point of the torus."""
    monkeypatch.setattr(eigensolver, "SPAN_MIN_DELTA", 0)
    system, pair, cok = _family_case("pillow")
    family = multiplication_family(cok, seed=364)
    counts = _record_products(family)
    clustering = schur_cluster(family, seed=364)
    assert counts == [len(family.monomials) - 2, 1]
    assert clustering.tables.all()
    family.stack = family.stack.view(np.ndarray)
    sizes, tables, by_member = reference_schur_cluster(
        family.matrices, family.monomials, seed=364)
    assert_reads_match_per_member(family, clustering, tables, by_member, seed=364)
    result = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=364)
    assert sorted(tuple(sorted(s.zero_pattern)) for s in result.solutions) == [(0,), (2,)]


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
        return system, pair, cokernel(assemble_res(system, pair.top, pair.alpha0))
    return _family_case(name)


def scipy_family(cok, system, pair, seed):
    """(stack, basis_columns, cond) of multiplication_family, with the
    pivoted QR, LU and solve of scipy.linalg."""
    s_alpha = graded_basis(system.fan, pair.alpha)
    s_alpha0 = graded_basis(system.fan, pair.alpha0)
    idx = cok.res.rows.rows(s_alpha0.points[:, None] + s_alpha.points[None])
    stack = np.moveaxis(_monomial(cok)[:, idx], 1, 0)
    delta = cok.delta_plus
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    draws = []
    for _ in range(RETRIES_MAX + 1):
        coeffs = (rng.standard_normal(len(s_alpha0))
                  + 1j * rng.standard_normal(len(s_alpha0)))
        n_h0 = np.tensordot(coeffs, stack, axes=(0, 0))
        R, piv = scipy.linalg.qr(n_h0, pivoting=True, mode="r")
        columns = tuple(sorted(int(p) for p in piv[:delta]))
        draws.append((_restriction_cond(R[:, :delta], n_h0[:, columns]), columns, n_h0))
        if draws[-1][0] <= H0_COND_TARGET:
            break
    # the first draw within the target, else the first best one
    cond, columns, n_h0 = min(draws, key=lambda draw: draw[0])
    assert cond <= COND_MAX
    rhs = np.moveaxis(stack[:, :, columns], 0, 1).reshape(delta, -1)
    solved = scipy.linalg.lu_solve(scipy.linalg.lu_factor(n_h0[:, columns]), rhs)
    family = np.moveaxis(solved.reshape(delta, len(s_alpha0), delta), 1, 0)
    return family, columns, float(cond)


@pytest.mark.parametrize("name", ["pillow", "intro e=3", "lines27", "dense_p2_d6_seed0"])
def test_direct_lapack_calls_match_scipy_bit_for_bit(name, monkeypatch):
    system, pair, cok = _lapack_case(name)
    family = multiplication_family(cok, seed=3)
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


# ------------------------------------ numpy and scipy wrappers, replaced
# The warm path makes the ufunc, indexing or LAPACK call of a wrapper
# itself, on the same operands; the wrapper must give the same bits.

def _same_array(got, want):
    """Equal dtype, shape, strides and bytes: the same values, -0.0 and
    nan payloads included, in the same layout."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.strides == want.strides
            and got.tobytes(order="A") == want.tobytes(order="A"))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7), (1, 1), (0, 4), (4, 0), (0, 0)],
                         ids=["square", "tall", "wide", "one", "no rows", "no columns", "empty"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_triu_matches_numpy(shape, order):
    rng = np.random.default_rng(1)
    x = np.array(_complex(rng, shape), order=order)
    x[x.real < 0] *= -0.0  # signed zeros must keep their sign above the diagonal
    # the leading rows of a taller factor, as _factor reads a geqp3's qr
    taller = np.array(_complex(rng, (shape[0] + 2, shape[1])), order=order)[:shape[0]]
    for a in (x, taller, x.real.copy(order=order)):
        assert _same_array(eigensolver._triu(a), np.triu(a))


@pytest.mark.parametrize("args", [(4, 4, 0, "C"), (5, 3, -2, "F"), (3, 5, 2, "F"),
                                  (4, 4, 0, "F"), (3, 3, 5, "C"), (0, 2, 0, "C")])
@pytest.mark.parametrize("dtype", [complex, float])
def test_eye_matches_numpy(args, dtype):
    rows, cols, k, order = args
    assert _same_array(eigensolver._eye(rows, cols, k, dtype, order),
                       np.eye(rows, cols, k, dtype=dtype, order=order))


def test_norms_match_numpy():
    rng = np.random.default_rng(2)
    x = _complex(rng, (3, 4, 5))
    assert _same_array(eigensolver._norms(x, (1, 2)), np.linalg.norm(x, axis=(1, 2)))
    assert _same_array(eigensolver._norms(x, -1), np.linalg.norm(x, axis=-1))
    assert eigensolver._norm(x) == np.linalg.norm(x)


@pytest.mark.parametrize("name", ["pillow_seed1", "intro_e3_seed0", "lines27_seed0",
                                  "dense_p2_d6_seed0"])
def test_trtrs_matches_solve_triangular(name):
    """On the R factors of the golden systems' Res and blocks (default
    and improved pair), with their own R12 and a random right-hand side,
    for trans 0 and 2: the leading block of a C- and of an F-ordered R,
    and contiguous copies, which take the wrapper's other branch."""
    sf = load_system_file(DATA / f"{name}.system.json")
    system = homogenize(sf.laurent(), rays=sf.rays)
    rng = np.random.default_rng(3)
    checked = 0
    for pair in (default_pair(system), improved_pair(system)):
        cok = cokernel(assemble_res(system, pair.top, pair.alpha0), corank_only=True)
        for R in (cok.R, cok.block.R):
            if not len(R):
                continue
            d = np.abs(R.diagonal())
            rank = int(np.count_nonzero(d > TOL_RANK * d[0]))
            for layout in (R, np.asfortranarray(R)):
                R11 = layout[:rank, :rank]
                for a in (R11, np.ascontiguousarray(R11), np.asfortranarray(R11)):
                    for b in (-R[:rank, rank:], _complex(rng, (rank, 3))):
                        if not b.size:
                            continue
                        for trans in (0, 2):
                            got = eigensolver._trtrs(a, b, trans)
                            want = scipy.linalg.solve_triangular(a, b, trans=trans)
                            assert _same_array(got, want)
                            checked += 1
    assert checked >= 24


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
        cok = cokernel(assemble_res(system, beta, alpha))
        assert cok.delta_plus == mixed_volume(supports)
        if cok.delta_plus > 0:
            fam = multiplication_family(cok)
            mats = list(fam.matrices.values())
            for a in mats[:4]:
                for b in mats[:4]:
                    bound = 1e-8 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
                    assert np.linalg.norm(a @ b - b @ a) <= bound
        done += 1
