"""Torus and boundary coordinate recovery, plus the end-to-end solve."""

import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricsolve.cox import graded_basis, homogenize
from toricsolve.errors import ClusteringError, InputError, RecoveryError, SpanError
from toricsolve.lattice import (
    Polytope,
    dot,
    integer_kernel,
    right_inverse,
    smith_normal_form,
    solve_int,
    sublattice_index,
)
from toricsolve.recovery import (
    MAX_BRANCHES,
    RATIO_TOL,
    USABLE_ERR,
    EigenvalueTable,
    Solution,
    _branch_plan,
    _orbit_chart,
    recover_boundary_point,
    recover_torus_point,
    recover_torus_points,
)
from toricsolve import solver as solver_module
from toricsolve.solver import solve
from toricsolve.toric import Fan, boundary_stratum_check, divisor_of_polytope

from systems import (
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    PILLOW_RAYS_SOLVE,
    branch_plan_reference,
    hirzebruch_fan,
    intro_laurent,
    lines27_fan,
    lines27_laurent,
    p2_fan,
    pillow_fan_solve,
    pillow_laurent,
    wp112_fan,
)


def cube_fan():
    cube = Polytope.from_points(
        [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    )
    return Fan.normal_fan(cube)


def planted_table(fan, alpha0, t, mu=1):
    """Forward-evaluate lambda_m = t^m over the basis of alpha0."""
    basis = graded_basis(fan, alpha0)
    values = []
    for m in basis.lattice_points:
        acc = 1 + 0j
        for ti, e in zip(t, m):
            acc *= complex(ti) ** e
        values.append(acc)
    return EigenvalueTable(basis, values, mu)


def torus_from_z(fan, z):
    """Apply the ray matrix rows to z, the exact inverse of the lift."""
    out = []
    for i in range(fan.n):
        acc = 1 + 0j
        for j in range(fan.k):
            acc *= z[j] ** fan.rays[j][i]
        out.append(acc)
    return out


def test_planted_torus_point_pillow():
    fan = pillow_fan_solve()
    table = planted_table(fan, (1, 1, 1, 1), (2.0, 3.0), mu=1)
    sol = recover_torus_point(fan, table)
    assert sol.on_torus
    assert sol.zero_pattern == frozenset()
    assert np.allclose(sol.t, (2.0, 3.0), rtol=1e-12, atol=0)
    assert np.allclose(torus_from_z(fan, sol.z), (2.0, 3.0), rtol=1e-10, atol=0)


def test_constant_table_gives_unit():
    fan = Fan.normal_fan(Polytope.from_points([(0,), (1,)]))
    basis = graded_basis(fan, divisor_of_polytope(fan, [(0,), (1,)]).a)
    sol = recover_torus_point(fan, EigenvalueTable(basis, [1.0] * len(basis)))
    assert np.allclose(sol.t, (1.0,))
    assert np.allclose(sol.z, (1.0, 1.0))


FAN_POOL = [
    (pillow_fan_solve(), (1, 1, 1, 1)),
    (hirzebruch_fan(), (0, 0, 1, 2)),
    (p2_fan(), (1, 0, 0)),
    (wp112_fan(), (0, 1, 0)),
    (cube_fan(), None),
]


@settings(max_examples=60, deadline=None)
@given(
    pick=st.integers(min_value=0, max_value=len(FAN_POOL) - 1),
    data=st.data(),
)
def test_planted_round_trip_random(pick, data):
    fan, alpha0 = FAN_POOL[pick]
    if alpha0 is None:
        alpha0 = divisor_of_polytope(
            fan, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        ).a
    t = []
    for _ in range(fan.n):
        mod = data.draw(st.floats(min_value=0.2, max_value=5.0))
        arg = data.draw(st.floats(min_value=-math.pi, max_value=math.pi))
        t.append(cmath.rect(mod, arg))
    sol = recover_torus_point(fan, planted_table(fan, alpha0, t))
    err = max(abs(a - b) / abs(b) for a, b in zip(sol.t, t))
    assert err <= 1e-10
    back = torus_from_z(fan, sol.z)
    assert max(abs(a - b) / abs(b) for a, b in zip(back, t)) <= 1e-10


def test_right_inverse_exact():
    fan = pillow_fan_solve()
    rows = [[fan.rays[j][i] for j in range(fan.k)] for i in range(fan.n)]
    e = right_inverse(rows)
    assert fan.ray_inverse == e
    for i in range(fan.n):
        for j in range(fan.n):
            acc = sum(rows[i][l] * e[l][j] for l in range(fan.k))
            assert acc == (1 if i == j else 0)


@pytest.mark.parametrize("fan", [fan for fan, _ in FAN_POOL] + [lines27_fan()],
                         ids=["pillow", "hirzebruch", "p2", "wp112", "cube", "lines27"])
def test_orbit_charts_match_exact_solves(fan):
    # every cone's chart gives what the exact solves it replaces give: the
    # orbit test and coordinates of solve_int against a saturated kernel
    # basis K, and the float lift of a right inverse, the empty cone's
    # being that of fan.ray_inverse
    cones = {tuple(c for c, keep in zip(cone, mask) if keep)
             for cone in fan.max_cones for mask in product((0, 1), repeat=len(cone))}
    cones = [c for c in cones if not c or boundary_stratum_check(fan, c)[0]]
    assert () in cones and len(cones) > len(fan.max_cones)
    box = list(product(range(-2, 3), repeat=fan.n))
    identity = [tuple(int(i == j) for j in range(fan.n)) for i in range(fan.n)]
    for cone in cones:
        rays, to_coords, lift = _orbit_chart(fan, cone)
        kern = integer_kernel([fan.rays[j] for j in cone]) if cone else identity
        assert len(to_coords) == len(kern)
        if not kern:
            assert lift is None
            continue
        kern_t = [list(col) for col in zip(*kern)]
        for d in box:
            sol = solve_int(kern_t, d)
            assert (sol is not None) == (not (rays @ d).any())
            if sol is not None:
                assert (to_coords @ d).tolist() == [x // sol[0] for x in sol[1]]
        free = [j for j in range(fan.k) if j not in cone]
        einv = right_inverse([[dot(fan.rays[j], k) for j in free] for k in kern])
        assert np.array_equal(lift, np.array(einv, dtype=float).T)
        if not cone:
            assert np.array_equal(lift, np.array(fan.ray_inverse, dtype=float).T)


def test_insufficient_lattice_points():
    fan = hirzebruch_fan()
    # only two collinear lattice points: differences cannot span M
    table = EigenvalueTable(graded_basis(fan, (0, 0, 0, 1)), [1.0, 2.0])
    with pytest.raises(SpanError):
        recover_torus_point(fan, table)


def test_boundary_cluster_rejected_by_torus_recovery():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    table = EigenvalueTable(basis, [1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(RecoveryError, match="not a torus point"):
        recover_torus_point(fan, table)


def test_stratum_test_sends_near_boundary_multiple_cluster_to_boundary():
    # tables of torus points at z = (eps, 1, 1, 1): at eps = 1e-13 the
    # entries of degree one in z0 sit 1e-13 below the rest, where a
    # clustered table's noise floor puts the entries of a boundary point
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))

    def tables(eps, mu):
        z = (eps, 1.0, 1.0, 1.0)
        values = [np.prod([z[j] ** b[j] for j in range(4)]) for b in basis.monomials]
        return EigenvalueTable(basis, values, mu)

    # a simple cluster is read as the torus point it is, however close
    simple = recover_torus_points(fan, [tables(1e-13, 1)])[0]
    assert abs(simple.z[0] / simple.z[1] - 1e-13) <= 1e-24
    # a double one is not: its weighted least squares is conditioned
    # far above COND_MAX, so it goes on to boundary recovery
    double = tables(1e-13, 2)
    assert recover_torus_points(fan, [double]) == [None]
    sol = recover_boundary_point(fan, double)
    assert sol.zero_pattern == frozenset({0}) and sol.multiplicity == 2
    # away from the boundary a double torus point stays one
    sol = recover_torus_points(fan, [tables(1e-3, 2)])[0]
    assert sol.on_torus and sol.multiplicity == 2
    assert abs(sol.z[0] / sol.z[1] - 1e-3) <= 1e-14


def test_planted_boundary_point_pillow():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    z1 = (0.0, 1.0, 1.0, 1.0)
    values = [np.prod([z1[j] ** b[j] for j in range(4)]) for b in basis.monomials]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values, multiplicity=1))
    assert sol.zero_pattern == frozenset({0})
    assert not sol.on_torus
    assert not sol.non_simplicial
    assert np.allclose(sol.z, z1, atol=1e-12)


def test_planted_boundary_orbit_representative():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    z2 = (1.0, 1.0, 0.0, 1j)
    values = [
        complex(np.prod([complex(z2[j]) ** b[j] for j in range(4)]))
        for b in basis.monomials
    ]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values, multiplicity=1))
    assert sol.zero_pattern == frozenset({2})
    # same orbit as z2: the invariant character z0^2 / z3^2 must agree
    inv = sol.z[0] ** 2 / sol.z[3] ** 2
    assert abs(inv - (-1.0)) <= 1e-10


def test_boundary_full_cone_fixed_point():
    fan = hirzebruch_fan()
    basis = graded_basis(fan, (0, 0, 1, 2))
    # only the monomial at the vertex (2, 0) of the polytope survives:
    # that vertex is cut out by the facets of rays 1 and 3
    values = [1.0 if m == (2, 0) else 0.0 for m in basis.lattice_points]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values))
    assert sol.zero_pattern == frozenset({1, 3})
    assert all(sol.z[j] == 0 for j in (1, 3))
    assert all(sol.z[j] == 1 for j in (0, 2))


def test_boundary_fixed_point_of_non_simplicial_cone():
    # the octahedron's normal fan has 8 rays and six cones of four rays;
    # a table alive only at the vertex (1, 0, 0) is the torus-fixed point
    # of the cone of the four facets through it
    octahedron = Polytope.from_points(
        [tuple(s if i == j else 0 for j in range(3)) for i in range(3) for s in (1, -1)])
    fan = Fan.normal_fan(octahedron)
    assert (fan.k, len(fan.max_cones)) == (8, 6)
    assert all(len(cone) == 4 for cone in fan.max_cones)
    basis = graded_basis(fan, fan.offsets)
    values = [1.0 if m == (1, 0, 0) else 0.0 for m in basis.lattice_points]
    sol = recover_boundary_point(fan, EigenvalueTable(basis, values))
    assert sol.zero_pattern == frozenset({0, 1, 2, 3})
    assert sol.non_simplicial and not sol.on_torus
    assert list(sol.z) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_boundary_without_matching_rays_is_clustering_error():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    # zeros scattered across monomials that share no common vanishing ray
    table = EigenvalueTable(basis, [1.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ClusteringError, match="vanishing pattern"):
        recover_boundary_point(fan, table)


def test_table_length_mismatch():
    fan = pillow_fan_solve()
    basis = graded_basis(fan, (1, 1, 1, 1))
    with pytest.raises(RecoveryError, match="does not match"):
        EigenvalueTable(basis, [1.0, 2.0])


# --------------------------------------------- per-cluster reference
# The torus route as it was before it was batched: one Smith-form
# greedy selection, one least-squares solve and one branch loop per
# cluster. recover_torus_points must reproduce it table by table. The
# selection here walks the rows in order of accuracy, the kept plans in
# basis order; the phase start differs, the refined t does not.


def rank_and_index(vectors):
    """(rank, index) of the lattice spanned by integer `vectors` inside
    its saturation: the count and product of the nonzero Smith invariant
    factors."""
    _, d, _ = smith_normal_form([list(vec) for vec in vectors])
    nz = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]
    return len(nz), math.prod(nz)


def reference_solve_binomials(diffs, ratios, errs, n):
    rank_all, _ = rank_and_index(diffs)
    if rank_all < n:
        raise RecoveryError("cluster is not a torus point")
    order = sorted(range(len(diffs)), key=lambda i: errs[i])
    usable = [i for i in order if errs[i] < USABLE_ERR]
    if rank_and_index([diffs[i] for i in usable])[0] < n:
        raise RecoveryError("cluster is not a torus point")
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
        raise RecoveryError("cluster is not a torus point")

    a = np.array([diffs[i] for i in usable], dtype=float)
    w = np.array([1.0 / max(errs[i], 1e-15) for i in usable])
    logr = np.array([math.log(abs(ratios[i])) for i in usable])
    moduli = np.linalg.lstsq(a * w[:, None], logr * w, rcond=None)[0]

    u, d, v = smith_normal_form([list(diffs[i]) for i in sel])
    args = [math.atan2(ratios[i].imag, ratios[i].real) for i in sel]
    g = [sum(u[j][l] * args[l] for l in range(len(sel))) for j in range(len(sel))]
    dd = [d[j][j] for j in range(n)]
    varr = np.array(v, dtype=float)
    branches = [[]]
    for j in range(n):
        branches = [b + [cj] for b in branches for cj in range(abs(dd[j]))]

    best = None
    for c in branches:
        psi = [(g[j] + 2.0 * math.pi * c[j]) / dd[j] for j in range(n)]
        t = np.exp(moduli + 1j * (varr @ np.array(psi)))
        for _ in range(3):
            dev = np.array([cmath.log(ratios[i] / np.prod(t ** np.array(diffs[i])))
                            for i in usable])
            t = t * np.exp(np.linalg.lstsq(a * w[:, None], dev * w, rcond=None)[0])
        score, ok = 0.0, True
        for i in usable:
            rel = abs(np.prod(t ** np.array(diffs[i])) - ratios[i]) / abs(ratios[i])
            tol = RATIO_TOL + 10.0 * errs[i]
            if rel > tol:
                ok = False
                break
            score += (rel / tol) ** 2
        if ok and (best is None or score < best[0]):
            best = (score, t)
    if best is None:
        raise RecoveryError("cluster is not a torus point")
    return tuple(complex(x) for x in best[1])


def reference_ratio_data(table):
    """Difference rows, ratios and errors over the nonzero entries."""
    items = [(m, lam, e) for m, lam, e in
             zip(table.basis.lattice_points, table.values, table.noise) if abs(lam) > 0.0]
    if len(items) < 2:
        raise RecoveryError("cluster is not a torus point")
    # numpy's modulus, as recover_torus_points takes it: Python's abs can
    # differ in the last bit, which moves the base point on a tie
    i0 = int(np.argmax(np.abs([lam for _, lam, _ in items])))
    m0, lam0, e0 = items[i0]
    rest = [it for i, it in enumerate(items) if i != i0]
    diffs = [tuple(x - y for x, y in zip(m, m0)) for m, _, _ in rest]
    ratios = [complex(lam / lam0) for _, lam, _ in rest]
    errs = [float(e / abs(lam) + e0 / abs(lam0)) for _, lam, e in rest]
    return diffs, ratios, errs


def reference_recover_torus_point(fan, table):
    geo = table.basis.points[1:] - table.basis.points[:1]
    if rank_and_index(geo.tolist())[0] < fan.n:
        raise SpanError("alpha0 insufficient: lattice points do not affinely span")
    t = reference_solve_binomials(*reference_ratio_data(table), fan.n)
    z = [cmath.exp(sum(float(c) * cmath.log(x) for c, x in zip(row, t)))
         for row in fan.ray_inverse]
    return Solution(z, t, table.multiplicity, zero_pattern=())


def reference_or_none(fan, table):
    try:
        return reference_recover_torus_point(fan, table)
    except SpanError:
        raise
    except RecoveryError:
        return None


def usable_index(table):
    """Index of the sublattice the usable difference rows span (0 below
    full rank): above 1, the table fixes t only up to a finite group."""
    try:
        diffs, _, errs = reference_ratio_data(table)
    except RecoveryError:
        return 0
    rows = [d for d, e in zip(diffs, errs) if e < USABLE_ERR]
    return sublattice_index(rows, len(diffs[0])) if rows else 0


def close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b))))


# P^2 at 2H has six points, enough for one zero pattern to leave room for
# several base points, usable-row counts and selections
BATCH_POOL = FAN_POOL + [(p2_fan(), (2, 0, 0))]


@st.composite
def planted_batch(draw):
    """Tables over one basis: planted torus points with random scales,
    some entries zeroed, some made unusable by their noise, and some
    tables spoiled so that no torus point fits. In half the batches
    every table has the same zero entries, so one zero pattern holds
    tables with different base points, usable rows and selections."""
    fan, alpha0 = BATCH_POOL[draw(st.integers(0, len(BATCH_POOL) - 1))]
    if alpha0 is None:
        alpha0 = divisor_of_polytope(
            fan, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        ).a
    basis = graded_basis(fan, alpha0)
    size = len(basis)
    shared = draw(st.one_of(
        st.none(), st.lists(st.integers(0, size - 1), max_size=max(0, size - 3))))
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        t = [cmath.rect(draw(st.floats(0.2, 5.0)), draw(st.floats(-math.pi, math.pi)))
             for _ in range(fan.n)]
        scale = cmath.rect(draw(st.floats(0.1, 10.0)), draw(st.floats(-math.pi, math.pi)))
        values = scale * np.array([np.prod([complex(x) ** e for x, e in zip(t, m)])
                                   for m in basis.lattice_points])
        zeros = shared
        if zeros is None:
            zeros = draw(st.lists(st.integers(0, size - 1), max_size=size - 1))
        values[zeros] = 0.0
        noise = None
        loud = draw(st.lists(st.integers(0, size - 1), max_size=2))
        if loud:
            noise = np.full(size, 1e-14 * np.abs(values).max())
            noise[loud] = np.abs(values[loud])
        spoil = draw(st.sampled_from([None, "scale", "conjugate"]))
        if spoil:
            j = draw(st.integers(0, size - 1))
            values[j] = 3.0 * values[j] if spoil == "scale" else np.conj(values[j])
        tables.append(EigenvalueTable(basis, values, noise=noise))
    return fan, tables


def torus_point_of(fan, z):
    """t with t^m = prod_j z_j^{<u_j, m>}: t_i = prod_j z_j^{u_j[i]}."""
    return np.prod(np.asarray(z)[:, None] ** np.array(fan.rays), axis=0)


# --hypothesis-seed=17: one table on the pillow where the batched and the
# per-cluster lift of the same t differ by the sign of z_1 and z_2, two
# elements of the finite group that fixes the point
SEED17_BATCH = (FAN_POOL[0][0], [EigenvalueTable(
    graded_basis(FAN_POOL[0][0], (1, 1, 1, 1)),
    [0j, 0j, 1.261799724648646 + 5.076246654483916j,
     -1.259335272061441 - 5.0663321102368775j,
     -3.6358251171155955 - 3.760477943032497j])])


# P^2 at 2H: the two accurate rows of the third table, (-2, 2) and
# (-1, 1), are parallel, so the other direction of t rests on the row
# (-2, 1) alone, whose error is 1/3; the weighted solve is ill-conditioned
# there, and the batched and the per-cluster t differ by 1e-6
P2_2H = graded_basis(p2_fan(), (2, 0, 0))
PARALLEL_BATCH = (p2_fan(), [
    EigenvalueTable(P2_2H, [0, 1, 1, 0, 1, 1]),
    EigenvalueTable(P2_2H, [0, 1, 1, 0, 1, 1]),
    EigenvalueTable(P2_2H, [0, 0.75, 0.25, 0, 0.5, 1],
                    noise=[1e-14, 0.25, 1e-14, 1e-14, 1e-14, 1e-14])])


@settings(max_examples=150, deadline=None)
@given(batch=planted_batch())
@example(batch=SEED17_BATCH)
@example(batch=PARALLEL_BATCH)
def test_batched_recovery_matches_per_cluster_reference(batch):
    fan, tables = batch
    got = recover_torus_points(fan, tables)
    assert len(got) == len(tables)
    for table, sol in zip(tables, got):
        want = reference_or_none(fan, table)
        # the same tables fail, and recover_torus_point fails on them too
        assert (sol is None) == (want is None)
        if sol is None:
            with pytest.raises(RecoveryError, match="not a torus point"):
                recover_torus_point(fan, table)
            continue
        assert sol.on_torus and sol.multiplicity == want.multiplicity
        diffs, ratios, errs = reference_ratio_data(table)
        accurate = [d for d, e in zip(diffs, errs) if e < RATIO_TOL]
        if usable_index(table) == 1 and accurate and rank_and_index(accurate)[0] == fan.n:
            assert close(sol.t, want.t)
            # z = exp(log t . E) with the rational ray inverse E is fixed
            # only up to the finite group that fixes the point, and a phase
            # of t at the branch cut picks another element: compare what
            # the point determines, |z| and the torus point read back
            assert close(np.abs(sol.z), np.abs(want.z))
            assert close(torus_point_of(fan, sol.z), want.t)
        else:
            # every verified branch reproduces the usable ratios, so the
            # choice among them is rounding, and where the accurate rows
            # do not span, t is fixed only as well as the noisy rows fix
            # it: compare what the table fixes
            for d, ratio, e in zip(diffs, ratios, errs):
                powers = [np.prod(np.array(x.t) ** d) for x in (sol, want)]
                if e < RATIO_TOL:
                    assert close(*powers, rel=1e-9)
                elif e < USABLE_ERR:
                    for p in powers:
                        assert abs(p - ratio) <= (RATIO_TOL + 10.0 * e) * abs(ratio)


def test_batched_recovery_mixes_base_points_and_sublattices():
    # P^2, alpha0 = 2H: six points; zeroing (1,0), (0,1) and (1,1) leaves
    # (0,0), (2,0), (0,2), whose differences span a sublattice of index 4
    fan = p2_fan()
    basis = graded_basis(fan, (2, 0, 0))
    tables = []
    for t in [(2.0, 0.5j), (0.3, -1.5), (1.0 + 1j, 3.0), (-0.7, 0.4 - 0.2j)]:
        values = np.array([t[0] ** m[0] * t[1] ** m[1] for m in basis.lattice_points])
        tables.append(EigenvalueTable(basis, values))
    sparse = tables[0].values.copy()
    sparse[[1, 3, 4]] = 0.0
    tables.append(EigenvalueTable(basis, sparse))
    # a greedy trap: on the rows (2,0), (1,0), (0,1) in this order, (1,0)
    # adds no rank on the climb and (0,1) closes a sublattice of index 2;
    # (1,0), tried again at rank 2, shrinks it to 1, so one branch is left
    t = (0.5, 0.4)
    values = np.array([t[0] ** m[0] * t[1] ** m[1] for m in basis.lattice_points])
    values[[2, 4]] = 0.0
    noise = np.array([1e-16, 1e-8, 0.0, 1e-9, 0.0, 1e-16])
    tables.append(EigenvalueTable(basis, values, noise=noise))
    assert len(_branch_plan(np.array([(2, 0), (1, 0), (0, 1)]), 2)[4]) == 1
    bases = {int(np.argmax(np.abs(tab.values))) for tab in tables}
    assert len(bases) >= 3
    got = recover_torus_points(fan, tables)
    for table, sol in zip(tables[:4] + tables[5:], got[:4] + got[5:]):
        want = reference_recover_torus_point(fan, table)
        assert close(sol.t, want.t) and close(sol.z, want.z)
    assert usable_index(tables[5]) == 1 and close(got[5].t, t)
    # the sparse table fixes t only up to signs: t^(2,0), t^(0,2) agree
    assert usable_index(tables[4]) == 4
    want = reference_recover_torus_point(fan, tables[4])
    for d in [(2, 0), (0, 2)]:
        assert close(np.prod(np.array(got[4].t) ** d), np.prod(np.array(want.t) ** d))


@st.composite
def integer_row_sets(draw):
    """(rows, n): up to 8 integer rows of length n = 2..4, small entries
    so that dependent rows and sublattices of small index are common."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=r, max_size=r))
    return np.array(rows, dtype=np.int64).reshape(r, n), n


@settings(max_examples=200, deadline=None)
@given(integer_row_sets())
@example((np.array([(2, 0), (1, 0), (0, 1)]), 2))
@example((np.array([(1, 1, 0), (2, 2, 0), (0, 0, 3), (0, 1, 1), (1, 0, 0)]), 3))
def test_branch_plan_matches_from_scratch_ranks(case):
    """The echelon kept across candidate rows selects the same rows, and
    so gives the same Smith form and branches, as a rank from scratch."""
    rows, n = case
    got, want = _branch_plan(rows, n), branch_plan_reference(rows, n)
    assert (got is None) == (want is None)
    if want is not None:
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


def _usable_plan(table):
    """(base point, usable-row count, selected-row count) of a table
    without zero entries; the plan walks the usable rows in basis order."""
    diffs, _, errs = reference_ratio_data(table)
    usable = [d for d, e in zip(diffs, errs) if e < USABLE_ERR]
    base = int(np.argmax(np.abs(table.values)))
    return base, len(usable), len(_branch_plan(np.array(usable), 2)[0])


def test_batched_recovery_one_zero_pattern_mixes_plans():
    # P^2, alpha0 = 2H, no zero entries: one zero pattern whose tables
    # differ in base point, in usable-row count and in selected-row count
    fan = p2_fan()
    basis = graded_basis(fan, (2, 0, 0))

    def table(t, errors=None):
        values = np.array([t[0] ** m[0] * t[1] ** m[1] for m in basis.lattice_points])
        noise = None if errors is None else np.array(errors) * np.abs(values)
        return EigenvalueTable(basis, values, noise=noise)

    # points in lex order: (0,0), (0,1), (0,2), (1,0), (1,1), (2,0)
    tables = [
        table((2.0, 0.5j)),  # base (2,0)
        table((0.3, -1.5)),  # base (0,2)
        table((1.5 - 0.5j, 0.4)),  # base (2,0) again
        # base (2,0), the (1,1) row unusable; the rows to (0,0) and (0,1)
        # close a sublattice of index 2 and the row to (1,0) shrinks it to
        # 1, so three rows are selected
        table((2.0, 0.7 + 0.2j), [1e-16, 1e-16, 1e-16, 1e-16, 1.0, 1e-16]),
        # base (0,0); the rows (0,1) and (0,2) are parallel and (1,0) closes
        # index 1, so two rows are selected
        table((0.5, 0.4), [1e-17, 1e-15, 1e-13, 1e-14, 1e-13, 1e-16]),
    ]
    plans = [_usable_plan(tab) for tab in tables]
    assert len({base for base, _, _ in plans}) == 3
    assert {r for _, r, _ in plans} == {4, 5}
    assert {s for _, _, s in plans} == {2, 3}
    got = recover_torus_points(fan, tables)
    for tab, sol in zip(tables, got):
        want = reference_recover_torus_point(fan, tab)
        assert usable_index(tab) == 1
        assert close(sol.t, want.t) and close(sol.z, want.z)


@pytest.mark.parametrize("order", [
    # (65,0) first, then (0,1): rank 2 at index 65, and (1,0) shrinks it to 1
    [(65, 0), (0, 1), (1, 0)],
    # (1,0) right after (65,0) adds no rank on the climb; tried again at
    # rank 2, it shrinks index 65 to 1 all the same
    [(65, 0), (1, 0), (0, 1)],
])
def test_batched_recovery_either_row_order(order):
    fan = p2_fan()
    basis = graded_basis(fan, (65, 0, 0))
    base = (-65, 0)
    t = (0.99, 0.9)
    values = np.zeros(len(basis), dtype=complex)
    noise = np.zeros(len(basis))
    for d, err in zip([(0, 0)] + order, [1e-17, 1e-17, 1e-12, 1e-10]):
        i = basis.lattice_points.index((base[0] + d[0], base[1] + d[1]))
        values[i] = t[0] ** d[0] * t[1] ** d[1]
        noise[i] = err * abs(values[i])
    got = recover_torus_points(fan, [EigenvalueTable(basis, values, noise=noise)])[0]
    assert close(got.t, t, rel=1e-10)
    rows = np.array(order)
    assert len(_branch_plan(rows, 2)[4]) == len(_branch_plan(rows[::-1], 2)[4]) == 1


def test_batched_recovery_span_error_first():
    fan = hirzebruch_fan()
    good = planted_table(fan, (0, 0, 1, 2), (2.0, 3.0))
    thin = EigenvalueTable(graded_basis(fan, (0, 0, 0, 1)), [1.0, 2.0])
    with pytest.raises(SpanError):
        recover_torus_points(fan, [good, thin])


def test_overflowing_start_fails_verification():
    # base point (1,0) and ratios 1e-320 set log|t_1| near 737, past the
    # largest double's log: the start overflows to inf, which must fail
    # verification and not escape as a RuntimeWarning
    fan = p2_fan()
    basis = graded_basis(fan, (0, 0, 1))
    values = [1.0 if m == (1, 0) else 1e-320 for m in basis.lattice_points]
    table = EigenvalueTable(basis, values, noise=np.zeros(len(basis)))
    assert recover_torus_points(fan, [table]) == [None]


@pytest.mark.parametrize("values, noise", [
    # the default noise over a subnormal entry overflows its error estimate
    ([1e-320, 1e-320, 1e10], None),
    # the ratios underflow to zero, whose log is -inf
    ([1e-200, 1e-200, 1e200], np.zeros(3)),
])
def test_entries_far_below_the_largest_are_unusable(values, noise):
    fan = p2_fan()
    table = EigenvalueTable(graded_basis(fan, (0, 0, 1)), values, noise=noise)
    assert recover_torus_points(fan, [table]) == [None]


# end-to-end solves


def test_solve_intro_eps_one_roots():
    result = solve(intro_laurent(1), rays=HIRZEBRUCH_RAYS, seed=0)
    assert result.delta_plus == 3
    assert result.delta == 3
    assert all(s.on_torus for s in result.solutions)
    s2 = math.sqrt(2.0)
    expected = [(-2.0, 1.0), (1 / s2, -3 / s2 + 2), (-1 / s2, 3 / s2 + 2)]
    got = [s.t for s in result.solutions]
    for want in expected:
        best = min(got, key=lambda t: abs(t[0] - want[0]) + abs(t[1] - want[1]))
        assert abs(best[0] - want[0]) <= 1e-10
        assert abs(best[1] - want[1]) <= 1e-10
    assert result.max_residual() <= 1e-12


def test_solve_intro_large_norm_root():
    # the divergent root at eps = 1e-8; its norm pins the recovery accuracy
    result = solve(intro_laurent(1e-8), rays=HIRZEBRUCH_RAYS, seed=0)
    assert result.delta == 3
    assert result.max_residual() <= 1e-12
    big = max(s.norm for s in result.solutions)
    assert abs(big - 1.414213532799484e8) / 1.414213532799484e8 <= 1e-2


def test_solve_pillow_boundary_orbits():
    result = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=0)
    assert result.delta_plus == 4
    assert result.delta == 2
    assert [s.multiplicity for s in result.solutions] == [2, 2]
    assert result.max_residual() <= 1e-10
    patterns = {s.zero_pattern for s in result.solutions}
    assert patterns == {frozenset({0}), frozenset({2})}
    for s in result.solutions:
        if s.zero_pattern == frozenset({0}):
            inv = s.z[2] ** 2 / s.z[1] ** 2
            assert abs(inv - 1.0) <= 1e-10
        else:
            inv = s.z[0] ** 2 / s.z[3] ** 2
            assert abs(inv - (-1.0)) <= 1e-10


def test_solve_deterministic():
    a = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=7)
    b = solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, seed=7)
    assert [s.z for s in a.solutions] == [s.z for s in b.solutions]
    assert [s.zero_pattern for s in a.solutions] == [s.zero_pattern for s in b.solutions]


def test_solve_span_failure_is_typed(monkeypatch):
    # alpha0 = [D4] has two collinear lattice points: no cluster can be
    # read back on the torus, so the user pair is refused before any Res
    # is assembled, let alone a cokernel, family or Schur form computed
    def no_res(*args, **kwargs):
        raise AssertionError("assemble_res called for a pair that cannot span")

    monkeypatch.setattr(solver_module, "assemble_res", no_res)
    with pytest.raises(SpanError) as info:
        solve(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS,
              pair=((2, 2, 0, 0), (0, 0, 0, 1)))
    assert info.value.stage == "recovery"
    assert info.value.exit_code == 6


def test_solve_homogeneous_system_checks_rays():
    system = homogenize(intro_laurent(1.0), rays=HIRZEBRUCH_RAYS)
    # other rays would name other coordinates, so they are not ignored
    with pytest.raises(InputError, match="rays differ"):
        solve(system, rays=HIRZEBRUCH_RAYS[::-1])
    same = solve(system, rays=[list(r) for r in HIRZEBRUCH_RAYS], seed=0)
    assert same.delta_plus == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solve_rejects_nonfinite_coefficients(bad):
    eqs = intro_laurent(1.0)
    eqs[0][1] = ((1, 0), bad)
    with pytest.raises(InputError, match="coefficients must be finite"):
        solve(eqs, rays=HIRZEBRUCH_RAYS, seed=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
])
def test_solve_rejects_numeric_arguments_at_once(monkeypatch, kwargs, name):
    # the check comes before any work: homogenize is never reached
    def no_work(*args, **kw):
        raise AssertionError("solve started working")

    monkeypatch.setattr(solver_module, "homogenize", no_work)
    rng = np.random.default_rng(0)
    eqs = lines27_laurent(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    with pytest.raises(InputError, match=f"^{name} must be"):
        solve(eqs, rays=LINES27_RAYS, **kwargs)


def test_solve_accepts_range_edges():
    result = solve(intro_laurent(1), rays=HIRZEBRUCH_RAYS, seed=np.int64(0))
    assert result.delta_plus == 3
    assert type(result.seed) is int


def test_solve_27_lines_counts():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    result = solve(lines27_laurent(c), rays=LINES27_RAYS, seed=0)
    assert result.delta_plus == 45
    torus = result.on_torus()
    boundary = result.on_boundary()
    assert len(torus) == 27
    assert all(s.multiplicity == 1 for s in torus)
    assert len(boundary) == 3
    assert all(s.multiplicity == 6 for s in boundary)
    assert all(s.zero_pattern == frozenset({2, 3}) for s in boundary)
    assert sum(s.multiplicity for s in result.solutions) == 45


def test_solve_27_lines_boundary_clusters_stay_on_boundary():
    # the eighth Gaussian draw from default_rng(15): without the stratum
    # test two of its three multiplicity-6 boundary clusters passed the
    # torus ratio check, with |t| near 1e13
    rng = np.random.default_rng(15)
    for _ in range(8):
        c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        seed = int(rng.integers(2 ** 31))
    result = solve(lines27_laurent(c), rays=LINES27_RAYS, seed=seed)
    torus = result.on_torus()
    assert len(torus) == 27
    assert all(s.multiplicity == 1 for s in torus)
    assert max(max(s.residuals) for s in torus) <= 1e-8
    assert sorted((s.multiplicity, s.zero_pattern) for s in result.on_boundary()) \
        == [(6, frozenset({2, 3}))] * 3
