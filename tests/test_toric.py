"""Fans, class groups, divisor predicates, the higher-cohomology verdict
and the cohomology counts of its oracle (systems.cohomology_dims).

Oracle values here were computed by hand from the defining lattice data
(Smith forms of small ray matrices, lattice point counts of explicit
polygons, Serre duality on products of projective planes) before the
implementation existed.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from systems import (
    DIAMOND,
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    P2_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    cohomology_dims,
    diamond_polytope,
    hirzebruch_fan,
    hirzebruch_polytope,
    lines27_fan,
    lines27_polytope,
    p2_fan,
    pillow_fan,
    pillow_fan_doubled,
    pillow_fan_solve,
    weighted_projective_weights,
    wp112_fan,
)
from toricsolve.errors import InputError
from test_lattice import frac_rank, leibniz_det, solve_rational
from toricsolve.lattice import Polytope, dot
from toricsolve.toric import (
    DivisorClass,
    Fan,
    boundary_stratum_check,
    divisor_of_polytope,
    higher_cohomology_vanishes,
    is_effective,
    is_nef_cartier,
    nef_witness,
    projective_product_structure,
)


def test_normal_fan_of_diamond():
    fan = pillow_fan()
    assert fan.k == 4 and fan.n == 2
    assert fan.rays == PILLOW_RAYS
    assert fan.offsets == [1, 1, 1, 1]
    # max cones are the four adjacent ray pairs
    assert sorted(fan.max_cones) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_normal_fan_ray_mismatch():
    with pytest.raises(InputError):
        Fan.normal_fan(diamond_polytope(), rays=[(1, 0), (0, 1), (-1, 0), (0, -1)])


def test_normal_fan_requires_full_dim():
    seg = Polytope.from_points([(0, 0), (1, 0)])
    with pytest.raises(InputError):
        Fan.normal_fan(seg)


def test_class_groups():
    assert pillow_fan().class_group.free_rank == 2
    assert pillow_fan().class_group.torsion == [2]
    assert hirzebruch_fan().class_group.free_rank == 2
    assert hirzebruch_fan().class_group.torsion == []
    assert p2_fan().class_group.free_rank == 1
    assert lines27_fan().class_group.free_rank == 2
    assert lines27_fan().class_group.torsion == []
    assert wp112_fan().class_group.free_rank == 1
    assert wp112_fan().class_group.torsion == []


def test_degree_equality_sees_torsion():
    fan = pillow_fan()
    # (2,0,0,2) and (1,1,1,1)+ray^T(1,0) = (2,0,0,2) are the same class
    assert fan.divisor((2, 0, 0, 2)) == fan.divisor((1, 1, 1, 1))
    # (2,2,2,2) differs from (2,0,0,2) by the order-2 torsion element
    assert fan.divisor((2, 2, 2, 2)) != fan.divisor((2, 0, 0, 2))
    assert fan.divisor((2, 2, 2, 2)) == 2 * fan.divisor((1, 1, 1, 1))


def test_divisor_of_polytope_tight():
    fan = hirzebruch_fan()
    d = divisor_of_polytope(fan, hirzebruch_polytope())
    assert d.a == (0, 0, 1, 2)
    fan2 = pillow_fan()
    assert divisor_of_polytope(fan2, DIAMOND).a == (1, 1, 1, 1)


def test_nef_pillow_halfintegral_witness():
    fan = pillow_fan()
    d = fan.divisor((0, 1, 0, 1))
    w = nef_witness(d)
    assert w is not None
    vals = {tuple(Fraction(x, den) for x in num) for den, num in w.values()}
    assert (Fraction(1, 2), Fraction(-1, 2)) in vals or (
        Fraction(-1, 2),
        Fraction(1, 2),
    ) in vals
    assert not is_nef_cartier(d)
    assert is_nef_cartier(2 * d)
    assert is_nef_cartier(fan.divisor((1, 1, 1, 1)))


def test_nef_hirzebruch_counterexample():
    fan = hirzebruch_fan()
    # the class (0,0,2,0) has a one-point section polytope that misses the
    # cone-wise support points, so it is not nef
    assert nef_witness(fan.divisor((0, 0, 2, 0))) is None
    assert nef_witness(fan.divisor((0, 0, 1, 2))) is not None
    assert is_nef_cartier(fan.divisor((0, 0, 1, 2)))
    # a fiber class is nef but not ample; still passes the support test
    assert is_nef_cartier(fan.divisor((0, 0, 0, 1)))


def ref_nef_witness(div):
    """Reference: cone-wise support points {cone: m_sigma} from Smith form
    solves over Fractions, or None when div is not nef Q-Cartier."""
    fan = div.fan
    witnesses = {}
    for cone in fan.max_cones:
        sol = solve_rational([fan.rays[j] for j in cone], [-div.a[j] for j in cone])
        if sol is None or sol[1]:
            return None
        if any(dot(u, sol[0]) + ai < 0 for u, ai in zip(fan.rays, div.a)):
            return None
        witnesses[cone] = sol[0]
    return witnesses


ALL_FANS = [pillow_fan(), pillow_fan_solve(), pillow_fan_doubled(), hirzebruch_fan(),
            p2_fan(), p2_fan(3), wp112_fan(), lines27_fan()]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_FANS).flatmap(
    lambda fan: st.tuples(st.just(fan), st.lists(st.integers(-3, 3), min_size=fan.k,
                                                 max_size=fan.k))))
def test_nef_witness_matches_smith_solve(args):
    fan, a = args
    div = fan.divisor(a)
    w = nef_witness(div)
    ref = ref_nef_witness(div)
    if ref is None:
        assert w is None
        return
    assert w.keys() == ref.keys()
    for cone, (den, num) in w.items():
        assert den > 0
        assert tuple(Fraction(x, den) for x in num) == ref[cone]
    assert is_nef_cartier(div) == all(x.denominator == 1 for m in ref.values() for x in m)


def test_effective():
    fan = hirzebruch_fan()
    assert is_effective(fan.divisor((0, 0, 2, 0)))
    assert is_effective(fan.divisor((0, 0, 0, 0)))
    assert not is_effective(fan.divisor((-1, 0, 0, 0)))


def test_cohomology_nef():
    fan = hirzebruch_fan()
    dims, reason = cohomology_dims(fan.divisor((0, 0, 1, 2)))
    assert reason == "nef"
    assert dims == [5, 0, 0]
    assert higher_cohomology_vanishes(fan.divisor((0, 0, 1, 2)))


def test_cohomology_anti_nef():
    # on P^2, h^2(O(-d)) = C(d-1, 2) by duality with h^0(O(d-3)); P^2 is a
    # product of one projective space, so Kunneth answers there
    fan = p2_fan()
    dims, reason = cohomology_dims(fan.divisor((0, 0, -4)))
    assert reason == "product of projective spaces"
    assert dims == [0, 0, 3]
    dims, _ = cohomology_dims(fan.divisor((0, 0, -3)))
    assert dims == [0, 0, 1]
    dims, _ = cohomology_dims(fan.divisor((0, 0, -2)))
    assert dims == [0, 0, 0]
    assert not higher_cohomology_vanishes(fan.divisor((0, 0, -3)))
    assert higher_cohomology_vanishes(fan.divisor((0, 0, -2)))
    # F_1 is no product: h^2 of minus three times the quad counts the 4 + 3
    # interior points of the tripled quad, and h^2(K) = h^0(O) = 1
    fan = hirzebruch_fan()
    dims, reason = cohomology_dims(fan.divisor((0, 0, -3, -6)))
    assert reason == "anti-nef"
    assert dims == [0, 0, 7]
    assert cohomology_dims(fan.divisor((-1, -1, -1, -1))) == ([0, 0, 1], "anti-nef")
    # minus twice the fiber class pulls back O(-2) from P^1: h^1 = 1, not h^2
    assert cohomology_dims(fan.divisor((0, 0, 0, -2))) == ([0, 1, 0], "anti-nef")
    assert not higher_cohomology_vanishes(fan.divisor((0, 0, 0, -2)))
    # minus the fiber class: a segment with no interior lattice point
    assert higher_cohomology_vanishes(fan.divisor((0, 0, 0, -1)))


def divisor_and_shift(fan):
    """A divisor vector and a character m, small entries."""
    return st.tuples(st.just(fan),
                     st.lists(st.integers(-3, 3), min_size=fan.k, max_size=fan.k),
                     st.lists(st.integers(-2, 2), min_size=fan.n, max_size=fan.n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_FANS).flatmap(divisor_and_shift))
def test_cohomology_dims_is_a_class_function(args):
    # a + (<u_j, m>)_j is another representative of a's class
    fan, a, m = args
    div = fan.divisor(a)
    other = fan.divisor([x + dot(u, m) for x, u in zip(a, fan.rays)])
    assert other == div
    dims, reason = cohomology_dims(div)
    assert cohomology_dims(other) == (dims, reason)
    assert higher_cohomology_vanishes(other) == higher_cohomology_vanishes(div)
    if fan.product_structure is None:
        return
    # Kunneth answers every class on a product and agrees with the
    # lattice-point counts of the nef and anti-nef routes: h^0 counts the
    # section polytope's points, h^n its interior points (none when it is
    # flat, whose relative interior points count h^dim instead)
    assert reason == "product of projective spaces"
    if nef_witness(div) is not None:
        assert dims[0] == len(div.polytope().lattice_points())
    if nef_witness(-div) is not None:
        poly = (-div).polytope()
        interior = len(poly.relint_lattice_points())
        assert dims[fan.n] == (interior if poly.dim == fan.n else 0)
        assert dims[poly.dim] == interior and sum(dims) == interior


def test_cohomology_product_structure():
    fan = lines27_fan()
    prod = projective_product_structure(fan)
    assert prod is not None
    # the fan computes it once and keeps it
    assert fan.product_structure == prod
    assert fan.product_structure is fan.product_structure
    groups = sorted(tuple(sorted(g)) for g, _ in prod)
    assert groups == [(0, 2, 4), (1, 3, 5)]
    assert all(nj == 2 for _, nj in prod)


def test_cohomology_kunneth():
    fan = lines27_fan()
    # O(-4,-4) on P^2 x P^2: h^4 = 3 * 3 = 9 by Serre duality
    a = [0] * 6
    a[4], a[5] = -4, -4
    dims, _ = cohomology_dims(fan.divisor(a))
    assert dims == [0, 0, 0, 0, 9]
    # O(2,-4) is neither nef nor anti-nef: h^2 = h^0(O(2)) * h^2(O(-4)) = 6*3
    b = [0] * 6
    b[4], b[5] = 2, -4
    dims, reason = cohomology_dims(fan.divisor(b))
    assert reason == "product of projective spaces"
    assert dims == [0, 0, 18, 0, 0]
    assert not higher_cohomology_vanishes(fan.divisor(b))
    # O(2,-1): the factor O(-1) on P^2 has no cohomology at all
    b[5] = -1
    assert higher_cohomology_vanishes(fan.divisor(b))
    # O(5,5) has only sections: 21 * 21
    c = [0] * 6
    c[4], c[5] = 5, 5
    dims, _ = cohomology_dims(fan.divisor(c))
    assert dims == [441, 0, 0, 0, 0]


def test_cohomology_unknown_on_hirzebruch():
    fan = hirzebruch_fan()
    # (0,0,-1,1) has nontrivial mixed behavior and F_1 is not a product
    d = fan.divisor((0, -2, 3, -1))
    # undecided counts as not vanishing
    assert not higher_cohomology_vanishes(d)
    dims, reason = cohomology_dims(d)
    if dims is None:
        assert "not a recognized product" in reason
    else:
        # if a route fired it must have been nef or anti-nef, sanity only
        assert reason in ("nef", "anti-nef")


def test_no_product_structure_on_pillow():
    # the pillow is a finite quotient of P^1 x P^1, not an honest product
    assert projective_product_structure(pillow_fan()) is None
    assert projective_product_structure(hirzebruch_fan()) is None
    assert pillow_fan().product_structure is None


def mixing_map(n, det):
    """A fixed integer n x n matrix of determinant 1, or of determinant -2
    when det is 2. That one mixes the first two coordinates, as the
    rescaling of one factor would leave the normal fan as it is."""
    rng = np.random.default_rng(n)
    low = np.tril(rng.integers(-2, 3, (n, n)), -1) + np.eye(n, dtype=int)
    up = np.triu(rng.integers(-2, 3, (n, n)), 1) + np.eye(n, dtype=int)
    m = low @ up
    if det == 2:
        mix = np.eye(n, dtype=int)
        mix[:2, :2] = [[1, 1], [1, -1]]
        m = m @ mix
    return m


def simplex_product_fan(dims, m):
    """Normal fan of the image under m of the product of the standard
    simplices of dimensions dims."""
    blocks = [[tuple(int(i == j) for i in range(d)) for j in range(-1, d)] for d in dims]
    points = [tuple(int(x) for x in m @ sum(v, ())) for v in product(*blocks)]
    return Fan.normal_fan(Polytope.from_points(points))


PRODUCT_DIMS = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]


@pytest.mark.parametrize("dims", PRODUCT_DIMS)
def test_product_structure_of_unimodular_images_of_simplex_products(dims):
    m = mixing_map(sum(dims), 1)
    fan = simplex_product_fan(dims, m)
    # a ray u of the image is the normal m^T u of the product, which lives
    # in the coordinates of one factor
    starts = np.cumsum((0,) + dims)
    groups = {}
    for j, u in enumerate(fan.rays):
        f = int(np.searchsorted(starts, np.flatnonzero(m.T @ u)[0], side="right")) - 1
        groups.setdefault(f, []).append(j)
    prod = projective_product_structure(fan)
    assert prod == [(tuple(g), dims[f]) for f, g in groups.items()]
    assert sorted(len(g) for g, _ in prod) == sorted(d + 1 for d in dims)
    # the data that identifies the product: each group sums to zero with
    # rank size - 1, and the rays left by dropping the last of each group
    # are a lattice basis
    rays = np.array(fan.rays)
    for g, nj in prod:
        assert not rays[list(g)].sum(axis=0).any()
        assert frac_rank(rays[list(g)].tolist()) == nj
    assert abs(leibniz_det([fan.rays[j] for g, _ in prod for j in g[:-1]])) == 1


@pytest.mark.parametrize("dims", [d for d in PRODUCT_DIMS if sum(d) > 1])
def test_no_product_structure_on_determinant_two_images(dims):
    # a finite quotient or a weighted space, no product (a segment has the
    # fan of P^1 under any map, so dimension 1 has no such image)
    fan = simplex_product_fan(dims, mixing_map(sum(dims), 2))
    assert projective_product_structure(fan) is None


def test_weighted_projective_recognition():
    assert weighted_projective_weights(wp112_fan()) == (1, 2, 1)
    assert weighted_projective_weights(p2_fan()) == (1, 1, 1)
    assert weighted_projective_weights(hirzebruch_fan()) is None
    assert weighted_projective_weights(pillow_fan()) is None


def test_boundary_stratum_check():
    fan = lines27_fan()
    ok, simp = boundary_stratum_check(fan, [2, 3])
    assert ok and simp
    ok, _ = boundary_stratum_check(fan, [0])
    assert ok
    # all three rays of one P^2 factor never span a cone
    ok, _ = boundary_stratum_check(fan, [0, 2, 4])
    assert not ok
    # opposite rays of the pillow do not span a cone either
    ok, _ = boundary_stratum_check(pillow_fan(), [0, 2])
    assert not ok
    ok, simp = boundary_stratum_check(pillow_fan(), [0, 1])
    assert ok and simp


def _vertex_rule(fan, polytope, ray_set):
    """Reference stratum check through the source polytope: the vertices
    on every facet of `ray_set` must exist, and the facets through all of
    those vertices must be exactly `ray_set`."""
    rs = sorted(set(ray_set))
    verts = [v for v in polytope.vertices
             if all(dot(fan.rays[j], v) + fan.offsets[j] == 0 for j in rs)]
    closure = [j for j in range(fan.k)
               if all(dot(fan.rays[j], v) + fan.offsets[j] == 0 for v in verts)]
    if not verts or closure != rs:
        return False, False
    return True, np.linalg.matrix_rank(np.array([fan.rays[j] for j in rs]).reshape(
        len(rs), fan.n)) == len(rs)


STRATUM_POLYTOPES = {
    "pillow": (diamond_polytope, PILLOW_RAYS),
    "pillow-solve": (diamond_polytope, PILLOW_RAYS_SOLVE),
    "pillow-doubled": (lambda: diamond_polytope().minkowski(diamond_polytope()), PILLOW_RAYS),
    "hirzebruch": (hirzebruch_polytope, HIRZEBRUCH_RAYS),
    "p2": (lambda: Polytope.from_points([(0, 0), (1, 0), (0, 1)]), None),
    "p2-scale3": (lambda: Polytope.from_points([(0, 0), (3, 0), (0, 3)]), None),
    "wp112": (lambda: Polytope.from_points([(0, 0), (2, 0), (0, 1)]), None),
    "lines27": (lines27_polytope, LINES27_RAYS),
    # the octahedron's normal fan has four rays in each maximal cone
    "octahedron": (lambda: Polytope.from_points(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]), None),
    "cube": (lambda: Polytope.from_points(list(product((0, 1), repeat=3))), None),
}


@pytest.mark.parametrize("name", sorted(STRATUM_POLYTOPES))
def test_stratum_check_matches_vertex_rule_on_every_subset(name):
    make, rays = STRATUM_POLYTOPES[name]
    polytope = make()
    fan = Fan.normal_fan(polytope, rays=rays)
    valid = 0
    for r in range(fan.k + 1):
        for subset in combinations(range(fan.k), r):
            got = boundary_stratum_check(fan, subset)
            assert got == _vertex_rule(fan, polytope, subset), subset
            valid += got[0]
    # a complete fan: every ray and the empty set span cones
    assert valid >= fan.k + 1


def test_stratum_check_needs_no_polytope():
    # P^2 given by its rays and maximal cones alone
    fan = Fan(P2_RAYS, [(0, 1), (1, 2), (0, 2)])
    assert boundary_stratum_check(fan, [0, 1]) == (True, True)
    assert boundary_stratum_check(fan, [2]) == (True, True)
    assert boundary_stratum_check(fan, [0, 1, 2]) == (False, False)
    # the octahedron's fan: two opposite rays of a square cone do not span
    octa = Fan.normal_fan(STRATUM_POLYTOPES["octahedron"][0]())
    cone = next(c for c in octa.max_cones if len(c) == 4)
    bare = Fan(octa.rays, octa.max_cones)
    assert boundary_stratum_check(bare, cone) == (True, False)
    pairs = [s for s in combinations(cone, 2) if boundary_stratum_check(bare, s)[0]]
    assert len(pairs) == 4


def test_divisor_class_and_fan_reject_non_integers():
    fan = pillow_fan()
    # these used to truncate: (2, 1, 0, 1), (1, 1, 1, 1) and a ray (1, 0)
    with pytest.raises(InputError, match="divisor vector"):
        DivisorClass(fan, (2.5, True, 0.9, 1))
    div = DivisorClass(fan, (1, 1, 1, 1))
    for scalar in (1.7, True, Fraction(2)):
        with pytest.raises(InputError, match="scale by integers"):
            scalar * div
    scaled = np.int64(2) * div
    assert scaled.a == (2, 2, 2, 2) and all(type(x) is int for x in scaled.a)
    with pytest.raises(InputError, match="fan ray"):
        Fan([(1.9, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
