"""Fans, class groups, divisor predicates, cohomology counts.

Oracle values here were computed by hand from the defining lattice data
(Smith forms of small ray matrices, lattice point counts of explicit
polygons, Serre duality on products of projective planes) before the
implementation existed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from systems import (
    DIAMOND,
    PILLOW_RAYS,
    diamond_polytope,
    hirzebruch_fan,
    hirzebruch_polytope,
    lines27_fan,
    p2_fan,
    pillow_fan,
    pillow_fan_doubled,
    pillow_fan_solve,
    wp112_fan,
)
from toricsolve.errors import InputError
from test_lattice import solve_rational
from toricsolve.lattice import Polytope, dot
from toricsolve.toric import (
    Fan,
    boundary_stratum_check,
    cohomology_dims,
    divisor_of_polytope,
    is_effective,
    is_nef_cartier,
    nef_witness,
    projective_product_structure,
    weighted_projective_weights,
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


def test_cohomology_anti_nef():
    # on P^2, h^2(O(-d)) = C(d-1, 2) by duality with h^0(O(d-3))
    fan = p2_fan()
    dims, reason = cohomology_dims(fan.divisor((0, 0, -4)))
    assert reason == "anti-nef"
    assert dims == [0, 0, 3]
    dims, _ = cohomology_dims(fan.divisor((0, 0, -3)))
    assert dims == [0, 0, 1]
    dims, _ = cohomology_dims(fan.divisor((0, 0, -2)))
    assert dims == [0, 0, 0]


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
    # O(5,5) has only sections: 21 * 21
    c = [0] * 6
    c[4], c[5] = 5, 5
    dims, _ = cohomology_dims(fan.divisor(c))
    assert dims == [441, 0, 0, 0, 0]


def test_cohomology_unknown_on_hirzebruch():
    fan = hirzebruch_fan()
    # (0,0,-1,1) has nontrivial mixed behavior and F_1 is not a product
    d = fan.divisor((0, -2, 3, -1))
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
