"""Degree pair selection, the vanishing test, and corank verification."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricsolve.cox import graded_basis, homogenize
from toricsolve.eigensolver import assemble_res
from toricsolve.errors import (
    BasepointError,
    InputError,
    PairSelectionError,
    RankAmbiguousError,
)
from toricsolve.lattice import Polytope
from toricsolve.regularity import (
    Provenance,
    default_pair,
    improved_pair,
    _unmixed_base,
    predicted_shape,
    user_pair,
    vanishing_pair,
    verify_pair,
)
from toricsolve.solver import solve
from toricsolve.toric import DivisorClass, weighted_projective_weights

from systems import (
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    P2_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    WP112_RAYS,
    intro_laurent,
    lines27_laurent,
    pillow_laurent,
)

P1_RAYS = [(1,), (-1,)]


def lines27_system(seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    return homogenize(lines27_laurent(c), rays=LINES27_RAYS)


def pillow_system():
    return homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)


def intro_system(eps=1):
    return homogenize(intro_laurent(eps), rays=HIRZEBRUCH_RAYS)


def p2_system(degrees=(2, 3), seed=3):
    rng = np.random.default_rng(seed)
    eqs = []
    for d in degrees:
        support = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
        eqs.append(
            [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in support]
        )
    return homogenize(eqs, rays=P2_RAYS)


def wp112_system(seed=5):
    # two generic sections of the degree-2 class on P(1,2,1)
    rng = np.random.default_rng(seed)
    support = [(0, 0), (0, -1), (1, -1), (2, -1)]
    eqs = []
    for _ in range(2):
        eqs.append(
            [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in support]
        )
    return homogenize(eqs, rays=WP112_RAYS)


# default pair


def test_default_pair_lines27():
    system = lines27_system()
    fan = system.fan
    pair = default_pair(system)
    assert pair.provenance is Provenance.SUM_OF_DEGREES
    assert pair.alpha == DivisorClass(fan, (0, 0, 6, 6, 0, 0))
    assert pair.alpha0 == DivisorClass(fan, (0, 0, 1, 1, 0, 0))
    assert predicted_shape(system, pair) == (1296, 2256)


def test_default_pair_pillow():
    system = pillow_system()
    fan = system.fan
    pair = default_pair(system)
    assert pair.alpha == DivisorClass(fan, (2, 2, 2, 2))
    assert pair.alpha0 == DivisorClass(fan, (1, 1, 1, 1))


def test_default_pair_hirzebruch():
    system = intro_system()
    fan = system.fan
    pair = default_pair(system)
    assert pair.alpha == DivisorClass(fan, (0, 0, 2, 4))
    assert pair.alpha0 == DivisorClass(fan, (0, 0, 1, 2))


def test_default_pair_p1_linear():
    system = homogenize([[((0,), 1.0), ((1,), 2.0)]], rays=P1_RAYS)
    pair = default_pair(system)
    assert pair.alpha == DivisorClass(system.fan, (0, 1))
    assert pair.alpha0 == DivisorClass(system.fan, (0, 1))


def test_default_pair_rejects_non_square():
    eqs = pillow_laurent()
    over = homogenize(eqs + [eqs[0]], rays=PILLOW_RAYS_SOLVE)
    with pytest.raises(PairSelectionError, match="overdetermined"):
        default_pair(over)
    under = homogenize([eqs[0]])
    with pytest.raises(PairSelectionError, match="underdetermined"):
        default_pair(under)


# structure the candidates read


def test_profile_lines27_product():
    system = lines27_system()
    assert len(system) == system.fan.n
    assert system.fan.product_structure is not None
    assert sorted(n for _grp, n in system.fan.product_structure) == [2, 2]
    assert weighted_projective_weights(system.fan) is None


def test_profile_intro_unmixed():
    base, dils = _unmixed_base(intro_system())
    assert base == DivisorClass(base.fan, (0, 0, 1, 2))
    assert dils == (1, 1)


def test_profile_p2_base_with_distinct_dilations():
    base, dils = _unmixed_base(p2_system())
    assert base.degree() == ((1,), ())
    assert dils == (2, 3)


def test_profile_mixed_degrees_have_no_base():
    assert _unmixed_base(lines27_system()) is None


# improved pair


def test_improved_pair_lines27():
    system = lines27_system()
    fan = system.fan
    pair = improved_pair(system)
    assert pair.provenance is Provenance.MULTIHOMOGENEOUS
    assert pair.alpha == DivisorClass(fan, (0, 0, 4, 4, 0, 0))
    assert pair.alpha0 == DivisorClass(fan, (0, 0, 1, 1, 0, 0))
    assert predicted_shape(system, pair) == (441, 552)


def test_improved_pair_p2_macaulay():
    system = p2_system()
    fan = system.fan
    pair = improved_pair(system)
    assert pair.provenance is Provenance.MACAULAY
    assert pair.alpha == DivisorClass(fan, (0, 0, 3))
    assert pair.alpha0 == DivisorClass(fan, (0, 0, 1))
    assert predicted_shape(system, pair) == (15, 9)
    verify_pair(system, pair)
    assert pair.verified
    assert pair.delta_plus == 6


def test_improved_pair_pillow_codegree():
    system = pillow_system()
    fan = system.fan
    pair = improved_pair(system)
    assert pair.provenance is Provenance.CODEGREE
    assert pair.alpha == DivisorClass(fan, (2, 2, 2, 2))
    assert pair.alpha0 == DivisorClass(fan, (1, 1, 1, 1))


def test_improved_pair_hirzebruch_codegree():
    system = intro_system()
    fan = system.fan
    pair = improved_pair(system)
    assert pair.provenance is Provenance.CODEGREE
    assert pair.alpha == DivisorClass(fan, (0, 0, 1, 2))
    assert pair.alpha0 == DivisorClass(fan, (0, 0, 1, 2))
    default = default_pair(system)
    assert len(graded_basis(fan, pair.top)) < len(graded_basis(fan, default.top))


def test_improved_pair_weighted():
    system = wp112_system()
    pair = improved_pair(system)
    assert pair.provenance is Provenance.WEIGHTED
    assert pair.alpha.degree() == ((1,), ())
    assert pair.alpha0.degree() == ((2,), ())
    verify_pair(system, pair)
    assert pair.verified
    assert pair.delta_plus == 2


def test_multiplier_basepoint_raises():
    # the class (1, 0, 0, 0) has the single section x_0, which vanishes
    # at the solution (0, 1, 1, 1): N_{h_0} is singular for every h_0
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    with pytest.raises(BasepointError) as info:
        solve(system, pair=((2, 2, 2, 2), (1, 0, 0, 0)))
    assert info.value.stage == "basepoint"
    assert info.value.exit_code == 3


def test_improved_pair_p1_linear_zero_alpha():
    # one linear form on the line: alpha drops all the way to degree 0
    system = homogenize([[((0,), 1.0), ((1,), 2.0)]], rays=P1_RAYS)
    pair = improved_pair(system)
    assert pair.provenance is Provenance.MACAULAY
    assert pair.alpha.degree() == ((0,), ())
    assert pair.alpha0.degree() == ((1,), ())
    verify_pair(system, pair)
    assert pair.verified
    assert pair.delta_plus == 1


# vanishing test


def test_vanishing_pair_lines27():
    system = lines27_system()
    assert vanishing_pair(system, (0, 0, 5, 5, 0, 0))
    assert vanishing_pair(system, (0, 0, 7, 7, 0, 0))
    assert not vanishing_pair(system, (0, 0, 2, 2, 0, 0))


def test_vanishing_pair_conservative_on_unknown_cohomology():
    # pillow cohomology outside the nef/anti-nef cases is undecided here
    system = pillow_system()
    assert vanishing_pair(system, (2, 2, 2, 2)) in (False, True)
    assert not vanishing_pair(system, (1, 0, 0, 0))


# verification


def test_verify_pair_detects_bad_multiplier():
    system = intro_system()
    bad = user_pair(system, (0, 0, 2, 4), (0, 0, 2, 0))
    verify_pair(system, bad)
    assert bad.coranks == (3, 4)
    assert bad.verified is False
    assert bad.delta_plus is None

    good = user_pair(system, (0, 0, 2, 4), (0, 0, 1, 0))
    verify_pair(system, good)
    assert good.coranks == (3, 3)
    assert good.verified is True
    assert good.delta_plus == 3


def test_verify_improved_lines27():
    system = lines27_system()
    pair = verify_pair(system, improved_pair(system))
    assert pair.verified
    assert pair.delta_plus == 45


def test_verify_pillow_user_pair():
    system = pillow_system()
    pair = user_pair(system, (2, 2, 2, 2), (1, 1, 1, 1))
    assert pair.provenance is Provenance.USER_SUPPLIED
    verify_pair(system, pair)
    assert pair.verified
    assert pair.delta_plus == 4


def test_user_pair_rejects_empty_multiplier():
    system = pillow_system()
    with pytest.raises(PairSelectionError, match="no sections"):
        user_pair(system, (2, 2, 2, 2), (-1, 0, 0, 0))


def test_lines27_solve_builds_each_section_polytope_once(monkeypatch):
    # pair selection, homogenization and assembly all ask for section
    # polytopes; the fan builds each representative's polytope once
    built = Counter()
    from_inequalities = Polytope.from_inequalities.__func__

    def counting(cls, a, b):
        built[tuple(b)] += 1
        return from_inequalities(cls, a, b)

    monkeypatch.setattr(Polytope, "from_inequalities", classmethod(counting))
    rng = np.random.default_rng(0)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    result = solve(lines27_laurent(c), rays=LINES27_RAYS, seed=0)
    assert result.delta_plus == 45
    assert built and max(built.values()) == 1, built.most_common(3)


def test_predicted_shape_matches_assembly():
    system = pillow_system()
    pair = improved_pair(system)
    res = assemble_res(system, pair.top)
    assert res.matrix.shape == predicted_shape(system, pair)


# random square systems: the default pair verifies and improved never
# needs a larger matrix

GRID = [(a, b) for a in range(3) for b in range(3)]


@settings(max_examples=12, deadline=None)
@given(
    picks=st.tuples(
        st.sets(st.sampled_from(GRID), min_size=4, max_size=6),
        st.sets(st.sampled_from(GRID), min_size=4, max_size=6),
    ),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_default_pair_verifies_on_random_squares(picks, seed):
    rng = np.random.default_rng(seed)
    eqs = []
    for support in picks:
        eqs.append(
            [(m, complex(rng.standard_normal(), rng.standard_normal())) for m in sorted(support)]
        )
    try:
        system = homogenize(eqs)
    except InputError:
        assume(False)
    try:
        pair = verify_pair(system, default_pair(system))
        improved = improved_pair(system)
    except RankAmbiguousError:
        assume(False)
    assert pair.verified
    assert pair.delta_plus >= 1
    fan = system.fan
    assert len(graded_basis(fan, improved.top)) <= len(graded_basis(fan, pair.top))
