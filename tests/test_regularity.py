"""Degree pair selection, the vanishing test, and corank verification."""

from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricsolve import cox
from toricsolve.cox import graded_basis, homogenize
from toricsolve.eigensolver import assemble_res, cokernel, multiplication_family
from toricsolve.errors import (
    BasepointError,
    InputError,
    PairSelectionError,
    RankAmbiguousError,
    SpanError,
)
from toricsolve.formats import load_system_file
from toricsolve.lattice import Polytope
from toricsolve import regularity
from toricsolve.regularity import (
    Provenance,
    RegularityPair,
    _multiplier_ok,
    default_pair,
    improved_pair,
    predicted_shape,
    user_pair,
    vanishing_pair,
    verify_pair,
)
from toricsolve.solver import solve
from toricsolve import toric
from toricsolve.toric import DivisorClass, Fan, higher_cohomology_vanishes, nef_witness

from systems import (
    HIRZEBRUCH_RAYS,
    LINES27_RAYS,
    P2_RAYS,
    PILLOW_RAYS,
    PILLOW_RAYS_SOLVE,
    WP112_RAYS,
    alpha0_walk_pair,
    codegree,
    cohomology_dims,
    hirzebruch_fan,
    intro_laurent,
    lines27_fan,
    lines27_laurent,
    macaulay_pair,
    p2_fan,
    pillow_fan_solve,
    pillow_laurent,
    unmixed_base,
    weighted_pair,
    weighted_projective_weights,
    wp112_fan,
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


def pair_vectors(pair):
    """(alpha, alpha0) as degree vectors, not classes: equal classes may
    still give different Res matrices."""
    return pair.alpha.a, pair.alpha0.a


def codegree_pair(system):
    """The codegree bound: with degrees d_i * B, B nef Cartier with
    spanning lattice points and c the codegree of its polytope, the
    vectors ((sum d_i - c + 1) * B, B); None where it does not apply."""
    unmixed = unmixed_base(system)
    if not unmixed or not _multiplier_ok(unmixed[0]):
        return None
    base, dils = unmixed
    t = sum(dils) - codegree(base.polytope()) + 1
    return None if t < 0 else ((t * base).a, base.a)


def reference_improved_pair(system):
    """Vectors of the smallest Res among the Macaulay and weighted
    closed forms, the codegree pair, the alpha0 walk and the default,
    earlier ones winning ties: the pair selection the vanishing walk
    replaced."""
    fan = system.fan
    pairs = [macaulay_pair(system), weighted_pair(system), codegree_pair(system),
             alpha0_walk_pair(system)]
    pairs = [p for p in pairs if p and len(graded_basis(fan, p[0])) > 0]
    pairs.append(pair_vectors(default_pair(system)))
    return min(pairs, key=lambda p: len(graded_basis(fan, tuple(a + b for a, b in zip(*p)))))


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
    assert macaulay_pair(system) == ((4, 4, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))


def test_profile_intro_unmixed():
    base, dils = unmixed_base(intro_system())
    assert base == DivisorClass(base.fan, (0, 0, 1, 2))
    assert dils == (1, 1)
    assert codegree(base.polytope()) == 2


def test_profile_p2_base_with_distinct_dilations():
    base, dils = unmixed_base(p2_system())
    assert base.degree() == ((1,), ())
    assert dils == (2, 3)


def test_profile_mixed_degrees_have_no_base():
    assert unmixed_base(lines27_system()) is None


# improved pair


def test_improved_pair_lines27():
    system = lines27_system()
    fan = system.fan
    pair = improved_pair(system)
    # the multihomogeneous Macaulay class, reached from the default pair
    assert pair.provenance is Provenance.VANISHING_TEST
    assert pair_vectors(pair) == ((0, 0, 4, 4, 0, 0), (0, 0, 1, 1, 0, 0))
    assert pair.alpha == DivisorClass(fan, macaulay_pair(system)[0])
    assert predicted_shape(system, pair) == (441, 552)


def test_improved_pair_p2_macaulay():
    system = p2_system()
    fan = system.fan
    pair = improved_pair(system)
    assert pair.provenance is Provenance.VANISHING_TEST
    assert pair_vectors(pair) == ((0, 0, 3), (0, 0, 1))
    assert pair.alpha == DivisorClass(fan, macaulay_pair(system)[0])
    assert predicted_shape(system, pair) == (15, 9)
    assert verify_pair(system, pair) == (6, 6)


def test_improved_pair_pillow_vanishing():
    # the diamond has codegree 1, so the codegree pair is the default one;
    # ray steps reach a class that is not a multiple of alpha0
    system = pillow_system()
    pair = improved_pair(system)
    assert pair.provenance is Provenance.VANISHING_TEST
    assert pair_vectors(pair) == ((0, 1, 1, 2), (1, 1, 1, 1))
    assert codegree_pair(system) == pair_vectors(default_pair(system))
    assert predicted_shape(system, pair) == (12, 8)
    assert predicted_shape(system, default_pair(system)) == (25, 26)
    assert verify_pair(system, pair) == (4, 4)


def test_improved_pair_hirzebruch_vanishing():
    # unmixed with codegree 2: the walk passes the codegree pair, where
    # the alpha0 walk stopped, and goes on with a ray step
    system = intro_system()
    fan = system.fan
    pair = improved_pair(system)
    assert pair.provenance is Provenance.VANISHING_TEST
    assert pair_vectors(pair) == ((-1, 0, 1, 2), (0, 0, 1, 2))
    assert codegree_pair(system) == alpha0_walk_pair(system) == ((0, 0, 1, 2), (0, 0, 1, 2))
    assert predicted_shape(system, pair) == (9, 6)
    assert len(graded_basis(fan, (0, 0, 2, 4))) == 12
    default = default_pair(system)
    assert len(graded_basis(fan, pair.top)) < len(graded_basis(fan, default.top))


def test_improved_pair_weighted():
    system = wp112_system()
    pair = improved_pair(system)
    assert pair.provenance is Provenance.VANISHING_TEST
    assert pair_vectors(pair) == ((-1, 1, 0), (0, 1, 0))
    assert pair.alpha.degree() == ((1,), ())
    assert pair.alpha0.degree() == ((2,), ())
    fan = system.fan
    assert (pair.alpha, pair.alpha0) == tuple(DivisorClass(fan, a) for a in weighted_pair(system))
    assert verify_pair(system, pair) == (2, 2)


def test_multiplier_basepoint_raises():
    # the class (1, 0, 0, 0) has the single section x_0, which vanishes
    # at the solution (0, 1, 1, 1): N_{h_0} is singular for every h_0.
    # One section spans nothing, so user_pair (and solve) refuse the pair
    # first; the family is built on its cokernel directly
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS)
    with pytest.raises(SpanError):
        solve(system, pair=((2, 2, 2, 2), (1, 0, 0, 0)))
    cok = cokernel(assemble_res(system, (3, 2, 2, 2), (1, 0, 0, 0)))
    with pytest.raises(BasepointError) as info:
        multiplication_family(cok)
    assert info.value.stage == "basepoint"
    assert info.value.exit_code == 3


def test_improved_pair_p1_linear_zero_alpha():
    # one linear form on the line: alpha drops all the way to degree 0
    system = homogenize([[((0,), 1.0), ((1,), 2.0)]], rays=P1_RAYS)
    pair = improved_pair(system)
    assert pair.provenance is Provenance.VANISHING_TEST
    assert pair.alpha.degree() == ((0,), ())
    assert pair.alpha0.degree() == ((1,), ())
    assert verify_pair(system, pair) == (1, 1)


def test_improved_pair_ends_on_a_zero_multiplier():
    # two constants and a Reeve tetrahedron, whose points span an index-2
    # sublattice: no multiplier candidate passes, the fallback alpha0 is
    # the zero class, and a step by it would never leave alpha
    reeve = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]
    system = homogenize([[((0, 0, 0), 1.0)], [(p, 1.0 + i) for i, p in enumerate(reeve)],
                         [((0, 0, 0), 2.0)]])
    assert default_pair(system).alpha0.degree() == ((0,), (0, 0))
    pair = improved_pair(system)
    assert pair.alpha.degree() == ((0,), (0, 0))


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
    # both multipliers have one section, which user_pair refuses: the
    # pairs are built directly
    system = intro_system()

    def pair(alpha0):
        fan = system.fan
        return RegularityPair(DivisorClass(fan, (0, 0, 2, 4)), DivisorClass(fan, alpha0),
                              Provenance.USER_SUPPLIED)

    assert verify_pair(system, pair((0, 0, 2, 0))) == (3, 4)
    assert verify_pair(system, pair((0, 0, 1, 0))) == (3, 3)


@pytest.mark.parametrize("system, make, delta", [
    (intro_system(), improved_pair, 3),
    (intro_system(), default_pair, 3),
    (pillow_system(), lambda s: user_pair(s, (2, 2, 2, 2), (1, 1, 1, 1)), 4),
], ids=["improved", "default", "user"])
def test_solve_leaves_the_pair_as_it_was(system, make, delta):
    pair = make(system)
    before = {name: getattr(pair, name) for name in RegularityPair.__slots__}
    assert verify_pair(system, pair) == (delta, delta)
    result = solve(system, pair=pair)
    assert result.pair is pair and result.delta_plus == delta
    assert {name: getattr(pair, name) for name in RegularityPair.__slots__} == before
    assert repr(pair).endswith(f"provenance={pair.provenance.value})")


def test_improved_pair_is_memoized_per_degrees():
    system = intro_system()
    pair = improved_pair(system)
    assert improved_pair(system) is pair
    # another system with the same supports reads the same entry
    assert improved_pair(intro_system(0.5)) is pair


def test_verify_improved_lines27():
    system = lines27_system()
    assert verify_pair(system, improved_pair(system)) == (45, 45)


def test_verify_pillow_user_pair():
    system = pillow_system()
    pair = user_pair(system, (2, 2, 2, 2), (1, 1, 1, 1))
    assert pair.provenance is Provenance.USER_SUPPLIED
    assert verify_pair(system, pair) == (4, 4)


def test_user_pair_rejects_empty_multiplier():
    system = pillow_system()
    with pytest.raises(PairSelectionError, match="no sections"):
        user_pair(system, (2, 2, 2, 2), (-1, 0, 0, 0))


@pytest.mark.parametrize("pair, what", [
    (((2.5, 1.5, 0.5, 0.5), (1, 1, 1, 1)), "alpha must be"),
    (((2, 2, 2, 2), (1, 1, 1, 1.0)), "alpha0 must be"),
    (((True, 2, 2, 2), (1, 1, 1, 1)), "alpha must be"),
    (((2, 2, 2, 2), (True, 1, 1, 1)), "alpha0 must be"),
    (((2, 2, 2, 2), 1), "alpha0 must be"),
    (5, r"pair must be an \(alpha, alpha0\) pair"),
    (((2, 2, 2, 2),), r"pair must be an \(alpha, alpha0\) pair"),
], ids=["float-alpha", "float-alpha0", "bool-alpha", "bool-alpha0", "scalar-alpha0",
        "scalar-pair", "one-vector"])
def test_solve_rejects_non_integer_pair(pair, what):
    # (2.5, 1.5, 0.5, 0.5) used to run as (2, 1, 0, 0) and verify
    with pytest.raises(InputError, match=what):
        solve(pillow_laurent(), rays=PILLOW_RAYS_SOLVE, pair=pair)
    if isinstance(pair, tuple) and len(pair) == 2:
        system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
        with pytest.raises(InputError, match=what):
            user_pair(system, *pair)


def test_lines27_solve_builds_each_section_polytope_once(monkeypatch):
    # pair selection, homogenization and assembly all ask for section
    # polytopes; the fan builds each representative's polytope once
    built = Counter()
    from_inequalities = Polytope.from_inequalities.__func__

    def counting(cls, a, b):
        built[tuple(b)] += 1
        return from_inequalities(cls, a, b)

    monkeypatch.setattr(Polytope, "from_inequalities", classmethod(counting))
    # a fan cached by an earlier solve would build nothing here
    cox._supports.clear()
    rng = np.random.default_rng(0)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    result = solve(lines27_laurent(c), rays=LINES27_RAYS, seed=0)
    assert result.delta_plus == 45
    assert built and max(built.values()) == 1, built.most_common(3)


RAYS25_SUPPORTS = [
    [(0, 0, 0), (1, 2, 3), (2, 0, 2), (2, 1, 2)],
    [(0, 0, 0), (0, 1, 2), (2, 3, 0), (3, 2, 0)],
    [(0, 0, 0), (0, 1, 2), (1, 0, 1), (1, 0, 3), (2, 0, 2)],
]


def test_cold_pair_on_a_fan_of_25_rays():
    """A sparse system in 3 variables whose fan has 25 rays: the fan is
    recognized as no product of projective spaces from its class group,
    where a search over subsets of rays took about 35 s."""
    rng = np.random.default_rng(0)
    eqs = [[(m, complex(*rng.standard_normal(2))) for m in support]
           for support in RAYS25_SUPPORTS]
    # a fan cached by an earlier solve would select no pair here
    cox._supports.clear()
    result = solve(eqs, seed=0)
    assert result.system.fan.k == 25
    assert result.system.fan.product_structure is None
    assert result.delta_plus == 36
    assert len(result.on_torus()) == 36
    assert result.max_residual() < 1e-10
    assert result.timings["pair_ms"] < 5000


DATA = Path(__file__).parent / "data"


def test_cold_pair_on_rays35_enumerates_no_section_polytope(monkeypatch):
    """On the 35-ray fan no step of the walk passes, so the pair is the
    sum-of-degrees one, whose alpha0 candidates are the equations'
    degrees and the sum itself. homogenize read all their bases off the
    hulls it holds, so the pair derives no polytope from the rays (one,
    the sum's, when homogenize did not)."""
    sf = load_system_file(DATA / "sparse3_rays35_seed0.system.json")
    monkeypatch.setattr(cox, "_supports", {})
    system = homogenize(sf.laurent(), rays=sf.rays)
    built = []
    from_inequalities = Polytope.from_inequalities.__func__

    def counting(cls, a, b):
        built.append(tuple(b))
        return from_inequalities(cls, a, b)

    monkeypatch.setattr(Polytope, "from_inequalities", classmethod(counting))
    pair = improved_pair(system)
    assert pair.alpha.a == tuple(system.fan.offsets)
    assert built == []


def test_cold_pillow_pair_decides_nef_twists_without_polytopes(monkeypatch):
    """The pillow is no product of projective spaces, so the walk decides
    a nef twist by Demazure vanishing: the polytopes built are those of
    the classes the walk sizes and of the anti-nef twists (38; 56 when
    every twist counted its cohomology), and the verdict tests each class
    and its negative for nef at most once (85 nef_witness calls in the
    pair; 108 when a twist that is not nef was tested twice)."""
    built = []
    from_inequalities = Polytope.from_inequalities.__func__
    witnessed, in_verdict = [], []

    def counting(cls, a, b):
        built.append(tuple(b))
        return from_inequalities(cls, a, b)

    def recording_witness(div):
        # (the class the verdict was asked about, whether div is it or
        # its negative), or None outside the verdict
        asked = in_verdict[-1] if in_verdict else None
        witnessed.append(asked and (asked.degree(), div.a == asked.a))
        return nef_witness(div)

    def recording_verdict(div):
        in_verdict.append(div)
        try:
            return higher_cohomology_vanishes(div)
        finally:
            in_verdict.pop()

    cox._supports.clear()
    system = homogenize(pillow_laurent(), rays=PILLOW_RAYS_SOLVE)
    monkeypatch.setattr(Polytope, "from_inequalities", classmethod(counting))
    monkeypatch.setattr(toric, "nef_witness", recording_witness)
    monkeypatch.setattr(regularity, "higher_cohomology_vanishes", recording_verdict)
    pair = improved_pair(system)
    assert (pair.alpha.a, pair.alpha0.a) == ((0, 1, 1, 2), (1, 1, 1, 1))
    assert system.fan.product_structure is None
    assert len(built) == len(set(built)) == 38
    asked = Counter(key for key in witnessed if key is not None)
    assert asked and max(asked.values()) == 1, asked.most_common(3)
    assert len(witnessed) == 85


# products of projective spaces (Kunneth) next to fans that are not
# (nef, anti-nef or undecided)
VERDICT_FANS = [
    p2_fan(),
    Fan.normal_fan(Polytope.from_points(list(product((0, 1), repeat=2)))),
    Fan.normal_fan(Polytope.from_points(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)])),
    Fan.normal_fan(Polytope.from_points(list(product((0, 1), repeat=3)))),
    lines27_fan(),
    hirzebruch_fan(),
    pillow_fan_solve(),
    wp112_fan(),
    # the octahedron's: not simplicial, four rays in each maximal cone
    Fan.normal_fan(Polytope.from_points(
        [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)])),
]


def test_verdict_fans_are_the_named_varieties():
    # P^2, P^1 x P^1, P^1 x P^2, (P^1)^3, P^2 x P^2, then four that are not
    factors = [fan.product_structure and sorted(m for _, m in fan.product_structure)
               for fan in VERDICT_FANS]
    assert factors == [[2], [1, 1], [1, 2], [1, 1, 1], [2, 2], None, None, None, None]


@settings(max_examples=300, deadline=None)
@given(fan=st.sampled_from(VERDICT_FANS), data=st.data())
def test_vanishing_verdict_matches_cohomology_dims(fan, data):
    a = data.draw(st.tuples(*[st.integers(-4, 4)] * fan.k))
    div = DivisorClass(fan, a)
    dims, _reason = cohomology_dims(div)
    assert higher_cohomology_vanishes(div) == (dims is not None and not any(dims[1:]))


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
        pair = default_pair(system)
        lo, hi = verify_pair(system, pair)
        improved = improved_pair(system)
    except RankAmbiguousError:
        assume(False)
    assert lo == hi >= 1
    fan = system.fan
    assert len(graded_basis(fan, improved.top)) <= len(graded_basis(fan, pair.top))


# shaped square systems: the vanishing walk never needs a larger Res
# than the closed forms, the codegree pair and the alpha0 walk it
# replaced, and its pair verifies


def lattice_polytopes(n):
    box = list(product(range(3), repeat=n))
    return st.sets(st.sampled_from(box), min_size=n + 1, max_size=n + 3)


def simplex(n, d):
    return [(0,) * n] + [tuple(d * (i == j) for i in range(n)) for j in range(n)]


def weighted_simplex(n, d):
    # P(1, ..., 1, 2, 1): the last axis has half the reach of the others
    return [(0,) * n] + [tuple(2 * d * (i == j) for i in range(n)) for j in range(n - 1)] \
        + [tuple(d * (i == n - 1) for i in range(n))]


def box(sides):
    return list(product(*[(0, a) for a in sides]))


def hirzebruch(n, a, c, h):
    # trapezoid with sides a > c, normal fan F_1; in 3 variables times [0, h]
    quad = [(0, 0), (a, 0), (a - c, c), (0, c)]
    return quad if n == 2 else [q + (z,) for q in quad for z in (0, h)]


def shaped_system(n, draw):
    """Vertex lists of n equations of one shape, each its own size."""
    top = 3 if n == 2 else 2
    sizes = st.integers(1, top)
    shape = draw(st.sampled_from(["dense", "box", "weighted", "hirzebruch", "unmixed"]))
    if shape == "dense":
        return [simplex(n, draw(sizes)) for _ in range(n)]
    if shape == "box":
        return [box(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
                for _ in range(n)]
    if shape == "weighted":
        return [weighted_simplex(n, draw(sizes)) for _ in range(n)]
    if shape == "hirzebruch":
        out = []
        for _ in range(n):
            c = draw(st.integers(1, top - 1))
            out.append(hirzebruch(n, draw(st.integers(c + 1, top + 1)), c, draw(st.integers(1, 2))))
        return out
    base = Polytope.from_points(draw(lattice_polytopes(n)))
    assume(base.dim == n)
    return [[tuple(d * x for x in v) for v in base.vertices]
            for d in draw(st.lists(sizes, min_size=n, max_size=n))]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3]), shuffle=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_improved_pair_never_larger_than_reference(data, n, shuffle, seed):
    rng = np.random.default_rng(seed)
    eqs = []
    for verts in shaped_system(n, data.draw):
        points = Polytope.from_points(verts).lattice_points()
        eqs.append([(m, complex(*rng.standard_normal(2))) for m in points])
    system = homogenize(eqs)
    if shuffle:
        rays = list(system.fan.rays)
        rng.shuffle(rays)
        system = homogenize(eqs, rays=rays)
    fan = system.fan
    pair = improved_pair(system)
    ref = reference_improved_pair(system)
    assert len(graded_basis(fan, pair.top)) <= len(graded_basis(fan, tuple(map(sum, zip(*ref)))))
    lo, hi = verify_pair(system, pair)
    assert lo == hi


def test_verify_pair_coranks_are_the_solve_corank():
    """verify_pair and solve make the same cokernel call: the tall Res at
    alpha + alpha0 with Res at alpha as its block, reduced down its
    alpha0 chain by two levels here."""
    rng = np.random.default_rng(5)
    dense = [p for p in product(range(7), repeat=2) if sum(p) <= 6]
    system = homogenize([[(p, complex(*rng.standard_normal(2))) for p in dense]
                         for _ in range(2)])
    pair = improved_pair(system)
    low = assemble_res(system, pair.alpha)
    top = assemble_res(system, pair.top)
    assert low.shape == (66, 30) and top.shape == (78, 42)
    delta_plus = solve(system, pair=pair).delta_plus
    assert verify_pair(system, pair) == (delta_plus, delta_plus) == (36, 36)
