"""Degree pair selection for the multiplication-map eigenvalue solver.

The solver works inside two graded pieces of the Cox ring: eigenvector
coordinates live in S_alpha and the multiplier h ranges over S_alpha0.
The pair (alpha, alpha0) is admissible when the cokernel of Res has the
same dimension at alpha and at alpha + alpha0; this module picks such
pairs, exploiting fan structure when it is recognized, and verifies a
candidate numerically by comparing the two coranks.

Selection strategy: always form the safe sum-of-degrees pair, then try
the closed forms that apply (projective space, products of projective
spaces, weighted projective space) and a direct cohomology-vanishing
search, and keep the candidate whose Res matrix at alpha + alpha0 has
the fewest rows. The search covers unmixed systems, whose degrees are
d_i * B for one class B: there every class it tests is a multiple of
B, so its cohomology is decidable, and the walk stops at the codegree
bound ((sum d_i - c + 1) * B, B), c the codegree of B's polytope.
"""

import math
from enum import Enum
from itertools import combinations

from .cox import graded_basis
from .eigensolver import assemble_res, cokernel
from .errors import PairSelectionError
from .lattice import int_vector, sublattice_index
from .recovery import check_span
from .toric import (
    DivisorClass,
    cohomology_dims,
    is_effective,
    is_nef_cartier,
    weighted_projective_weights,
)

__all__ = [
    "Provenance",
    "RegularityPair",
    "default_pair",
    "improved_pair",
    "user_pair",
    "vanishing_pair",
    "verify_pair",
    "predicted_shape",
]


class Provenance(Enum):
    """How a degree pair was constructed."""

    SUM_OF_DEGREES = "SumOfDegrees"
    MACAULAY = "Macaulay"
    MULTIHOMOGENEOUS = "Multihomogeneous"
    WEIGHTED = "Weighted"
    VANISHING_TEST = "VanishingTest"
    USER_SUPPLIED = "UserSupplied"


class RegularityPair:
    """A degree pair (alpha, alpha0) and how it was constructed.

    Immutable by convention: whether the coranks at alpha and at
    alpha + alpha0 agree depends on the system's coefficients, not on
    the pair, so verify_pair returns them instead of storing them here.

    Attributes:
        alpha: DivisorClass hosting the eigenvector coordinates.
        alpha0: DivisorClass of the multipliers.
        provenance: Provenance of the construction.
    """

    __slots__ = ("alpha", "alpha0", "provenance")

    def __init__(self, alpha, alpha0, provenance):
        if alpha.fan is not alpha0.fan:
            raise PairSelectionError("pair degrees live on different fans")
        self.alpha = alpha
        self.alpha0 = alpha0
        self.provenance = provenance

    @property
    def top(self):
        """alpha + alpha0, the row degree of the solver's Res matrix."""
        return self.alpha + self.alpha0

    def __repr__(self):
        return (
            f"RegularityPair(alpha={self.alpha.a}, alpha0={self.alpha0.a}, "
            f"provenance={self.provenance.value})"
        )


def predicted_shape(system, pair):
    """(rows, cols) of Res at alpha + alpha0 without assembling it."""
    fan, top = system.fan, pair.top
    cols = sum(len(graded_basis(fan, top - div)) for div in system.degrees)
    return len(graded_basis(fan, top)), cols


def _spans_affinely(div):
    """True when the lattice points of the section polytope affinely
    generate the full character lattice (sublattice index 1)."""
    pts = div.polytope().lattice_point_array()
    return (len(pts) > div.fan.n
            and sublattice_index((pts[1:] - pts[0]).tolist(), div.fan.n) == 1)


def _multiplier_ok(div):
    """Filter for alpha0 candidates.

    Needs nef Cartier (so sections have no basepoints on the variety)
    and lattice points that affinely generate M with index 1 (so torus
    coordinates can be read back from eigenvalue ratios).
    """
    if not is_effective(div):
        return False
    if not is_nef_cartier(div):
        return False
    return _spans_affinely(div)


def _select_multiplier(system, alpha):
    """Smallest admissible alpha0 among the natural candidates.

    Candidates are the equation degrees themselves and the Minkowski sum
    scaled down by each divisor of the content of its representative.
    They are tried by number of sections, smallest first, ties in that
    order, and the first that passes the filters wins. Falls back to the
    first equation degree when none passes; an actual obstruction then
    surfaces during recovery.
    """
    fan = system.fan
    candidates = list(system.degrees)
    content = math.gcd(*(abs(x) for x in alpha.a))
    if content > 0:
        for d in range(content, 0, -1):
            if content % d == 0:
                candidates.append(DivisorClass(fan, tuple(x // d for x in alpha.a)))
    candidates.sort(key=lambda cand: len(graded_basis(fan, cand)))
    return next(filter(_multiplier_ok, candidates), system.degrees[0])


def default_pair(system):
    """The sum-of-degrees pair (sum alpha_i, alpha0).

    alpha0 is the smallest class among the equation degrees and the
    scaled-down Minkowski sum that is nef Cartier with affinely
    generating lattice points. Only defined for square systems.

    Raises:
        PairSelectionError: the system is not square.
    """
    s, n = len(system), system.n
    if s != n:
        kind = "overdetermined" if s > n else "underdetermined"
        raise PairSelectionError(
            f"no default pair for {kind} systems ({s} equations, torus dimension {n}); "
            "supply a pair explicitly"
        )
    alpha = system.degrees[0]
    for div in system.degrees[1:]:
        alpha = alpha + div
    return RegularityPair(alpha, _select_multiplier(system, alpha), Provenance.SUM_OF_DEGREES)


def vanishing_pair(system, beta):
    """Check the cohomological criterion for beta to bound the regularity.

    Requires H^p(beta - sum_{i in J} alpha_i) = 0 for all p > 0 and all
    subsets J of the equations. Conservative: any cohomology this code
    cannot decide counts as a failure.
    """
    fan = system.fan
    beta = beta if isinstance(beta, DivisorClass) else DivisorClass(fan, beta)
    s = len(system)
    for r in range(s + 1):
        for J in combinations(range(s), r):
            diff = beta
            for i in J:
                diff = diff - system.degrees[i]
            dims, _reason = cohomology_dims(diff)
            if dims is None or any(dims[1:]):
                return False
    return True


def _macaulay_candidate(system):
    """Pair for (products of) projective spaces from the Macaulay bound.

    Per factor j: c_j = sum_i d_ij - n_j with d_ij the multidegree of
    f_i on that factor; alpha puts c_j on one ray of each factor and
    alpha0 is the (1, ..., 1) class. Skipped when any c_j is negative
    or any equation has a negative multidegree.
    """
    fan = system.fan
    groups = fan.product_structure
    if not groups:
        return None
    multidegs = []
    for div in system.degrees:
        md = tuple(sum(div.a[j] for j in grp) for grp, _n in groups)
        if any(x < 0 for x in md):
            return None
        multidegs.append(md)
    rep = [0] * fan.k
    rep0 = [0] * fan.k
    for j, (grp, n_j) in enumerate(groups):
        c_j = sum(md[j] for md in multidegs) - n_j
        if c_j < 0:
            return None
        rep[grp[0]] = c_j
        rep0[grp[0]] = 1
    prov = Provenance.MACAULAY if len(groups) == 1 else Provenance.MULTIHOMOGENEOUS
    return RegularityPair(DivisorClass(fan, rep), DivisorClass(fan, rep0), prov)


def _weighted_rep(fan, weights, target):
    """Divisor vector with given weighted degree, by coin-change DP."""
    if target < 0:
        return None
    reach = [None] * (target + 1)
    reach[0] = []
    for amount in range(1, target + 1):
        for j, q in enumerate(weights):
            if q <= amount and reach[amount - q] is not None:
                reach[amount] = reach[amount - q] + [j]
                break
    picks = reach[target]
    if picks is None:
        return None
    rep = [0] * fan.k
    for j in picks:
        rep[j] += 1
    return tuple(rep)


def _weighted_candidate(system):
    """Pair on a weighted projective space P(q).

    With l = lcm(q) and deg f_i = k_i * eta, applies only when l | k_i
    for all i; then d_i = k_i / l and the pair is
    (d_reg * eta, l * eta) with d_reg = l * sum d_i - sum q + 1.
    Valid only when l * eta has no basepoints on the solution set; a
    basepoint makes the restricted N_{h_0} singular for every h_0, so
    multiplication_family raises BasepointError.
    """
    fan = system.fan
    weights = weighted_projective_weights(fan)
    if not weights:
        return None
    if fan.class_group.free_rank != 1 or fan.class_group.torsion:
        return None
    ell = math.lcm(*weights)
    dils = []
    for div in system.degrees:
        (free, _tors) = div.degree()
        k_i = free[0]
        if k_i <= 0 or k_i % ell != 0:
            return None
        dils.append(k_i // ell)
    d_reg = ell * sum(dils) - sum(weights) + 1
    rep = _weighted_rep(fan, weights, d_reg)
    rep0 = _weighted_rep(fan, weights, ell)
    if rep is None or rep0 is None:
        return None
    return RegularityPair(
        DivisorClass(fan, rep),
        DivisorClass(fan, rep0),
        Provenance.WEIGHTED,
    )


def _vanishing_candidate(system, default):
    """Largest t with sum(alpha_i) - t * alpha0 passing the vanishing test.

    Walks t = 1, 2, ... while the criterion holds and sections remain,
    so the resulting alpha and alpha + alpha0 both satisfy it. Returns
    None when even t = 1 fails or cohomology cannot be decided.
    """
    alpha0 = default.alpha0
    best = None
    t = 1
    while True:
        cand = default.alpha - t * alpha0
        if len(graded_basis(system.fan, cand)) == 0:
            break
        if not vanishing_pair(system, cand):
            break
        best = t
        t += 1
    if best is None:
        return None
    return RegularityPair(default.alpha - best * alpha0, alpha0, Provenance.VANISHING_TEST)


def improved_pair(system):
    """Best applicable pair: smallest dim S_{alpha + alpha0}.

    Builds the default sum-of-degrees pair, every closed-form candidate
    that applies, and the vanishing-test pair, then keeps the one whose
    Res matrix has the fewest rows. Closed forms win ties, and the
    default loses them. On unmixed degrees the vanishing search yields
    the codegree pair, or nothing when the codegree is 1, where that
    pair is the default.

    The choice depends on the fan and the equation degrees alone, so the
    fan keeps it per tuple of degree representatives and every call
    returns that same pair.

    Raises:
        PairSelectionError: the system is not square.
    """
    memo = system.fan._pairs
    key = tuple(div.a for div in system.degrees)
    if key not in memo:
        default = default_pair(system)
        candidates = []
        for cand in (
            _macaulay_candidate(system),
            _weighted_candidate(system),
            _vanishing_candidate(system, default),
        ):
            if cand is not None and len(graded_basis(system.fan, cand.alpha)) > 0:
                candidates.append(cand)
        candidates.append(default)
        # min keeps the first of equal sizes, so the default loses ties
        memo[key] = min(candidates,
                        key=lambda cand: len(graded_basis(system.fan, cand.top)))
    return memo[key]


def user_pair(system, alpha, alpha0):
    """Wrap explicit degree vectors (or classes) as a user pair.

    Raises:
        InputError: a vector entry is not an integer (a bool or a float
            would silently read as another degree), or a vector has the
            wrong length.
        PairSelectionError: alpha0 has no sections.
        SpanError: two or more alpha0 lattice points do not affinely span.
    """
    fan = system.fan
    if not isinstance(alpha, DivisorClass):
        alpha = DivisorClass(fan, int_vector(alpha, "alpha"))
    if not isinstance(alpha0, DivisorClass):
        alpha0 = DivisorClass(fan, int_vector(alpha0, "alpha0"))
    basis = graded_basis(fan, alpha0)
    if len(basis) == 0:
        raise PairSelectionError(
            f"alpha0 = {alpha0.a} has no sections; multipliers need a nonzero degree piece"
        )
    if len(basis) > 1:  # one section is left to the basepoint test
        check_span(basis, fan.n)
    return RegularityPair(alpha, alpha0, Provenance.USER_SUPPLIED)


def verify_pair(system, pair):
    """Coranks of Res at alpha and at alpha + alpha0.

    Assembles Res at both degrees and takes each corank from one pivoted
    QR with a certified cut, without a basis (eigensolver.cokernel). The
    pair is admissible when the two coranks agree; either one is delta+.

    Returns:
        (corank at alpha, corank at alpha + alpha0).

    Raises:
        RankAmbiguousError: the certificate fails and a singular value
            gap is too shallow to trust either corank, or Res overflows
            double precision.
    """
    lo = cokernel(assemble_res(system, pair.alpha, allow_empty=True),
                  corank_only=True)
    hi = cokernel(assemble_res(system, pair.top), corank_only=True)
    return lo.delta_plus, hi.delta_plus
