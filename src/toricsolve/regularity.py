"""Degree pair selection for the multiplication-map eigenvalue solver.

The solver works inside two graded pieces of the Cox ring: eigenvector
coordinates live in S_alpha and the multiplier h ranges over S_alpha0.
The pair (alpha, alpha0) is admissible when the cokernel of Res has the
same dimension at alpha and at alpha + alpha0; this module picks such
pairs, exploiting fan structure when it is recognized, and verifies a
candidate numerically by comparing the two coranks.

Selection strategy: always form the safe sum-of-degrees pair, then try
every specialized construction that applies (projective space, products
of projective spaces, weighted projective space, dilates of a common
base polytope, and a direct cohomology-vanishing search), and keep the
candidate whose Res matrix at alpha + alpha0 has the fewest rows.
"""

import math
from enum import Enum
from itertools import combinations

from .cox import graded_basis
from .eigensolver import assemble_res, cokernel
from .errors import PairSelectionError
from .lattice import sublattice_index
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
    CODEGREE = "Codegree"
    MACAULAY = "Macaulay"
    MULTIHOMOGENEOUS = "Multihomogeneous"
    WEIGHTED = "Weighted"
    VANISHING_TEST = "VanishingTest"
    USER_SUPPLIED = "UserSupplied"


class RegularityPair:
    """A candidate degree pair (alpha, alpha0) with its bookkeeping.

    Attributes:
        alpha: DivisorClass hosting the eigenvector coordinates.
        alpha0: DivisorClass of the multipliers.
        provenance: Provenance of the construction.
        verified: None until the coranks are recorded, then bool.
        delta_plus: corank of Res at alpha once verified, else None.
        coranks: (corank at alpha, corank at alpha + alpha0) once
            verified, else None.
    """

    __slots__ = (
        "alpha",
        "alpha0",
        "provenance",
        "verified",
        "delta_plus",
        "coranks",
    )

    def __init__(self, alpha, alpha0, provenance):
        if alpha.fan is not alpha0.fan:
            raise PairSelectionError("pair degrees live on different fans")
        self.alpha = alpha
        self.alpha0 = alpha0
        self.provenance = provenance
        self.verified = None
        self.delta_plus = None
        self.coranks = None

    @property
    def top(self):
        """alpha + alpha0, the row degree of the solver's Res matrix."""
        return self.alpha + self.alpha0

    def record_coranks(self, lo, hi):
        """Record the coranks of Res at alpha and at alpha + alpha0.

        Sets coranks and verified, and delta_plus when the two agree.
        Returns verified.
        """
        self.coranks = (lo, hi)
        self.verified = lo == hi
        self.delta_plus = lo if self.verified else None
        return self.verified

    def __repr__(self):
        return (
            f"RegularityPair(alpha={self.alpha.a}, alpha0={self.alpha0.a}, "
            f"provenance={self.provenance.value}, verified={self.verified})"
        )


def predicted_shape(system, pair):
    """(rows, cols) of Res at alpha + alpha0 without assembling it."""
    fan, top = system.fan, pair.top
    cols = sum(len(graded_basis(fan, top - div)) for div in system.degrees)
    return len(graded_basis(fan, top)), cols


def _unmixed_base(system):
    """Primitive common base of the equation degrees, or None.

    Looks for a vector a0 with every tight representative a_i equal to
    d_i * a0 for positive integers d_i. Uses the primitive choice (the
    first representative divided by its content), which maximizes the
    dilation factors and so gives the finest-grained codegree pair.
    """
    if not system.degrees:
        return None
    reps = [div.a for div in system.degrees]
    content = math.gcd(*(abs(x) for x in reps[0]))
    if content == 0:
        return None
    base = tuple(x // content for x in reps[0])
    pivot = next(j for j, x in enumerate(base) if x != 0)
    dils = []
    for rep in reps:
        if rep[pivot] % base[pivot] != 0:
            return None
        d = rep[pivot] // base[pivot]
        if d <= 0 or rep != tuple(d * x for x in base):
            return None
        dils.append(d)
    return DivisorClass(system.fan, base), tuple(dils)


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


def _codegree_candidate(system):
    """Pair for degrees that are dilates of one base polytope.

    With alpha_i = d_i * alpha0 and c the codegree of the base polytope,
    the pair is ((sum d_i - (c - 1)) * alpha0, alpha0).
    """
    unmixed = _unmixed_base(system)
    if not unmixed:
        return None
    base, dils = unmixed
    if not _multiplier_ok(base):
        return None
    c = base.polytope().codegree()
    t = sum(dils) - (c - 1)
    if t < 0:
        return None
    return RegularityPair(t * base, base, Provenance.CODEGREE)


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

    Builds the default sum-of-degrees pair, every specialized candidate
    that applies, and the vanishing-test pair, then keeps the one whose
    Res matrix has the fewest rows. Specialized candidates win ties.

    Raises:
        PairSelectionError: the system is not square.
    """
    default = default_pair(system)
    candidates = []
    for cand in (
        _macaulay_candidate(system),
        _weighted_candidate(system),
        _codegree_candidate(system),
        _vanishing_candidate(system, default),
    ):
        if cand is not None and len(graded_basis(system.fan, cand.alpha)) > 0:
            candidates.append(cand)
    candidates.append(default)
    # min keeps the first of equal sizes, so the default loses ties
    return min(candidates, key=lambda cand: len(graded_basis(system.fan, cand.top)))


def user_pair(system, alpha, alpha0):
    """Wrap explicit degree vectors (or classes) as a user pair."""
    fan = system.fan
    alpha = alpha if isinstance(alpha, DivisorClass) else DivisorClass(fan, alpha)
    alpha0 = alpha0 if isinstance(alpha0, DivisorClass) else DivisorClass(fan, alpha0)
    if len(graded_basis(fan, alpha0)) == 0:
        raise PairSelectionError(
            f"alpha0 = {alpha0.a} has no sections; multipliers need a nonzero degree piece"
        )
    return RegularityPair(alpha, alpha0, Provenance.USER_SUPPLIED)


def verify_pair(system, pair, tol_rank=1e-8):
    """Numerically verify a pair by comparing coranks of Res.

    Assembles Res at alpha and at alpha + alpha0 and checks that the
    cokernels have equal dimension. Mutates and returns the pair with
    verified, coranks, and (on success) delta_plus filled in.

    Raises:
        RankAmbiguousError: a singular value gap is too shallow to
            trust either corank.
    """
    lo = cokernel(assemble_res(system, pair.alpha, tol_rank=tol_rank, allow_empty=True))
    hi = cokernel(assemble_res(system, pair.top, tol_rank=tol_rank))
    pair.record_coranks(lo.delta_plus, hi.delta_plus)
    return pair
