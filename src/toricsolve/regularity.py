"""Degree pair selection for the multiplication-map eigenvalue solver.

The solver works inside two graded pieces of the Cox ring: eigenvector
coordinates live in S_alpha and the multiplier h ranges over S_alpha0.
The pair (alpha, alpha0) is admissible when the cokernel of Res has the
same dimension at alpha and at alpha + alpha0; this module picks such
pairs and verifies a candidate numerically by comparing the two
coranks.

Selection strategy: start at the safe sum-of-degrees pair and walk
alpha down through the region where the paper's cohomology-vanishing
criterion holds, one step of alpha0 or of a ray divisor at a time,
keeping the step whose Res at alpha + alpha0 has the fewest rows. The
closed forms the paper derives from that criterion (Macaulay on
projective spaces and their products, weighted projective spaces, the
codegree bound on unmixed systems) are points of the same region, so
the walk needs no recipe for any of them.
"""

import math
import operator
from enum import Enum
from itertools import combinations

from .cox import graded_basis
from .eigensolver import assemble_res, cokernel
from .errors import PairSelectionError
from .lattice import int_vector
from .recovery import affine_index, check_span
from .toric import (
    DivisorClass,
    higher_cohomology_vanishes,
    is_nef_cartier,
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
        """alpha + alpha0, the row degree of the solver's Res matrix; the
        fan keeps it per pair of representatives, so a read builds no class."""
        alpha, alpha0 = self.alpha, self.alpha0
        return alpha.fan.kept(("top", alpha.a, alpha0.a), operator.add, alpha, alpha0)

    def __repr__(self):
        return (
            f"RegularityPair(alpha={self.alpha.a}, alpha0={self.alpha0.a}, "
            f"provenance={self.provenance.value})"
        )


def predicted_shape(system, pair):
    """(rows, cols) of Res at alpha + alpha0 without assembling it."""
    fan, rows = system.fan, graded_basis(system.fan, pair.top)
    return len(rows), sum(len(rows.below(graded_basis(fan, div))) for div in system.degrees)


def _multiplier_ok(div):
    """Filter for alpha0 candidates.

    Needs nef Cartier (so sections have no basepoints on the variety)
    and lattice points that affinely generate M with index 1 (so torus
    coordinates can be read back from eigenvalue ratios).
    """
    if not len(graded_basis(div.fan, div)):
        return False
    if not is_nef_cartier(div):
        return False
    return affine_index(graded_basis(div.fan, div)) == 1


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


def _vanishes(system, beta, verdicts):
    """The vanishing criterion at beta, each class decided once.

    verdicts maps the class of a twist beta - sum_{i in J} alpha_i to
    toric.higher_cohomology_vanishes of it; cohomology depends only on
    the class, so one map serves every beta of a search.
    """
    s = len(system)
    for r in range(s + 1):
        for J in combinations(range(s), r):
            diff = beta
            for i in J:
                diff = diff - system.degrees[i]
            key = diff.degree()
            if key not in verdicts:
                verdicts[key] = higher_cohomology_vanishes(diff)
            if not verdicts[key]:
                return False
    return True


def vanishing_pair(system, beta):
    """Check the cohomological criterion for beta to bound the regularity.

    Requires H^p(beta - sum_{i in J} alpha_i) = 0 for all p > 0 and all
    subsets J of the equations, each twist decided by
    toric.higher_cohomology_vanishes (Kunneth on products of projective
    spaces, then nef, then anti-nef). Conservative: a twist none of its
    rules decides counts as a failure.
    """
    if not isinstance(beta, DivisorClass):
        beta = DivisorClass(system.fan, beta)
    return _vanishes(system, beta, {})


def _walk(system):
    """Greedy walk from the default pair through the vanishing region.

    Each round tries alpha - alpha0, then alpha - D_j for the first ray
    divisor D_j of each further nonzero class. A step passes when the criterion
    holds at the candidate and at candidate + alpha0 and the candidate
    has sections; the passing step with the fewest rows at
    candidate + alpha0 is taken, the earlier one on ties. Every step
    subtracts a nonzero effective class from an effective one, so the
    walk ends.
    """
    fan = system.fan
    default = default_pair(system)
    alpha, alpha0 = default.alpha, default.alpha0
    rays = [DivisorClass(fan, tuple(int(i == j) for i in range(fan.k))) for j in range(fan.k)]
    # a zero alpha0 (the fallback multiplier can be one) would never move
    steps, seen = [], {(0 * alpha0).degree()}
    for step in [alpha0] + rays:
        if step.degree() not in seen:
            seen.add(step.degree())
            steps.append(step)
    verdicts, sizes = {}, {}

    def size(div):
        key = div.degree()
        if key not in sizes:
            sizes[key] = len(graded_basis(fan, div))
        return sizes[key]

    while True:
        best = None
        for step in steps:
            cand = alpha - step
            top = cand + alpha0
            # the criterion is cheap; counting sections builds polytopes
            if not (_vanishes(system, cand, verdicts) and _vanishes(system, top, verdicts)):
                continue
            if size(cand) > 0 and (best is None or size(top) < size(best + alpha0)):
                best = cand
        if best is None:
            break
        alpha = best
    if alpha is default.alpha:
        return default
    return RegularityPair(alpha, alpha0, Provenance.VANISHING_TEST)


def improved_pair(system):
    """The pair the greedy vanishing walk reaches (_walk).

    The walk starts at the default sum-of-degrees pair and keeps its
    alpha0. It lowers alpha by alpha0 or by a ray divisor while the
    cohomology-vanishing criterion holds at alpha and at alpha + alpha0,
    each time taking the step with the smallest Res at alpha + alpha0.
    On projective spaces and their products it reaches the Macaulay
    class; on unmixed degrees d_i * B its Res is no larger than at the
    codegree pair ((sum d_i - c + 1) * B, B), c the codegree of B's
    polytope. The result has provenance VanishingTest, or is the default
    pair itself when no step passes.

    The choice depends on the fan and the equation degrees alone, so the
    fan keeps it per tuple of degree representatives and every call
    returns that same pair.

    Raises:
        PairSelectionError: the system is not square.
    """
    key = ("pair",) + tuple(div.a for div in system.degrees)
    return system.fan.kept(key, _walk, system)


def user_pair(system, alpha, alpha0):
    """Wrap explicit degree vectors (or classes) as a user pair.

    Raises:
        InputError: a vector entry is not an integer (a bool or a float
            would silently read as another degree), or a vector has the
            wrong length.
        PairSelectionError: alpha0 has no sections.
        SpanError: the alpha0 lattice points do not affinely span M (one
            point spans nothing), so no torus point could be read back.
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
    check_span(basis)
    return RegularityPair(alpha, alpha0, Provenance.USER_SUPPLIED)


def verify_pair(system, pair):
    """Coranks of Res at alpha and at alpha + alpha0.

    Assembles Res at alpha + alpha0 only, with alpha0, which the
    ResMatrix records, in the order the reduction by Res at alpha reads
    it, and takes both coranks, without a basis, from the call solve
    makes: eigensolver.cokernel of it, which reads Res at alpha off it as
    a block whose map carries the corank at alpha. The pair is admissible
    when the two coranks agree; either one is delta+.

    Returns:
        (corank at alpha, corank at alpha + alpha0).

    Raises:
        RankAmbiguousError: the certificate fails and a singular value
            gap is too shallow to trust either corank, or Res overflows
            double precision.
    """
    hi = cokernel(assemble_res(system, pair.top, pair.alpha0), corank_only=True)
    return hi.block.delta_plus, hi.delta_plus
