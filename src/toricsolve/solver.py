"""End-to-end pipeline: Laurent system in, solution set out.

Stages: homogenize into the Cox ring, pick (or accept) a degree pair,
verify it by corank comparison, build the multiplication family on the
cokernel basis, cluster the joint Schur form, and recover coordinates:
every cluster's torus solve in one batched pass, then boundary recovery
for the clusters that are not torus points. Every stage failure carries
its stage tag in the raised error; a single seed drives all randomized
choices.
"""

import numbers
import time

import numpy as np

from .cox import HomogeneousSystem, homogenize, ray_list
from .eigensolver import (
    CLUSTER_GAP,
    COND_MAX,
    GAP_RATIO,
    H0_COND_TARGET,
    LEAK_TOL,
    TOL_RANK,
    assemble_res,
    cokernel,
    multiplication_family,
    schur_cluster,
)
from .errors import InputError, PairSelectionError, RankAmbiguousError
# recover_torus_point is not called here; it stays importable because the
# benchmark's tracer (perfbench/tracing.py) patches solver.recover_torus_point
from .recovery import (  # noqa: F401
    RATIO_TOL,
    ZERO_TOL,
    EigenvalueTable,
    recover_boundary_point,
    recover_torus_point,
    recover_torus_points,
)
from .regularity import Provenance, RegularityPair, improved_pair, user_pair

__all__ = ["SolutionSet", "solve"]


class SolutionSet:
    """All recovered solutions plus provenance for reproducibility.

    Attributes:
        solutions: list of Solution, in Schur cluster order.
        delta: number of distinct points.
        delta_plus: total multiplicity (sum of cluster sizes).
        pair: the RegularityPair used.
        seed: RNG seed for the run.
        tolerances: dict of every tolerance the run used.
        timings: stage name -> wall milliseconds.
        system: the HomogeneousSystem that was solved.
        diagnostics: numeric traces for export (|diag R| and the
            rank_bounds of the cokernel of Res at alpha + alpha0,
            per-member block leakage); eigensolver.cokernel says which
            QR gives R on each of its paths.
    """

    __slots__ = ("solutions", "delta", "delta_plus", "pair", "seed",
                 "tolerances", "timings", "system", "diagnostics")

    def __init__(self, solutions, delta_plus, pair, seed, tolerances, timings,
                 system, diagnostics=None):
        self.solutions = list(solutions)
        self.delta = len(self.solutions)
        self.delta_plus = int(delta_plus)
        self.pair = pair
        self.seed = seed
        self.tolerances = dict(tolerances)
        self.timings = dict(timings)
        self.system = system
        self.diagnostics = dict(diagnostics or {
            "res_r_diagonal": (), "rank_bounds": (), "block_leakage": ()})

    def __len__(self):
        return len(self.solutions)

    def on_torus(self):
        return [s for s in self.solutions if s.on_torus]

    def on_boundary(self):
        return [s for s in self.solutions if not s.on_torus]

    def max_residual(self):
        """The largest residual, 0.0 without any; nan when any is nan."""
        return float(np.maximum.reduce(
            [r for s in self.solutions for r in s.residuals or ()], initial=0.0))

    def __repr__(self):
        return (f"SolutionSet(delta={self.delta}, delta_plus={self.delta_plus}, "
                f"torus={len(self.on_torus())}, boundary={len(self.on_boundary())})")


def check_options(seed):
    """Raise InputError unless seed is a non-negative integer; the sweep
    command checks its --seed with it once, before the first row."""
    # an exact int skips the numbers.Integral check, an ABC lookup
    if (type(seed) is not int and (isinstance(seed, bool)
                                   or not isinstance(seed, numbers.Integral))
            or seed < 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


def _check_scaling(system):
    """RankAmbiguousError naming the first equation whose nonzero
    coefficient moduli spread by more than 1 / TOL_RANK, or two equations
    whose largest moduli differ by a factor of 1 / TOL_RANK or more.

    Beyond that spread the rank cut at TOL_RANK sees the small
    coefficients of such an equation, or the columns of the smaller one,
    as rounding, so two coranks that disagree say more about the scaling
    than about the pair. An equation with no nonzero coefficient is an
    InputError.
    """
    tops = []
    for i, f in enumerate(system.polys):
        mags = np.abs(f.coeffs[f.coeffs != 0])
        if not mags.size:
            raise InputError(f"equation {i} has all coefficients zero")
        # Python floats: a spread beyond the float range is inf, not a warning
        spread = float(mags.max()) / float(mags.min())
        if spread > 1.0 / TOL_RANK:
            raise RankAmbiguousError(
                f"equation {i} has nonzero coefficient moduli spread by "
                f"{spread:.1e} > 1/TOL_RANK = {1.0 / TOL_RANK:.0e}; the "
                "corank cut cannot tell its small terms from rounding, so "
                "rescale the equation or its variables")
        tops.append(float(mags.max()))
    big, small = int(np.argmax(tops)), int(np.argmin(tops))
    if tops[big] / tops[small] >= 1.0 / TOL_RANK:
        raise RankAmbiguousError(
            f"equations {big} and {small} have largest coefficient moduli "
            f"differing by a factor {tops[big] / tops[small]:.1e} >= 1/TOL_RANK; "
            f"the corank cut sees equation {small} as rounding, so rescale one")


def solve(system, rays=None, pair=None, seed=0):
    """Solve a sparse (Laurent) polynomial system with finite solution set.

    Args:
        system: HomogeneousSystem, or a list of Laurent equations
            (each a list of (exponent tuple, coefficient) terms).
        rays: optional explicit ray order when `system` is Laurent input;
            with a HomogeneousSystem it must equal the system's rays.
        pair: None for the automatic improved pair, an (alpha, alpha0)
            tuple of divisor vectors, or a RegularityPair.
        seed: drives the random multiplier h0 and the Schur shuffle; a
            non-negative int.

    The pair is always verified: the coranks at alpha and alpha + alpha0
    must agree before the solve commits to it; nothing is written onto
    the pair. Only Res at alpha + alpha0 is assembled, with alpha0, which
    the ResMatrix records, so in the order its reduction reads it. Both
    coranks come from one call, eigensolver.cokernel of it, which reads
    Res at alpha off it as a block and whose docstring gives its paths.
    A rank failure may name either cut; its type and exit code are those
    of any rank failure.

    Every threshold is a module constant: the rank cut TOL_RANK with its
    singular value gap GAP_RATIO, the h0 conditioning limit COND_MAX
    with RETRIES_MAX redraws and the conditioning H0_COND_TARGET at
    which a draw is taken without a redraw, the starting cluster gap
    CLUSTER_GAP and the block leakage limit LEAK_TOL (all in
    eigensolver), and the recovery ratio tolerance RATIO_TOL and zero
    threshold ZERO_TOL (in recovery). SolutionSet.tolerances records the
    values the run used.

    Recovery tries every row of the clustering's EigenvalueTable, one
    per cluster, as a torus point in one pass (recover_torus_points) and
    sends the rows that fail there, a multiple cluster whose solve is
    conditioned above COND_MAX among them, to recover_boundary_point;
    residuals of all points come from one array pass.

    Returns:
        SolutionSet. Sum of multiplicities equals the corank delta+.

    Raises:
        InputError (also for a seed outside its range, before any work,
        for rays that differ from a HomogeneousSystem's, and for a pair
        that is not two integer vectors), PairSelectionError,
        RankAmbiguousError, ClusteringError, RecoveryError: tagged per
        stage. When the two coranks disagree and some equation's nonzero
        coefficient moduli spread by more than 1 / TOL_RANK, or two
        equations' largest moduli differ by a factor of 1 / TOL_RANK or
        more, the error is a RankAmbiguousError naming the equations, not
        a PairSelectionError: the scaling is at fault, not the pair. A
        PairSelectionError whose corank grows from alpha to alpha +
        alpha0 says so, as the sign of a solution set that is not finite.
        SpanError, a RecoveryError, when the alpha0 lattice
        points do not affinely span the character lattice.
    """
    check_options(seed)
    seed = int(seed)  # a numpy integer would not serialize
    tolerances = {
        "tol_rank": TOL_RANK, "gap_ratio": GAP_RATIO, "cond_max": COND_MAX,
        "h0_cond_target": H0_COND_TARGET, "cluster_gap": CLUSTER_GAP, "leak_tol": LEAK_TOL,
        "zero_tol": ZERO_TOL, "ratio_tol": RATIO_TOL,
    }
    timings = {}
    clock = time.perf_counter

    t0 = clock()
    if not isinstance(system, HomogeneousSystem):
        system = homogenize(system, rays=rays)
    elif rays is not None and ray_list(rays) != system.fan.rays:
        raise InputError("rays differ from the rays of the HomogeneousSystem "
                         f"{system.fan.rays}; homogenize with them instead")
    timings["homogenize_ms"] = 1e3 * (clock() - t0)

    t0 = clock()
    if pair is None:
        pair = improved_pair(system)
    elif not isinstance(pair, RegularityPair):
        try:
            alpha, alpha0 = pair
        except (TypeError, ValueError):
            raise InputError("pair must be an (alpha, alpha0) pair of degree "
                             f"vectors, got {pair!r}") from None
        pair = user_pair(system, alpha, alpha0)
    timings["pair_ms"] = 1e3 * (clock() - t0)

    t0 = clock()
    cok = cokernel(assemble_res(system, pair.top, pair.alpha0))
    if cok.block.delta_plus != cok.delta_plus:
        _check_scaling(system)
        message = (f"pair failed corank verification: {cok.block.delta_plus} at alpha vs "
                   f"{cok.delta_plus} at alpha + alpha0")
        if cok.delta_plus > cok.block.delta_plus:
            message += ("; a corank that grows with the degree is what a solution set "
                        "that is not finite gives, which breaks the assumption of a "
                        "zero-dimensional (finite) solution set")
            if pair.provenance is Provenance.USER_SUPPLIED:
                message += "; on a pair given by hand, alpha may also be too low"
        raise PairSelectionError(message)
    timings["cokernel_ms"] = 1e3 * (clock() - t0)

    diagnostics = {
        "res_r_diagonal": tuple(np.abs(cok.R.diagonal()).tolist()),
        "rank_bounds": cok.rank_bounds,
        "block_leakage": (),
    }
    if cok.delta_plus == 0:
        return SolutionSet([], 0, pair, seed, tolerances, timings, system,
                           diagnostics)

    t0 = clock()
    family = multiplication_family(cok, seed=seed)
    timings["family_ms"] = 1e3 * (clock() - t0)

    t0 = clock()
    clustering = schur_cluster(family, seed=seed)
    timings["schur_ms"] = 1e3 * (clock() - t0)
    diagnostics["block_leakage"] = clustering.leakage_by_member

    t0 = clock()
    table = EigenvalueTable.from_clustering(family, clustering)
    # a SpanError indicts alpha0 itself, not one cluster, so it propagates
    solutions = recover_torus_points(system.fan, table)
    for g, sol in enumerate(solutions):
        if sol is None:
            solutions[g] = recover_boundary_point(system.fan, table, g)
    residuals = system.residuals([sol.z for sol in solutions])
    for sol, res in zip(solutions, residuals):
        sol.residuals = tuple(res)
    timings["recover_ms"] = 1e3 * (clock() - t0)

    return SolutionSet(solutions, cok.delta_plus, pair, seed, tolerances,
                       timings, system, diagnostics)
