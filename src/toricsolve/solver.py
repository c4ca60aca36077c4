"""End-to-end pipeline: Laurent system in, solution set out.

Stages: homogenize into the Cox ring, pick (or accept) a degree pair,
verify it by corank comparison, build the multiplication family on the
cokernel basis, cluster the joint Schur form, and recover coordinates:
every cluster's torus solve in one batched pass, then boundary recovery
for the clusters that are not torus points. Every stage failure carries
its stage tag in the raised error; a single seed drives all randomized
choices.
"""

import math
import numbers
import time

from .cox import HomogeneousSystem, homogenize
from .eigensolver import (
    COND_MAX,
    GAP_RATIO,
    LEAK_TOL,
    assemble_res,
    cokernel,
    multiplication_family,
    schur_cluster,
)
from .errors import InputError, PairSelectionError
# recover_torus_point is not called here; it stays importable because the
# benchmark's tracer (perfbench/tracing.py) patches solver.recover_torus_point
from .recovery import (  # noqa: F401
    RATIO_TOL,
    EigenvalueTable,
    recover_boundary_point,
    recover_torus_point,
    recover_torus_points,
)
from .regularity import RegularityPair, improved_pair, user_pair

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
        diagnostics: numeric traces for export (singular values of the
            restriction map, per-member block leakage norms).
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
        self.diagnostics = dict(diagnostics or
                                {"res_singular_values": (), "block_leakage": ()})

    def __len__(self):
        return len(self.solutions)

    def on_torus(self):
        return [s for s in self.solutions if s.on_torus]

    def on_boundary(self):
        return [s for s in self.solutions if not s.on_torus]

    def max_residual(self):
        worst = 0.0
        for s in self.solutions:
            if s.residuals:
                worst = max(worst, max(s.residuals))
        return worst

    def __repr__(self):
        return (f"SolutionSet(delta={self.delta}, delta_plus={self.delta_plus}, "
                f"torus={len(self.on_torus())}, boundary={len(self.on_boundary())})")


def _check_real(name, value, rule, ok):
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and ok(value))):
        raise InputError(f"{name} must be {rule}, got {value!r}")


def check_options(seed=0, tol_rank=1e-8, cluster_gap=1e-4, zero_tol=1e-6):
    """Raise InputError naming the first of solve's numeric arguments that
    is outside its range; the command line checks its flags with it."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    _check_real("tol_rank", tol_rank, "finite with 0 < tol_rank < 1",
                lambda x: 0.0 < x < 1.0)
    _check_real("cluster_gap", cluster_gap, "finite with cluster_gap > 0",
                lambda x: x > 0.0)
    _check_real("zero_tol", zero_tol, "finite with 0 <= zero_tol < 1",
                lambda x: 0.0 <= x < 1.0)


def solve(system, rays=None, pair=None, seed=0, tol_rank=1e-8, cluster_gap=1e-4,
          zero_tol=1e-6, verify=True):
    """Solve a sparse (Laurent) polynomial system with finite solution set.

    Args:
        system: HomogeneousSystem, or a list of Laurent equations
            (each a list of (exponent tuple, coefficient) terms).
        rays: optional explicit ray order when `system` is Laurent input.
        pair: None for the automatic improved pair, an (alpha, alpha0)
            tuple of divisor vectors, or a RegularityPair.
        seed: drives the random multiplier h0 and the Schur shuffle; a
            non-negative int.
        tol_rank: relative singular value cutoff for the rank of Res,
            with 0 < tol_rank < 1.
        cluster_gap: starting eigenvalue clustering threshold, > 0.
        zero_tol: relative size below which a boundary coordinate
            counts as zero, with 0 <= zero_tol < 1.
        verify: compare coranks at alpha and alpha + alpha0 before
            committing to the pair (recommended). The check at alpha
            computes singular values only; the cokernel basis comes from
            one pivoted QR at alpha + alpha0.

    Five thresholds are fixed: the singular value gap GAP_RATIO, the h0
    conditioning limit COND_MAX with RETRIES_MAX redraws, the block
    leakage limit LEAK_TOL (all in eigensolver) and the recovery ratio
    tolerance RATIO_TOL (in recovery). SolutionSet.tolerances records
    every value the run used, these included.

    Recovery tries every cluster as a torus point in one pass
    (recover_torus_points) and sends the clusters that fail there, a
    multiple cluster whose solve is conditioned above COND_MAX among
    them, to recover_boundary_point; residuals of all points come from
    one array pass.

    Returns:
        SolutionSet. Sum of multiplicities equals the corank delta+.

    Raises:
        InputError (also for a numeric argument outside its range,
        before any work, and for a pair that is not two integer
        vectors), PairSelectionError, RankAmbiguousError,
        ClusteringError, RecoveryError: tagged per stage. SpanError, a
        RecoveryError, when the alpha0 lattice points do not affinely
        span the character lattice.
    """
    check_options(seed, tol_rank, cluster_gap, zero_tol)
    seed = int(seed)  # a numpy integer would not serialize
    tolerances = {
        "tol_rank": tol_rank, "gap_ratio": GAP_RATIO, "cond_max": COND_MAX,
        "cluster_gap": cluster_gap, "leak_tol": LEAK_TOL,
        "zero_tol": zero_tol, "ratio_tol": RATIO_TOL,
    }
    timings = {}
    clock = time.perf_counter

    t0 = clock()
    if not isinstance(system, HomogeneousSystem):
        system = homogenize(system, rays=rays)
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
    cok = cokernel(assemble_res(system, pair.top, tol_rank=tol_rank))
    if verify:
        lo = cokernel(
            assemble_res(system, pair.alpha, tol_rank=tol_rank, allow_empty=True),
            corank_only=True,
        )
        if not pair.record_coranks(lo.delta_plus, cok.delta_plus):
            raise PairSelectionError(
                f"pair failed corank verification: {lo.delta_plus} at alpha vs "
                f"{cok.delta_plus} at alpha + alpha0"
            )
    timings["cokernel_ms"] = 1e3 * (clock() - t0)

    diagnostics = {
        "res_singular_values": tuple(float(x) for x in cok.singular_values),
        "block_leakage": (),
    }
    if cok.delta_plus == 0:
        return SolutionSet([], 0, pair, seed, tolerances, timings, system,
                           diagnostics)

    t0 = clock()
    family = multiplication_family(cok, system, pair, seed=seed)
    timings["family_ms"] = 1e3 * (clock() - t0)

    t0 = clock()
    clustering = schur_cluster(family, seed=seed, cluster_gap=cluster_gap)
    timings["schur_ms"] = 1e3 * (clock() - t0)
    diagnostics["block_leakage"] = clustering.leakage_by_member

    t0 = clock()
    tables = EigenvalueTable.from_clustering(family, clustering)
    # a SpanError indicts alpha0 itself, not one cluster, so it propagates
    solutions = recover_torus_points(system.fan, tables)
    for i, table in enumerate(tables):
        if solutions[i] is None:
            solutions[i] = recover_boundary_point(system.fan, table,
                                                  zero_tol=zero_tol)
    residuals = system.residuals([sol.z for sol in solutions])
    for sol, res in zip(solutions, residuals):
        sol.residuals = tuple(res)
    timings["recover_ms"] = 1e3 * (clock() - t0)

    return SolutionSet(solutions, cok.delta_plus, pair, seed, tolerances,
                       timings, system, diagnostics)
