"""Exception types raised by the solver, tagged with CLI exit codes.

Every failure mode that a caller might want to branch on gets its own
class. The `exit_code` is what the command line tool returns when the
error escapes to the top level; `stage` is a short machine-readable tag
saying where in the pipeline things went wrong.
"""

__all__ = [
    "ToricSolveError",
    "InputError",
    "PairSelectionError",
    "BasepointError",
    "RankAmbiguousError",
    "ClusteringError",
    "RecoveryError",
    "SpanError",
]


class ToricSolveError(Exception):
    """Base class for solver failures."""

    exit_code = 1
    stage = "general"


class InputError(ToricSolveError):
    """Malformed or inconsistent input (system file, fan, degrees, flags)."""

    exit_code = 2
    stage = "input"


class PairSelectionError(ToricSolveError):
    """No usable degree pair could be selected for the system."""

    exit_code = 3
    stage = "pair"


class BasepointError(PairSelectionError):
    """The chosen multiplier degree appears to have basepoints on the solution set.

    Detected as persistent ill-conditioning of the eigenvalue normalization
    after the configured number of re-draws; the pair, not the numerics,
    is at fault.
    """

    stage = "basepoint"


class RankAmbiguousError(ToricSolveError):
    """Numerical rank of a resultant map could not be decided safely.

    Raised when the singular value gap at the cut is below the configured
    ratio, so the corank (and with it the solution count) is not trustworthy,
    when the pivoted QR behind a cokernel basis leaves a trailing block
    above the cut, so the basis would not annihilate the image, when
    Res overflows double precision in that QR, or when the coranks at
    alpha and alpha + alpha0 disagree on a system with an equation whose
    coefficient moduli spread beyond 1 / TOL_RANK.
    """

    exit_code = 4
    stage = "rank"


class ClusteringError(ToricSolveError):
    """Eigenvalue clustering failed to produce a clean block structure."""

    exit_code = 5
    stage = "clustering"


class RecoveryError(ToricSolveError):
    """Coordinates could not be recovered from a cluster's eigenvalue data."""

    exit_code = 6
    stage = "recovery"


class SpanError(RecoveryError):
    """The alpha0 lattice points do not affinely span the character lattice.

    No cluster can be read back as a torus point, so the multiplier
    degree alpha0 is at fault rather than any one cluster.
    """
