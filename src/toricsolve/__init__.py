"""Numerical solver for sparse polynomial systems on toric compactifications.

The pipeline: Newton polytopes -> normal fan of the Minkowski sum ->
homogenization into the total coordinate ring -> numerical linear algebra
on one graded piece -> eigenvalues of multiplication operators -> torus
and boundary solutions.
"""

from .errors import (
    ToricSolveError,
    InputError,
    PairSelectionError,
    BasepointError,
    RankAmbiguousError,
    ClusteringError,
    RecoveryError,
    SpanError,
)
from .lattice import (
    Polytope,
    convex_hull,
    integer_kernel,
    mixed_volume,
    smith_normal_form,
    snf_diagonal,
    sublattice_index,
)
from .toric import (
    Fan,
    ClassGroup,
    DivisorClass,
    divisor_of_polytope,
    is_nef_cartier,
    is_effective,
)
from .cox import (
    GradedBasis,
    CoxPolynomial,
    HomogeneousSystem,
    graded_basis,
    homogenize,
)
from .regularity import (
    Provenance,
    RegularityPair,
    default_pair,
    improved_pair,
    user_pair,
    verify_pair,
    predicted_shape,
)
from .eigensolver import (
    ResMatrix,
    CokernelMap,
    MultiplicationFamily,
    SchurClustering,
    assemble_res,
    cokernel,
    multiplication_family,
    schur_cluster,
)
from .recovery import (
    EigenvalueTable,
    Solution,
    recover_torus_point,
    recover_boundary_point,
)
from .solver import SolutionSet, solve
from .formats import (
    FORMAT_VERSION,
    SWEEP_HEADER,
    SystemFile,
    eval_scalar,
    load_system_file,
    load_solution_file,
    solution_file_dict,
    dump_solution_file,
    sweep_csv_lines,
    write_series_csv,
)

__version__ = "0.1.0"
