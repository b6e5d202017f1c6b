"""Quasi-eigenvalues of real matrices over self-dual cones.

Library layout:

* ``matcore``  - matrix validation, norms, predicates, eigenvalue oracle
* ``cones``    - orthant / rotated-orthant cones, membership, cone metric
* ``lp``       - dense max-margin simplex kernel
* ``quasi``    - minimax quasi-eigenvalues via certified-cut LP search + grid oracle
* ``analysis`` - theorem-level checkers
* ``cli``      - command-line interface and JSON reports
"""

from .analysis import (
    MatrixFacts,
    NormalCanonicalForm,
    PerturbationBound,
    TheoremReport,
    assemble_canonical,
    bounds_check,
    invariance_check,
    isc_check,
    max_re_check,
    normal_canonical_form,
    perron_check,
    perturbation_bound_check,
    perturbation_constants,
    rotation_block,
    theorem4_classify,
)
from .cones import (
    Cone,
    ConeMembership,
    cone_metric,
    contains,
    random_orthogonal,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFinite,
    NonSquare,
    NotInCone,
    NotInterior,
    NotNormal,
    NotOrthogonal,
    NumericalBreakdown,
    ParseError,
    QuasiEigError,
    UnsupportedDimension,
)
from .lp import LpSolution, solve_max_eps
from .matcore import (
    ClassificationReport,
    as_matrix,
    as_vector,
    classify,
    eig_oracle,
    is_irreducible,
    operator_norm,
    symmetric_part_eigs,
)
from .quasi import (
    QuasiEigenResult,
    brute_minimax,
    inner_inf,
    inner_sup,
    quasi_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
