"""Numerical radius, numerical range, and radius-orthogonality toolkit.

Dense complex matrices only. The package exposes three layers:

- :mod:`numradius.linalg` / :mod:`numradius.numrange`: support-function
  machinery for the numerical range (radius, Crawford number, boundary,
  maximizing vectors);
- :mod:`numradius.wderiv`: one-sided derivatives of the squared radius
  along matrix rays, the induced semi-inner product, and two
  independent deciders for approximate radius orthogonality;
- :mod:`numradius.oracle`: slow brute-force references and seeded
  instance generators used to validate everything else.
"""

from . import linalg, numrange, oracle, wderiv
from .linalg import (
    DimensionError,
    MatrixError,
    NonHermitianError,
    adjoint,
    as_matrix,
    hermitian_part,
    rank_one,
    spectral_norm,
)
from .numrange import (
    DegenerateMatrixError,
    MaximizerSet,
    RadiusResult,
    boundary_points,
    crawford_number,
    maximizers,
    numerical_radius,
    radius_enclosure,
)
from .wderiv import (
    ConvergenceError,
    DerivativeResult,
    OrthoReport,
    diff_quotient,
    inf_derivative,
    is_bj_orthogonal,
    is_omega_orthogonal,
    min_epsilon,
    min_epsilon_bj,
    omega_derivative,
    semi_inner,
)

__version__ = "0.1.0"

__all__ = [
    "linalg",
    "numrange",
    "oracle",
    "wderiv",
    "MatrixError",
    "DimensionError",
    "NonHermitianError",
    "as_matrix",
    "adjoint",
    "hermitian_part",
    "rank_one",
    "spectral_norm",
    "RadiusResult",
    "MaximizerSet",
    "DegenerateMatrixError",
    "numerical_radius",
    "crawford_number",
    "boundary_points",
    "maximizers",
    "radius_enclosure",
    "ConvergenceError",
    "DerivativeResult",
    "OrthoReport",
    "diff_quotient",
    "omega_derivative",
    "semi_inner",
    "inf_derivative",
    "min_epsilon",
    "min_epsilon_bj",
    "is_omega_orthogonal",
    "is_bj_orthogonal",
    "__version__",
]
