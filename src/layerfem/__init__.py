"""Galerkin finite elements on Bakhvalov-type layer-adapted meshes.

Solves singularly perturbed two-point convection-diffusion problems

    -epsilon*u'' - b(x)*u' + c(x)*u = f(x),   u(0) = u(1) = 0,

with degree-k continuous elements on meshes graded into the boundary layer,
and measures errors in the max, L2 and epsilon-weighted energy norms.
"""

from .femcore import (
    ElementSystem,
    PiecewisePolynomial,
    QuadratureRule,
    ReferenceBasis,
    SingularMatrixError,
    assemble,
    galerkin_solve,
    gauss_legendre,
    global_nodes,
    solve,
)
from .interpolants import InterpolantBundle, build_bundle, lagrange_interp
from .mesh import (
    Mesh1D,
    MeshAssumptionWarning,
    MeshFamily,
    MeshSpec,
    StepSizeChecks,
    check_step_sizes,
    generate,
    mesh_to_csv,
)
from .norms import ErrorTriple, distance_norms, error_norms
from .problem import (
    ExactSolution,
    LayerBoundsReport,
    TwoPointBVP,
    check_layer_bounds,
    get_problem,
    layer_test_problem,
)
from .study import (
    AggregateRow,
    ConvergenceRecord,
    StudyConfig,
    StudyResult,
    aggregate,
    defaults_for,
    emit,
    fitted_rate,
    format_error,
    interpolation_study,
    run_study,
)

__all__ = [
    "AggregateRow",
    "ConvergenceRecord",
    "ElementSystem",
    "ErrorTriple",
    "ExactSolution",
    "InterpolantBundle",
    "LayerBoundsReport",
    "Mesh1D",
    "MeshAssumptionWarning",
    "MeshFamily",
    "MeshSpec",
    "PiecewisePolynomial",
    "QuadratureRule",
    "ReferenceBasis",
    "SingularMatrixError",
    "StepSizeChecks",
    "StudyConfig",
    "StudyResult",
    "TwoPointBVP",
    "aggregate",
    "assemble",
    "build_bundle",
    "check_layer_bounds",
    "check_step_sizes",
    "defaults_for",
    "distance_norms",
    "emit",
    "error_norms",
    "fitted_rate",
    "format_error",
    "galerkin_solve",
    "gauss_legendre",
    "generate",
    "get_problem",
    "global_nodes",
    "interpolation_study",
    "lagrange_interp",
    "layer_test_problem",
    "mesh_to_csv",
    "run_study",
    "solve",
]

__version__ = "0.1.0"
