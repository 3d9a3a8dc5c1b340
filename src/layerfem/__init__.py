"""Galerkin finite elements on Bakhvalov-type layer-adapted meshes.

Solves singularly perturbed two-point convection-diffusion problems

    -epsilon*u'' - b(x)*u' + c(x)*u = f(x),   u(0) = u(1) = 0,

with degree-k continuous elements on meshes graded into the boundary layer,
and measures errors in the max, L2 and epsilon-weighted energy norms.
"""

from . import femcore, interpolants, mesh, norms, problem, study
from .femcore import *
from .interpolants import *
from .mesh import *
from .norms import *
from .problem import *
from .study import *

__all__ = [
    *femcore.__all__,
    *interpolants.__all__,
    *mesh.__all__,
    *norms.__all__,
    *problem.__all__,
    *study.__all__,
]

__version__ = "0.1.0"
