"""Nodal interpolation onto the finite element space, with layer correction.

The plain Lagrange interpolant samples a function at every global node.  For
solutions u = S + E with a boundary layer E, the interpolant loses L2
stability on the last fine element of a graded mesh, so a corrected variant
is built by zeroing the layer interpolant's coefficients at the nodes of that
element except its right endpoint.  The correction is a piecewise polynomial
with at most k nonzero coefficients, supported on two elements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .femcore import PiecewisePolynomial, _element_points, _node_table, global_nodes
from .mesh import Mesh1D
from .problem import ExactSolution

__all__ = ["InterpolantBundle", "lagrange_interp", "build_bundle"]


def lagrange_interp(fn: Callable, mesh: Mesh1D, degree: int) -> PiecewisePolynomial:
    """Interpolant of ``fn`` with coefficient m equal to fn at global node m."""
    coords = global_nodes(mesh, degree)
    values = np.broadcast_to(np.asarray(fn(coords), dtype=float), coords.shape)
    return PiecewisePolynomial(mesh=mesh, degree=degree, coefficients=values)


@dataclass(frozen=True)
class InterpolantBundle:
    """The interpolant of u and its layer-corrected variant, on one mesh.

    ``correction`` holds the layer values E at the k correction nodes (the
    left endpoint and interior nodes of element N/2 - 1) and zeros
    elsewhere.  The corrected interpolant, built on each read, is
    ``u_interp - correction`` coefficientwise (the paper's definition), so it
    stays in the finite element space and matches the plain interpolant away
    from the transition element.
    """

    u_interp: PiecewisePolynomial
    correction: PiecewisePolynomial

    @property
    def corrected_interp(self) -> PiecewisePolynomial:
        """The layer-corrected interpolant ``u_interp - correction``."""
        u_i = self.u_interp
        return replace(u_i, coefficients=u_i.coefficients - self.correction.coefficients)


def build_bundle(exact: ExactSolution, mesh: Mesh1D, degree: int) -> InterpolantBundle:
    """Build the interpolant bundle for an exact solution with an S/E split."""
    if exact is None:
        raise ValueError("interpolant bundle needs an exact solution with an S/E split")

    u_i = lagrange_interp(exact.u, mesh, degree)
    # The left endpoint and interior nodes of element m = N/2 - 1.
    m = mesh.N // 2 - 1
    corr = np.zeros_like(u_i.coefficients)
    row = np.array([[mesh.steps[m], mesh.nodes[m]]])
    corr[m * degree : (m + 1) * degree] = exact.E(_element_points(row, _node_table(degree))[0])
    return InterpolantBundle(
        u_interp=u_i,
        correction=PiecewisePolynomial(mesh=mesh, degree=degree, coefficients=corr),
    )
