"""Reference views that only the tests read: the assembled system as a dense
matrix and right-hand side, and the first derivative of a piecewise polynomial."""

import numpy as np

from layerfem import ElementSystem, PiecewisePolynomial, shape_tables


def dense_matrix(system: ElementSystem) -> np.ndarray:
    """The global matrix as a dense array, boundary rows and columns removed."""
    k = system.degree
    n = k * system.loads.shape[0] + 1   # global nodes, boundary nodes included
    full = np.zeros((n, n))
    for e, block in enumerate(system.matrices):
        full[k * e : k * e + k + 1, k * e : k * e + k + 1] += block
    return full[1:-1, 1:-1]


def dense_rhs(system: ElementSystem) -> np.ndarray:
    """The global right-hand side, boundary rows removed."""
    k = system.degree
    full = np.zeros(k * system.loads.shape[0] + 1)
    per_element = full[:-1].reshape(-1, k)
    per_element += system.loads[:, :k]
    full[k::k] += system.loads[:, k]
    return full[1:-1]


def derivative(poly: PiecewisePolynomial, x):
    """The first derivative of ``poly`` at x (scalar or array).

    Each element's coefficients times the slope table of
    :func:`~layerfem.shape_tables`, summed term by term in node order, over h.
    """
    x_arr = np.asarray(x, dtype=float)
    xf = x_arr.ravel()
    mesh, k = poly.mesh, poly.degree
    elems = np.clip(np.searchsorted(mesh.nodes, xf, side="right") - 1, 0, mesh.N - 1)
    h = mesh.steps[elems]
    slopes = shape_tables(k, (xf - mesh.nodes[elems]) / h)[1]
    out = np.zeros_like(xf)
    for a, row in enumerate(slopes):
        out += poly.coefficients[k * elems + a] * row
    out /= h
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)
