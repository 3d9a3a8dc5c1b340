"""Reference code that only the tests read: the assembled system as a dense
matrix and right-hand side, the first derivative of a piecewise polynomial,
the energy norm of a piecewise polynomial by a scan of the whole mesh, the
two graded maps as written before they shared one generating function, and
the rate fit over a sequence of errors."""

import math

import numpy as np

from layerfem import ElementSystem, PiecewisePolynomial, gauss_legendre, shape_tables
from layerfem.femcore import _element_tables


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


def whole_mesh_energy_norm(poly: PiecewisePolynomial, epsilon: float) -> float:
    """:func:`~layerfem.polynomial_energy_norm` as it found its elements: an
    (N, k+1) gather of every element's coefficients, scanned for a nonzero one."""
    k, n_elem = poly.degree, poly.mesh.N
    coeff = poly.coefficients[k * np.arange(n_elem)[:, None] + np.arange(k + 1)]
    elems = np.flatnonzero(np.any(coeff != 0.0, axis=1))
    c, h = coeff[elems], poly.mesh.steps[elems]
    stiff, _, mass, _ = _element_tables(k, k + 1)
    pairs = (c[:, :, None] * c[:, None, :]).reshape(elems.size, (k + 1) ** 2)
    energy = epsilon * (pairs @ stiff) / h + h * (pairs @ (gauss_legendre(k + 1)[1] @ mass))
    return math.sqrt(float(np.sum(energy)))


def roos_map(t: np.ndarray, sigma: float, epsilon: float) -> np.ndarray:
    # Log-graded up to t = 1/2, then uniform; d makes the two branches meet
    # at the breakpoint: 1 - d/2 = -sigma*eps*log(eps).
    d = 2.0 * (1.0 + sigma * epsilon * math.log(epsilon))
    x = np.empty_like(t)
    fine = t <= 0.5
    x[fine] = -sigma * epsilon * np.log(1.0 - 2.0 * (1.0 - epsilon) * t[fine])
    x[~fine] = 1.0 - d * (1.0 - t[~fine])
    return x


def kopteva_map(t: np.ndarray, sigma: float, epsilon: float, const: float) -> np.ndarray:
    # Log-graded up to theta = 1/2 - const*eps; the slope of the uniform part
    # follows from continuity at theta.
    theta = 0.5 - const * epsilon
    x_theta = -sigma * epsilon * math.log(2.0 * const * epsilon)
    d1 = (1.0 - x_theta) / (1.0 - theta)
    x = np.empty_like(t)
    fine = t <= theta
    x[fine] = -sigma * epsilon * np.log(1.0 - 2.0 * t[fine])
    x[~fine] = 1.0 - d1 * (1.0 - t[~fine])
    return x


def fitted_rate(errors: list[float], pairs: int = 3) -> float:
    """Mean of the last ``pairs`` consecutive log2 error ratios.

    ``errors`` must be ordered by increasing N (each N doubling the last);
    averaging the largest-N pairs damps preasymptotic noise.
    """
    if len(errors) < 2:
        raise ValueError("need at least two errors to fit a rate")
    ratios = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    tail = ratios[-pairs:]
    return sum(tail) / len(tail)
