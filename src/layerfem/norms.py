"""Error measurement in the max, L2 and epsilon-weighted energy norms.

The energy norm is {epsilon*|v|_1^2 + ||v||^2}^(1/2).  Integrals are computed
per element by composite Gauss quadrature, starting from 4 panels per element
and doubling (up to 64) until the element contribution settles: it may change
by at most 1e-10 relative plus the round-off bounds of the two estimates.
Errors near round-off are differences of much larger values, so 1e-10
relative alone is out of reach there; with the round-off floor the cap is
reached only where the integral still changes above noise.  The max norm is
the largest error among the values already computed: those at the quadrature
points of every level and at the element nodes.  Each level evaluates u and u'
in one call per chunk of at most _CHUNK_POINTS points, so a problem can share
work such as an exponential between them.  The levels work in views of one
buffer allocated per call, and the exact's temporaries stay chunk-sized: level
arrays allocated and freed afresh let the C heap return their pages to the OS
after each level, and the next level faulted every page in again.
The energy norm of a piecewise polynomial itself is exact from the reference
stiffness and mass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .femcore import PiecewisePolynomial, _element_tables, _frozen, gauss_legendre
from .femcore import global_nodes, shape_tables

__all__ = ["ErrorTriple", "error_norms", "polynomial_energy_norm"]

_REL_TOL = 1e-10
_START_PANELS = 4
_MAX_PANELS = 64
_CHUNK_POINTS = 8192  # per exact call: 64 KiB per array of its temporaries
# Bound on the absolute error of a computed difference, per unit of the size
# of the values it subtracts.
_ROUNDOFF = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ErrorTriple:
    """Max-norm, L2-norm and energy-norm of one error function."""

    e_inf: float
    e_l2: float
    e_energy: float


@functools.lru_cache(maxsize=128)
def _quadrature_table(degree: int, q: int, panels: int) -> tuple[np.ndarray, ...]:
    """Points and weights of ``panels`` copies of the q-point Gauss rule stacked
    on [0, 1], with the shape function values and derivatives there and their
    absolute values."""
    points, weights = gauss_legendre(q)
    pts = ((np.arange(panels, dtype=float)[:, None] + points[None, :]) / panels).ravel()
    wts = np.tile(weights / panels, panels)
    shape, slope = shape_tables(degree, pts)
    return _frozen(pts, wts, shape, slope, np.abs(shape), np.abs(slope))


def _error_integrals(
    u: np.ndarray, fem: np.ndarray, abs_fem: np.ndarray, scratch: np.ndarray, w: np.ndarray, h
):
    """Element integrals of (u - fem)^2, their round-off bounds and max |u - fem|.

    ``abs_fem`` is the sum of |c_a||phi_a| behind ``fem``, so |u| + abs_fem is
    the size of the values subtracted.  A difference of values of that size is
    off by at most delta = _ROUNDOFF*size, so its square is off by at most
    2|diff|*delta + delta^2.  ``fem``, ``abs_fem`` and ``scratch`` (of the same
    shape) are overwritten; ``u`` is only read.
    """
    diff = np.subtract(u, fem, out=fem)
    np.abs(u, out=scratch)
    delta = np.add(scratch, abs_fem, out=abs_fem)
    delta *= _ROUNDOFF
    np.abs(diff, out=scratch)
    peak = scratch.max()
    scratch *= 2.0
    scratch += delta
    scratch *= delta
    noise = h * (scratch @ w)
    diff *= diff
    return h * (diff @ w), noise, peak


def _settled(new, old, noise) -> np.ndarray:
    return np.abs(new - old) <= _REL_TOL * np.maximum(np.abs(new), np.abs(old)) + noise


def error_norms(
    fem: PiecewisePolynomial,
    exact: Callable,
    epsilon: float,
) -> ErrorTriple:
    """Norms of exact - fem over the fem's mesh.

    ``exact(x)`` returns (u(x), u'(x)) for a numpy array x, a scalar standing for
    a constant; it runs once per level and chunk and once at the global nodes,
    and what it returns is only read.
    """
    mesh, degree = fem.mesh, fem.degree
    h, left = mesh.steps, mesh.nodes[:-1]
    coeff = fem.element_coefficients()
    abs_coeff = np.abs(coeff)

    # Largest |exact - fem| at the global nodes and then at each level's points.
    peaks = [np.max(np.abs(exact(global_nodes(mesh, degree))[0] - fem.coefficients))]
    # Room for five arrays of the 8-panel level over all elements.
    work = np.empty(5 * mesh.N * (degree + 3) * 2 * _START_PANELS)

    def level(elems, panels):
        # Integrals of the error squared and of its derivative squared on the
        # elements ``elems``, each with its round-off bound.
        nonlocal work
        pts, wts, shape, slope, abs_shape, abs_slope = _quadrature_table(degree, degree + 3, panels)
        size = elems.size * pts.size
        if work.size < 5 * size:
            work = np.empty(5 * size)
        # x becomes the integrals' scratch once u and u' are in.
        x, u, du, fem_v, abs_v = work[: 5 * size].reshape(5, elems.size, pts.size)
        he = h[elems]
        np.multiply.outer(he, pts, out=x)
        x += left[elems, None]
        rows = max(1, _CHUNK_POINTS // pts.size)
        for start in range(0, elems.size, rows):
            chunk = slice(start, start + rows)
            u[chunk], du[chunk] = exact(x[chunk])
        c, abs_c, hc = coeff[elems], abs_coeff[elems], he[:, None]
        value = _error_integrals(
            u, np.matmul(c, shape, out=fem_v), np.matmul(abs_c, abs_shape, out=abs_v), x, wts, he
        )
        peaks.append(value[2])
        np.matmul(c, slope, out=fem_v)
        np.matmul(abs_c, abs_slope, out=abs_v)
        fem_v /= hc
        abs_v /= hc
        return *value[:2], *_error_integrals(du, fem_v, abs_v, x, wts, he)[:2]

    active = np.arange(mesh.N)
    val2, val_noise, der2, der_noise = level(active, _START_PANELS)
    panels = 2 * _START_PANELS
    while active.size and panels <= _MAX_PANELS:
        new_v, noise_v, new_d, noise_d = level(active, panels)
        settled = _settled(new_v, val2[active], noise_v + val_noise[active]) & _settled(
            new_d, der2[active], noise_d + der_noise[active]
        )
        val2[active], val_noise[active] = new_v, noise_v
        der2[active], der_noise[active] = new_d, noise_d
        active = active[~settled]
        panels *= 2

    # Fixed element order keeps the reductions deterministic.
    val2, der2 = float(np.sum(val2)), float(np.sum(der2))
    return ErrorTriple(
        e_inf=float(np.max(peaks)),
        e_l2=math.sqrt(val2),
        e_energy=math.sqrt(epsilon * der2 + val2),
    )


def polynomial_energy_norm(fem: PiecewisePolynomial, epsilon: float) -> float:
    """Energy norm of ``fem`` itself, exact up to round-off.

    Sums eps*c^T K c/h + h*c^T M c over the elements with a nonzero
    coefficient, with K and M the reference stiffness and mass; k + 1 Gauss
    points integrate both exactly.
    """
    k = fem.degree
    coeff = fem.element_coefficients()
    elems = np.flatnonzero(np.any(coeff != 0.0, axis=1))
    c, h = coeff[elems], fem.mesh.steps[elems]
    stiff, _, mass, _ = _element_tables(k, k + 1)
    pairs = (c[:, :, None] * c[:, None, :]).reshape(elems.size, (k + 1) ** 2)
    energy = epsilon * (pairs @ stiff) / h + h * (pairs @ (gauss_legendre(k + 1)[1] @ mass))
    return math.sqrt(float(np.sum(energy)))
