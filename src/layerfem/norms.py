"""Error measurement in the max, L2 and epsilon-weighted energy norms.

The energy norm is {epsilon*|v|_1^2 + ||v||^2}^(1/2).  Integrals are computed
per element by composite Gauss quadrature, starting from 4 panels per element
and doubling (up to 64) until the element contribution settles: it may change
by at most 1e-10 relative plus the round-off bounds of the two estimates.
Errors near round-off are differences of much larger values, so 1e-10
relative alone is out of reach there; with the round-off floor the cap is
reached only where the integral still changes above noise.  The max norm is
the largest error among the values already computed: those at the quadrature
points of every level and at the element nodes.  The node pass and each level
evaluate u and u' in one call, whose writer fills views of one buffer allocated
per call and takes x as its scratch: a problem can share work such as an
exponential between u and u' and allocates no arrays.  Level arrays allocated
and freed afresh let the C heap return their pages to the OS after each level,
and the next level faulted every page in again.  A level's results form one
(2, 2, n) array, [integral, round-off bound] x [value, slope] per element, so
one test settles both and one product scales all four by h.
Its `@ w` products run over exactly the rows of its elements: OpenBLAS's gemv
blocks by rows, so another grouping of the same rows can move a sum by an ulp.
A level's points x_i + t_j*h_i are one product of its elements' rows
(h_i, x_i), stacked once per call, and the table [t; 1]: dgemm rounds
as the broadcast does, but a broadcast (n, 1) * (P,) runs n inner loops of
only P = 16-56 points, 8x slower at n = 2048.  One row or one column would go
to gemv, which rounds otherwise, so those keep the broadcast
(femcore._element_points).  The round-off bound (2|d| + delta)*delta is
integrated as (|d| + delta/2)*(delta/2) against 4w, the same bits with one
array pass fewer while those factors stay normal (see _error_integrals).
A level reads all its tables, [t; 1], w, 4w and the shapes, in one cache lookup.
Past the reach of an exact solution's far field u is a polynomial of degree <= 1,
so on each element whose left node lies there (never element 0) u - fem is one of
degree k: its integrals are h*d^T M d and d^T K d/h exactly, from its values d at
the nodes and the reference mass M and stiffness K, as is the energy norm of a
piecewise polynomial itself.  Its max norm is max|d|, at global_nodes' own points,
unless a bound (Lebesgue constant plus rounding) lets a 4- or 8-panel sample exceed
every other value, which then takes them; no far node takes an exact call.  This
pays from _MIN_FAR such elements on; with fewer, all elements run the levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .femcore import PiecewisePolynomial, _element_points, _element_rows, _element_tables
from .femcore import _frozen, _overlapping, _point_table, gauss_legendre, global_nodes, shape_tables

__all__ = ["ErrorTriple", "error_norms", "polynomial_energy_norm"]

_REL_TOL = 1e-10
_START_PANELS = 4
_MAX_PANELS = 64
_MIN_FAR = 40  # far elements that save more level time than their exact norms cost
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
def _level_table(degree: int, panels: int) -> tuple[np.ndarray, ...]:
    """``panels`` copies of the (degree + 3)-point Gauss rule stacked on [0, 1]:
    the (2, P) table [t; 1] of its points t, its weights w and 4*w, and the
    shape function values and derivatives at t and their absolute values."""
    points, weights = gauss_legendre(degree + 3)
    pts = ((np.arange(panels, dtype=float)[:, None] + points[None, :]) / panels).ravel()
    wts = np.tile(weights / panels, panels)
    shape, slope = shape_tables(degree, pts)
    return _frozen(_point_table(pts), wts, 4.0 * wts, shape, slope, np.abs(shape), np.abs(slope))


@functools.lru_cache(maxsize=16)
def _polynomial_tables(degree: int) -> tuple[np.ndarray, float, float]:
    """The (2, (k+1)^2) reference mass and stiffness, and _far_norms' Lambda = max sum |phi_a(t)|
    over the 4- and 8-panel points t and kappa = 2(rho + (5k + 19)u*Lambda): rho = max
    |1 - sum phi_a(t)| + 2|t - sum (a/k) phi_a(t)| of the float table, computed within
    (3k + 4)u*Lambda (the k + 1 terms of each sum, a/k; the differences are exact)."""
    stiff, _, mass, _ = _element_tables(degree, degree + 1)
    mass_stiff = np.stack([gauss_legendre(degree + 1)[1] @ mass, stiff])
    levels = [_level_table(degree, panels) for panels in (_START_PANELS, 2 * _START_PANELS)]
    t = np.concatenate([level[0][0] for level in levels])
    shape = np.hstack([level[3] for level in levels])
    lebesgue = float(np.abs(shape).sum(axis=0).max())
    line = t - np.arange(degree + 1) / degree @ shape
    rho = float((np.abs(1.0 - shape.sum(axis=0)) + 2.0 * np.abs(line)).max())
    return _frozen(mass_stiff)[0], lebesgue, 2.0 * (rho + (5 * degree + 19) * 2.0**-53 * lebesgue)


def _far_norms(rows, nodes, values, poly: Callable) -> tuple[float, float, float, float]:
    """Over the far elements of rows (h_i, x_i), given their global nodes and the fem's values
    there: max |d| for d = poly - fem at the nodes, a bound B on every 4- and 8-panel sample
    |poly - fem|, and the sums of h*d^T M d and d^T K d/h over the elements' k + 1 nodes.

    On an element, with P the affine poly and t_a = a/k, poly - fem = sum_a D_a phi_a + e with
    D_a = P(t_a) - c_a and |e| <= rho*max|P|, the float table's error in reproducing P.  Take
    poly(x) as computed within 2u(|poly(x)| + |poly'x|), u = 2^-53, as alpha + beta*x is; then
    sigma = (max|d| + max|c|)(3x1 - x0)/(x1 - x0) bounds |P| + |poly'|x on the far nodes
    [x0 >= 0, x1].  A computed d_a is off D_a by 5u*sigma + u|d_a| (its node, x_{i+1} too, by
    u(2h + x); poly; the difference), a sample by 4u*sigma (its point, poly), (k + 1)u*Lambda*
    max|c| (the (k+1)-term product) and u*Lambda*max|d|, and B loses (k + 3)u*Lambda*max|d|.
    As max|d|, max|c| <= sigma and Lambda >= 1, a sample is at most Lambda*max|d| +
    (rho + (2k + 15)u*Lambda)*sigma with the exact rho; kappa doubles the slack for the
    second-order terms.
    """
    degree = (values.size - 1) // rows.shape[0]
    mass_stiff, lebesgue, kappa = _polynomial_tables(degree)
    flat = poly(nodes) - values   # the bits of exact - fem at the global nodes
    d = _overlapping(flat, (rows.shape[0], degree + 1), (degree * flat.itemsize, flat.itemsize))
    sums = (d[:, :, None] * d[:, None, :]).reshape(d.shape[0], -1) @ mass_stiff.T
    peak, x0, x1 = np.abs(flat).max(), nodes[0], nodes[-1]
    sigma = (peak + np.abs(values).max()) * (3.0 * x1 - x0) / (x1 - x0)
    return peak, lebesgue * peak + kappa * sigma, rows[:, 0] @ sums[:, 0], (sums[:, 1] / rows[:, 0]).sum()


def _error_integrals(u, fem, abs_fem, scratch, w, w4, out, peaks=None) -> None:
    """(u - fem)^2 and its round-off bound integrated over the reference element
    by the weights ``w`` (``w4`` = 4*w) into ``out[0]`` and ``out[1]``, max
    |u - fem| appended to any ``peaks``.

    ``abs_fem`` is the sum of |c_a||phi_a| behind ``fem``, so s = |u| + abs_fem
    is the size of the values subtracted.  A difference of values of that size
    is off by at most delta = _ROUNDOFF*s, so its square is off by at most
    (2|diff| + delta)*delta.  That bound is integrated as
    (|diff| + delta/2)*(delta/2) @ w4, which scales each rounded step by a power
    of two, so it has the same bits while delta/2 and the integrand are normal
    numbers, i.e. for s >= 2^-461 (and s = 0).  ``fem``, ``abs_fem`` and
    ``scratch`` (of the same shape) are overwritten; ``u`` is only read.
    """
    diff = np.subtract(u, fem, out=fem)
    np.abs(u, out=scratch)
    half = np.add(scratch, abs_fem, out=abs_fem)
    half *= 0.5 * _ROUNDOFF
    np.abs(diff, out=scratch)
    if peaks is not None:
        peaks.append(scratch.max())
    scratch += half
    scratch *= half
    np.matmul(scratch, w4, out=out[1])
    diff *= diff
    np.matmul(diff, w, out=out[0])


def _settled(new, old) -> np.ndarray:
    """Elements of two levels' results whose value and slope integrals (sums of
    h*w*d^2, never negative) both settled."""
    ok = np.abs(new[0] - old[0]) <= _REL_TOL * np.maximum(new[0], old[0]) + (new[1] + old[1])
    return ok[0] & ok[1]


def error_norms(fem: PiecewisePolynomial, exact: Callable, epsilon: float,
                far_field: tuple[float, Callable] | None = None) -> ErrorTriple:
    """Norms of exact - fem over the fem's mesh.

    ``exact(x)`` returns ``write(u, du)``, which fills the float arrays u and du of x's
    shape with u(x) and u'(x) (:attr:`.ExactSolution.u_and_prime`).  It runs once at the
    global nodes and once per level, on the nodes and elements short of the reach of
    ``far_field`` (:attr:`.ExactSolution.far_field`); x, u and du are writable views of
    this call's own buffer that do not overlap, so ``write`` may overwrite x.  The
    round-off bounds take its values as accurate to a few ulps of their own size: only
    then does a polynomial that ``fem`` reproduces exactly settle at the first comparison.
    """
    mesh, degree = fem.mesh, fem.degree
    h, h_left, coeff = mesh.steps, _element_rows(mesh), fem.element_coefficients()
    # Elements [0, m) run the levels, [m, N) lie in the far field, where there are enough.
    m = mesh.N if far_field is None else 1 + int(np.searchsorted(mesh.nodes[1:-1], far_field[0]))
    m = m if mesh.N - m >= _MIN_FAR else mesh.N
    abs_coeff, nodes, values = np.abs(coeff[:m]), global_nodes(mesh, degree), fem.coefficients
    near = degree * m if m < mesh.N else values.size   # the nodes that take an exact call

    far = (_far_norms(h_left[m:], nodes[near:], values[near:], far_field[1]) if m < mesh.N
           else (0.0, -math.inf, 0.0, 0.0))
    # Room for five arrays of the 8-panel level over the near elements.
    work = np.empty(5 * m * (degree + 3) * 2 * _START_PANELS)
    # Largest |exact - fem| at the global nodes (u = poly past reach), then at each level's points.
    x, u, du = work[: 3 * near].reshape(3, near)
    x[:] = nodes[:near]
    exact(x)(u, du)
    peaks = [np.abs(u - values[:near]).max(), far[0]]

    def level(elems, panels):
        # The (2, 2, n) results on ``elems``: an index array, or slice(m)
        # for all near elements, whose arrays are then read without copies.
        nonlocal work
        table, wts, wts4, shape, slope, abs_shape, abs_slope = _level_table(degree, panels)
        he, npts = h[elems], table.shape[1]
        size = he.size * npts
        if work.size < 5 * size:
            work = np.empty(5 * size)
        # x becomes the integrals' scratch once u and u' are in.
        x, u, du, fem_v, abs_v = work[: 5 * size].reshape(5, he.size, npts)
        _element_points(h_left[elems], table, out=x)
        exact(x)(u, du)
        c, abs_c = coeff[elems], abs_coeff[elems]
        sq = np.empty((2, 2, he.size))
        np.matmul(c, shape, out=fem_v)
        np.matmul(abs_c, abs_shape, out=abs_v)
        _error_integrals(u, fem_v, abs_v, x, wts, wts4, sq[:, 0], peaks)
        np.matmul(c, slope, out=fem_v)
        np.matmul(abs_c, abs_slope, out=abs_v)
        hc = he[:, None]
        fem_v /= hc
        abs_v /= hc
        _error_integrals(du, fem_v, abs_v, x, wts, wts4, sq[:, 1])
        sq *= he
        return sq

    # Every near element takes part in the first comparison, whose 8-panel
    # results replace the 4-panel ones.
    sq = level(slice(m), _START_PANELS)
    new = level(slice(m), 2 * _START_PANELS)
    active, sq, panels = (~_settled(new, sq)).nonzero()[0], new, 4 * _START_PANELS
    while active.size and panels <= _MAX_PANELS:
        new = level(active, panels)
        settled = _settled(new, sq.take(active, axis=2))
        sq[..., active] = new
        active, panels = active[~settled], 2 * panels

    if far[1] >= max(peaks):   # a far sample may be the largest: take them
        for panels in (_START_PANELS, 2 * _START_PANELS):
            table, _, _, shape = _level_table(degree, panels)[:4]
            peaks.append(np.abs(far_field[1](_element_points(h_left[m:], table)) - coeff[m:] @ shape).max())

    # Fixed element order keeps the reductions deterministic.
    val2, der2 = sq[0].sum(axis=1).tolist()
    val2, der2 = val2 + far[2], der2 + far[3]
    e_energy = math.sqrt(epsilon * der2 + val2)
    return ErrorTriple(e_inf=float(np.max(peaks)), e_l2=math.sqrt(val2), e_energy=e_energy)


def polynomial_energy_norm(fem: PiecewisePolynomial, epsilon: float) -> float:
    """Energy norm of ``fem`` itself, exact up to round-off.

    Sums eps*c^T K c/h + h*c^T M c over the elements with a nonzero
    coefficient, with K and M the reference stiffness and mass; k + 1 Gauss
    points integrate both exactly.
    """
    k, n_elem = fem.degree, fem.mesh.N
    # Coefficient i lies on elements (i - 1)//k and i//k, clipped to 0..N - 1.
    nonzero, touched = np.flatnonzero(fem.coefficients), np.zeros(n_elem, dtype=bool)
    touched[np.maximum(nonzero - 1, 0) // k] = touched[np.minimum(nonzero // k, n_elem - 1)] = True
    elems = np.flatnonzero(touched)
    c, h = fem.coefficients[k * elems[:, None] + np.arange(k + 1)], fem.mesh.steps[elems]
    mass, stiff = _polynomial_tables(k)[0]
    pairs = (c[:, :, None] * c[:, None, :]).reshape(elems.size, (k + 1) ** 2)
    energy = epsilon * (pairs @ stiff) / h + h * (pairs @ mass)
    return math.sqrt(float(np.sum(energy)))
