"""Continuous Galerkin discretization of the convection-diffusion form.

Degree-k Lagrange elements on equidistant element-internal nodes, assembly of

    a(u, v) = epsilon*(u', v') - (b u', v) + (c u, v),     rhs (f, v),

by Gauss-Legendre quadrature, and its solution by static condensation onto
the vertex values: the element interior blocks are solved on strided views of
the element arrays (no call for k = 1, one division per 1x1 block for k = 2,
batched LAPACK dgesv for k >= 3), then the vertex system by LAPACK's pivoted
tridiagonal dgttrf and dgttrs.  Global unknowns are node-ordered left to right.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh1D
from .problem import TwoPointBVP

__all__ = [
    "shape_tables",
    "gauss_legendre",
    "ElementSystem",
    "TridiagonalLU",
    "PiecewisePolynomial",
    "SingularMatrixError",
    "global_nodes",
    "assemble",
    "solve",
    "galerkin_solve",
]


class SingularMatrixError(RuntimeError):
    """The elimination hit a zero or non-finite pivot, or an interior block
    has an infinite entry; the system is singular to working precision.

    ``pivot_index`` is the elimination step of the vertex system, or None when
    the interior block of ``element`` is singular or not finite.
    """

    def __init__(self, pivot_index: int | None = None, element: int | None = None):
        if element is None:
            message = f"zero or non-finite pivot at elimination step {pivot_index}"
        else:
            message = f"singular interior block in element {element}"
        super().__init__(message)
        self.pivot_index = pivot_index
        self.element = element


def _lapack(name: str, n_args: int):
    """LAPACK's ILP64 routine ``name`` from the OpenBLAS that numpy's wheel
    bundles, taking every argument (a character's hidden length too) as a c_void_p."""
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    symbols = (f"scipy_{name}_64_", f"{name}_64_")
    for symbol in symbols:
        routine = getattr(library, symbol, None)
        if routine is not None:
            routine.argtypes, routine.restype = [ctypes.c_void_p] * n_args, None
            return routine
    raise ImportError(f"numpy's LAPACK exports neither {' nor '.join(symbols)}")


_DGTTRF, _DGTTRS = _lapack("dgttrf", 7), _lapack("dgttrs", 12)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= 10:
        raise ValueError(f"polynomial degree must lie in 1..10, got {degree}")


def _shape_values(degree: int, t: np.ndarray) -> np.ndarray:
    """The values table of :func:`shape_tables` at the float array t."""
    nodes = np.linspace(0.0, 1.0, degree + 1)
    values = np.ones((degree + 1,) + t.shape)
    for j, m in itertools.permutations(range(degree + 1), 2):
        values[j] *= (t - nodes[m]) / (nodes[j] - nodes[m])
    return values


def _shape_slopes(degree: int, t: np.ndarray) -> np.ndarray:
    """The derivatives table of :func:`shape_tables` at the float array t."""
    nodes = np.linspace(0.0, 1.0, degree + 1)
    slopes = np.zeros((degree + 1,) + t.shape)
    for j, m in itertools.permutations(range(degree + 1), 2):
        term = np.full(t.shape, 1.0 / (nodes[j] - nodes[m]))
        for l in range(degree + 1):
            if l not in (j, m):
                term *= (t - nodes[l]) / (nodes[j] - nodes[l])
        slopes[j] += term
    return slopes


def shape_tables(degree: int, t) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives at reference coordinates t of the degree-k
    Lagrange shape functions on the k+1 equidistant nodes of [0, 1].

    Returns two (k+1, len(t)) arrays; row j belongs to shape function j.
    Both are evaluated in product form: phi_j is the product over m != j of
    (t - t_m)/(t_j - t_m), and phi_j' the sum over m != j of the same
    product with factor m replaced by 1/(t_j - t_m).
    """
    _check_degree(degree)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _shape_values(degree, t), _shape_slopes(degree, t)


@functools.lru_cache(maxsize=32)
def gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the q-point Gauss-Legendre rule on [0, 1], read-only;
    exact for degree <= 2q - 1."""
    pts, wts = np.polynomial.legendre.leggauss(q)
    return _frozen(0.5 * (pts + 1.0), 0.5 * wts)


def _element_rows(mesh: Mesh1D) -> np.ndarray:
    """The (N, 2) rows (h_i, x_i) of the elements: step and left node."""
    rows = np.empty((mesh.N, 2))
    rows[:, 0], rows[:, 1] = mesh.steps, mesh.nodes[:-1]
    return rows


def _point_table(t: np.ndarray) -> np.ndarray:
    """The (2, P) table [t; 1] of the reference points t."""
    table = np.ones((2, t.size))
    table[0] = t
    return table


def _element_points(rows: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """The (E, P) table x_i + t_j*h_i of the element rows (h_i, x_i) of
    :func:`_element_rows` and the columns (t_j, 1) of :func:`_point_table`.

    Computed as the product ``rows @ table``: dgemm rounds h_i*t_j and then
    adds x_i*1 exactly, the two roundings of the broadcast, in one BLAS call
    where the broadcast runs an inner loop of P points per row.  numpy hands
    a product with one row or one column to gemv, which can round otherwise,
    so those shapes take the broadcast.
    """
    if rows.shape[0] == 1 or table.shape[1] == 1:
        out = np.multiply(rows[:, :1], table[0], out=out)
        return np.add(rows[:, 1:], out, out=out)
    return np.matmul(rows, table, out=out)


@functools.lru_cache(maxsize=16)
def _node_table(degree: int) -> np.ndarray:
    """The read-only (2, k) table [j/k; 1] of an element's nodes but its right end."""
    return _frozen(_point_table(np.arange(degree) / degree))[0]


def global_nodes(mesh: Mesh1D, degree: int) -> np.ndarray:
    """Coordinates of the k*N + 1 global nodes x_i + (j/k)*h_i, left to right."""
    nodes = np.empty(degree * mesh.N + 1)
    inner = nodes[:-1].reshape(mesh.N, degree)
    _element_points(_element_rows(mesh), _node_table(degree), out=inner)
    nodes[-1] = mesh.nodes[-1]
    return nodes


@dataclass(frozen=True, eq=False)
class PiecewisePolynomial:
    """A C0 piecewise polynomial of degree k: mesh + nodal coefficient vector.

    Coefficient m is the value at global node m; boundary entries are present
    (possibly zero).  Continuity across elements is automatic because
    neighbouring elements share their endpoint coefficient.
    """

    mesh: Mesh1D
    degree: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        _check_degree(self.degree)
        coeff = np.array(self.coefficients, dtype=float)
        expected = self.degree * self.mesh.N + 1
        if coeff.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients, got {coeff.shape}")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    def element_coefficients(self) -> np.ndarray:
        """Coefficients per element as an (N, k+1) array (shared nodes duplicated)."""
        k, n_elem = self.degree, self.mesh.N
        out = np.empty((n_elem, k + 1))
        out[:, :k] = self.coefficients[:-1].reshape(n_elem, k)
        out[:, k] = self.coefficients[k::k]
        return out

    def evaluate(self, x):
        """Evaluate at x (scalar or array)."""
        x_arr = np.asarray(x, dtype=float)
        xf = x_arr.ravel()
        elems = np.clip(
            np.searchsorted(self.mesh.nodes, xf, side="right") - 1, 0, self.mesh.N - 1
        )
        t = (xf - self.mesh.nodes[elems]) / self.mesh.steps[elems]
        out = np.zeros_like(xf)
        for a, row in enumerate(_shape_values(self.degree, t)):
            out += self.coefficients[self.degree * elems + a] * row
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


@dataclass(frozen=True, eq=False)
class ElementSystem:
    """The discrete system as element matrices and element loads: what
    :func:`assemble` hands to :func:`solve`.

    ``matrices[e]`` is the (k+1, k+1) matrix of element e and ``loads[e]`` its
    load vector, both in the element's local node order (left vertex,
    interior nodes, right vertex).  The global matrix is their sum over shared
    vertices with the rows and columns of the two boundary nodes removed; it
    is never formed, and the system has no dense view of it.  Both arrays are
    stored as read-only copies in which those rows, columns and load entries
    are zero.
    """

    matrices: np.ndarray
    loads: np.ndarray
    degree: int

    def __post_init__(self) -> None:
        k = self.degree
        _check_degree(k)
        matrices = np.array(self.matrices, dtype=float)
        loads = np.array(self.loads, dtype=float)
        n_elem = matrices.shape[0] if matrices.ndim == 3 else 0
        if n_elem < 2 or matrices.shape != (n_elem, k + 1, k + 1):
            raise ValueError(f"element matrices must have shape (N >= 2, {k + 1}, {k + 1})")
        if loads.shape != (n_elem, k + 1):
            raise ValueError(f"element loads must have shape ({n_elem}, {k + 1})")
        matrices[0, 0, :] = matrices[0, :, 0] = matrices[-1, k, :] = matrices[-1, :, k] = 0.0
        loads[0, 0] = loads[-1, k] = 0.0
        _frozen(matrices, loads)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "loads", loads)


@functools.lru_cache(maxsize=32)
def _element_tables(degree: int, q: int) -> tuple[np.ndarray, ...]:
    """Reference tables of the element integrals for the q-point Gauss rule.

    Returns the flattened (k+1)^2 reference stiffness matrix, the per-point
    products phi_a*phi_b' and phi_a*phi_b (both (q, (k+1)^2)) and the shape
    values ((q, k+1)): an element's convection, mass and load are a
    coefficient's weighted values at the Gauss points times one of these
    tables.
    """
    points, weights = gauss_legendre(q)
    shp, dshp = shape_tables(degree, points)
    # The round-off floor of the k = 4 errors at N = 1024 depends on the last
    # bits of this matrix: summed as (dshp*w) @ dshp.T instead, e_inf there
    # rises from ~2e-11 to ~4.5e-11.
    stiff = np.einsum("aq,bq,q->ab", dshp, dshp, weights)
    conv = np.einsum("aq,bq->qab", shp, dshp).reshape(q, -1)
    mass = np.einsum("aq,bq->qab", shp, shp).reshape(q, -1)
    return _frozen(stiff.ravel(), conv, mass, shp.T.copy())


def _weighted(fn, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """fn at the quadrature points x, times the quadrature weights."""
    return np.multiply(fn(x), weights, out=np.empty(x.shape))


def assemble(bvp: TwoPointBVP, mesh: Mesh1D, degree: int) -> ElementSystem:
    """Assemble the element matrices and loads of the discrete convection-diffusion system.

    Entry (i, j) of the global matrix is epsilon*(theta_j', theta_i')
    - (b theta_j', theta_i) + (c theta_j, theta_i); the right-hand side is
    (f, theta_i).  Element integrals use k + 2 Gauss-Legendre points, exact
    for polynomial data of degree <= k + 3.
    """
    k = degree
    _check_degree(k)
    q = k + 2
    xi, w = gauss_legendre(q)
    stiff, conv, mass, shp = _element_tables(k, q)
    h = mesh.steps
    x_q = _element_points(_element_rows(mesh), _point_table(xi))   # (N, q)

    # Physical-space factors: d theta/dx = dshp/h and dx = h dxi, so the
    # diffusion block scales by 1/h, convection by 1 and mass by h.
    matrices = (
        (bvp.epsilon / h)[:, None] * stiff
        - _weighted(bvp.b, x_q, w) @ conv
        + h[:, None] * (_weighted(bvp.c, x_q, w) @ mass)
    )
    loads = h[:, None] * (_weighted(bvp.f, x_q, w) @ shp)
    return ElementSystem(matrices=matrices.reshape(mesh.N, k + 1, k + 1), loads=loads, degree=k)


class TridiagonalLU:
    """LU factorization with partial pivoting of a tridiagonal matrix by
    LAPACK's dgttrf, solved by its dgttrs.

    ``dl``, ``d`` and ``du`` are the sub-, main and superdiagonal; they are
    not modified.  Rows i and i + 1 swap when |dl[i]| exceeds the pivot
    candidate, so U gains a second superdiagonal.  Raises
    :class:`SingularMatrixError` with the elimination step of the first zero
    or non-finite pivot: dgttrf flags only exact zeros and carries on, so the
    factors are checked after it (a non-finite candidate in a swapped row
    shows only as a non-finite multiplier).  ``solve`` works in the
    factorization's buffer; an instance is not for concurrent use.
    """

    def __init__(self, dl, d, du):
        n = np.size(d)
        if np.ndim(d) != 1 or n < 1 or np.shape(dl) != (n - 1,) or np.shape(du) != (n - 1,):
            raise ValueError("need n >= 1 diagonal and n - 1 off-diagonal entries")
        # Slots of n: dl, d, du, du2, the right-hand side, the row interchanges;
        # then n, nrhs = 1 and info (integers int64).  self._rhs keeps buf alive.
        buf = np.zeros(6 * n + 3)
        buf[: n - 1], buf[n : 2 * n], buf[2 * n : 3 * n - 1] = dl, d, du
        buf[6 * n :].view(np.int64)[:2] = n, 1
        base = buf.ctypes.data
        dl_, d_, du_, du2_, rhs_, ipiv_, n_ = (base + 8 * n * j for j in range(7))
        _DGTTRF(n_, dl_, d_, du_, du2_, ipiv_, n_ + 16)
        factors = buf[: 2 * n]   # the multipliers (the last stays 0), then the pivots
        if not (np.isfinite(factors).all() and factors[n:].all()):
            multipliers, pivots = factors.reshape(2, n)
            bad = ~(np.isfinite(multipliers) & np.isfinite(pivots) & (pivots != 0))
            raise SingularMatrixError(int(bad.argmax()))
        self._rhs = buf[4 * n : 5 * n]
        self._solve_args = (b"N", n_, n_ + 8, dl_, d_, du_, du2_, ipiv_, rhs_, n_, n_ + 16, 1)

    def solve(self, b) -> np.ndarray:
        """Solve A x = b with the stored factors."""
        if np.shape(b) != self._rhs.shape:
            raise ValueError(f"right-hand side must have {self._rhs.size} entries")
        self._rhs[:] = b
        _DGTTRS(*self._solve_args)
        return self._rhs.copy()


def _overlapping(
    buffer: np.ndarray, shape: tuple[int, int], strides: tuple[int, int]
) -> np.ndarray:
    """A read-only view of the contiguous ``buffer`` from its start whose rows
    may overlap: what ``as_strided`` builds, without its per-call overhead."""
    return _frozen(np.ndarray(shape, buffer=buffer, strides=strides))[0]


class _Condensation:
    """An element system reduced to its vertex values by static condensation.

    The interior unknowns of an element couple only inside that element, so
    eliminating them element by element leaves a tridiagonal system in the
    vertex values, held here factored.  ``solve`` maps element loads to the
    full coefficient vector, boundary values (zero) included.
    """

    def __init__(self, matrices: np.ndarray):
        k = self._k = matrices.shape[1] - 1
        self._a_ii = matrices[:, 1:k, 1:k]
        self._a_vi = matrices[:, ::k, 1:k]   # rows 0 and k
        if k == 2 and not self._a_ii.all():   # the exact zero pivot LAPACK's dgetrf flags
            raise SingularMatrixError(element=int((self._a_ii == 0.0).argmax()))
        # Interior values per unit vertex value: u_inner = y - w @ (v_left, v_right).
        self._w = self._interior_solve(matrices[:, 1:k, ::k])
        schur = matrices[:, ::k, ::k] - self._a_vi @ self._w
        self._lu = TridiagonalLU(
            schur[1:-1, 1, 0], schur[:-1, 1, 1] + schur[1:, 0, 0], schur[1:-1, 0, 1]
        )

    def _interior_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._k == 1:   # no interior unknowns
            return rhs
        if self._k == 2:   # 1x1 blocks, nonzero (checked above), with the bits of OpenBLAS's dgesv
            # trsm multiplies several right-hand sides by the reciprocal pivot, trsv divides one.
            if rhs.shape[2] == 1:
                return rhs / self._a_ii
            return rhs * (1.0 / self._a_ii)
        try:
            return np.linalg.solve(self._a_ii, rhs)
        except np.linalg.LinAlgError:
            for e, block in enumerate(self._a_ii):
                try:
                    np.linalg.solve(block, rhs[e])
                except np.linalg.LinAlgError:
                    raise SingularMatrixError(element=e) from None
            raise

    def solve(self, loads: np.ndarray) -> np.ndarray:
        k, n_elem = self._k, loads.shape[0]
        y = self._interior_solve(loads[:, 1:k, None])
        g = loads[:, ::k] - (self._a_vi @ y)[:, :, 0]
        out = np.zeros(k * n_elem + 1)
        v = out[::k]
        v[1:-1] = self._lu.solve(g[:-1, 1] + g[1:, 0])
        ends = _overlapping(out, (n_elem, 2), v.strides * 2)   # (v_e, v_e+1)
        out[:-1].reshape(n_elem, k)[:, 1:] = (y - self._w @ ends[:, :, None])[:, :, 0]
        return out


@np.errstate(over="ignore", invalid="ignore")   # a non-finite result raises below instead
def solve(system: ElementSystem) -> np.ndarray:
    """Solve the system by static condensation; returns the k*N - 1 unknowns.

    The interior unknowns of each element are eliminated by the LU with
    partial pivoting of its interior block, the summed 2x2 Schur
    complements form a tridiagonal vertex system solved by LAPACK's dgttrf
    and dgttrs (:class:`TridiagonalLU`), and the interior values follow.
    One step of iterative refinement against the element-wise residual
    follows: when epsilon << h the interior blocks have diagonals of size
    O(h), and recovering the interior values can magnify the error of the
    vertex values by up to ~N.  Each condensed solve fills one array of
    k*N + 1 coefficients through strided views.  The interior blocks take
    no LAPACK call for k = 1; for k = 2 they are 1x1, and each of w, y and y
    of the residual is one division per block, with the bits dgesv gives;
    k >= 3 take three batched dgesv calls (w, y, y of the residual).  Solving
    y with w would round differently (trsm multiplies by 1/pivot, trsv divides).

    Raises :class:`SingularMatrixError` on a zero or non-finite pivot of the vertex system
    (with its elimination step) or a singular or infinite interior block (with its element),
    a ValueError naming the element of a non-finite load, else a FloatingPointError.
    """
    condensed = _Condensation(system.matrices)
    x = condensed.solve(system.loads)
    k, n_elem = system.degree, system.loads.shape[0]
    local = _overlapping(x, (n_elem, k + 1), (k * x.itemsize, x.itemsize))
    residual = system.loads - (system.matrices @ local[:, :, None])[:, :, 0]
    x += condensed.solve(residual)
    if not np.isfinite(x).all():   # an infinite interior entry passes every pivot check
        finite = np.isfinite(system.matrices[:, 1:k, 1:k]).all(axis=(1, 2))
        if not finite.all():
            raise SingularMatrixError(element=int(finite.argmin()))
        finite = np.isfinite(system.loads).all(axis=1)
        if not finite.all():
            raise ValueError(f"element {int(finite.argmin())} has a non-finite load")
        raise FloatingPointError("the solution overflows to non-finite values")
    return x[1:-1]


def galerkin_solve(bvp: TwoPointBVP, mesh: Mesh1D, degree: int) -> PiecewisePolynomial:
    """Assemble and solve the discrete problem; returns the solution with the
    homogeneous boundary values reinserted."""
    system = assemble(bvp, mesh, degree)
    coeff = np.zeros(degree * mesh.N + 1)
    coeff[1:-1] = solve(system)
    return PiecewisePolynomial(mesh=mesh, degree=degree, coefficients=coeff)
