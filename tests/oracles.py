"""Reference code that only the tests read: an exact-solution writer made of
two callables and the values a writer gives, the assembled system as a dense
matrix and right-hand side, the first derivative of a piecewise polynomial,
the energy norm of a piecewise polynomial by a scan of the whole mesh, the
two graded maps as written before they shared one generating function, the
rate fit over a sequence of errors, and the reference mass and stiffness and
the far-field error integrals in exact rational arithmetic."""

import math
from fractions import Fraction

import numpy as np

from layerfem import ElementSystem, PiecewisePolynomial, gauss_legendre, shape_tables
from layerfem.femcore import _element_tables


def writer(f, df):
    """The exact-solution callable that error_norms and ExactSolution take, made of
    two callables: at x it returns write(u, du), which fills u with f(x) and du with df(x)."""

    def exact(x):
        def write(u, du):
            u[...] = f(x)
            du[...] = df(x)

        return write

    return exact


def exact_values(u_and_prime, x):
    """(u(x), u'(x)) as fresh float arrays of x's shape, from the writer of
    ``u_and_prime`` run on a copy of x."""
    x = np.array(x, dtype=float)
    u, du = np.empty_like(x), np.empty_like(x)
    u_and_prime(x)(u, du)
    return u, du


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
    # The log's argument is exactly eps at t = 1/2, where it rounds to 0
    # once 1 - eps rounds to 1.
    arg = 1.0 - 2.0 * (1.0 - epsilon) * t[fine]
    x[fine] = -sigma * epsilon * np.log(np.where(arg > 0.0, arg, epsilon))
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


def _poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def exact_reference_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k+1, k+1) reference mass and stiffness matrices, the integrals over
    [0, 1] of phi_a*phi_b and phi_a'*phi_b' for the Lagrange shape functions on
    the nodes j/k, as object arrays of Fractions."""
    nodes = [Fraction(j, k) for j in range(k + 1)]
    basis = []   # coefficients, constant term first
    for a, t_a in enumerate(nodes):
        phi = [Fraction(1)]
        for t_m in nodes[:a] + nodes[a + 1 :]:
            phi = _poly_mul(phi, [-t_m / (t_a - t_m), 1 / (t_a - t_m)])
        basis.append(phi)
    slopes = [[i * c for i, c in enumerate(phi)][1:] for phi in basis]
    integral = lambda p: sum(c / (i + 1) for i, c in enumerate(p))
    mass = [[integral(_poly_mul(p, q)) for q in basis] for p in basis]
    stiff = [[integral(_poly_mul(p, q)) for q in slopes] for p in slopes]
    return np.array(mass, dtype=object), np.array(stiff, dtype=object)


_SCALE = 2**1074   # every finite double times this is an integer


def _scaled(values: np.ndarray) -> np.ndarray:
    """``values * 2**1074`` as an object array of exact Python integers."""
    out = np.empty(values.shape, dtype=object)
    for index, v in np.ndenumerate(values):
        num, den = float(v).as_integer_ratio()
        out[index] = num * (_SCALE // den)
    return out


def exact_far_integrals(rows: np.ndarray, coeff: np.ndarray) -> tuple[Fraction, Fraction, np.ndarray]:
    """The sums of h*d^T M d and d^T K d/h over the elements of ``rows`` (h_i, x_i)
    and (E, k+1) coefficients ``coeff``, exactly: d_j = (1 - x) - c_j at the points
    x = x_i + (j/k)*h_i, with the floats taken as exact and M and K from
    :func:`exact_reference_tables`.  Also returns d, correctly rounded to floats."""
    k = coeff.shape[1] - 1
    h, x, c = _scaled(rows[:, 0]), _scaled(rows[:, 1]), _scaled(coeff)
    # k*2**1074*d, an integer: d = (1 - x_i - c_j) - (j/k)*h_i.
    d = k * (_SCALE - x[:, None] - c) - np.arange(k + 1) * h[:, None]
    sums = []
    for table in exact_reference_tables(k):
        den = math.lcm(*(v.denominator for v in table.flat))
        forms = (d @ (table * den).astype(int).astype(object) * d).sum(axis=1)
        sums.append((forms, den * (k * _SCALE) ** 2))
    (mass, mass_den), (stiff, stiff_den) = sums
    val = Fraction(int(np.sum(h * mass)), mass_den * _SCALE)
    # d^T K d/h summed over a common denominator: the steps h_i are floats, so the
    # lcm of their scaled values is 2**1074 times the lcm of their odd parts.
    lcm = math.lcm(*(int(v) for v in h))
    der = Fraction(int(np.sum(stiff * np.array([lcm // int(v) for v in h], dtype=object))),
                   stiff_den * lcm) * _SCALE
    return val, der, np.array([[int(v) / (k * _SCALE) for v in row] for row in d])
