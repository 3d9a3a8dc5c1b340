import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from layerfem import (
    ElementSystem,
    Mesh1D,
    MeshAssumptionWarning,
    MeshFamily,
    MeshSpec,
    PiecewisePolynomial,
    SingularMatrixError,
    TwoPointBVP,
    assemble,
    defaults_for,
    error_norms,
    galerkin_solve,
    gauss_legendre,
    generate,
    global_nodes,
    layer_test_problem,
    shape_tables,
    solve,
)
from layerfem import femcore
from layerfem.femcore import TridiagonalLU
from oracles import dense_matrix, dense_rhs, derivative, writer

ALL_FAMILIES = [MeshFamily.ROOS, MeshFamily.KOPTEVA, MeshFamily.UNIFORM]


def poly_coefficient_problem(epsilon, f_poly=None):
    """BVP with b = 3 - x, c = 1 and a polynomial forcing (default 1 + x^3)."""
    f_poly = Polynomial([1.0, 0.0, 0.0, 1.0]) if f_poly is None else f_poly
    return TwoPointBVP(
        epsilon=epsilon,
        b=lambda x: 3.0 - x,
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: f_poly(np.asarray(x, dtype=float)),
        b_prime=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
    )


def manufactured_poly_problem(epsilon, degree):
    """Exact polynomial solution p = x(1-x)*q vanishing at both endpoints."""
    p = Polynomial([0.0, 1.0]) * Polynomial([1.0, -1.0])
    if degree > 2:
        p = p * Polynomial([1.0] * (degree - 1))
    dp = p.deriv()
    ddp = dp.deriv()
    b_poly = Polynomial([3.0, -1.0])
    f_poly = -epsilon * ddp - b_poly * dp + p
    return poly_coefficient_problem(epsilon, f_poly), p, dp


def reference_shape(k, j, t, derivative=False):
    """Shape function j of degree k, or its derivative, one function at a
    time in the product form (the per-function evaluator ``shape_tables``
    replaced)."""
    nodes = np.linspace(0.0, 1.0, k + 1)
    others = [m for m in range(k + 1) if m != j]
    if not derivative:
        out = np.ones_like(t)
        for m in others:
            out = out * ((t - nodes[m]) / (nodes[j] - nodes[m]))
        return out
    out = np.zeros_like(t)
    for m in others:
        term = np.ones_like(t) / (nodes[j] - nodes[m])
        for l in others:
            if l != m:
                term = term * ((t - nodes[l]) / (nodes[j] - nodes[l]))
        out = out + term
    return out


class TestReferenceBasis:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kronecker_delta_exact(self, k):
        values, _ = shape_tables(k, np.linspace(0.0, 1.0, k + 1))
        np.testing.assert_array_equal(values, np.eye(k + 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partition_of_unity(self, k):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, 100)
        total = shape_tables(k, pts)[0].sum(axis=0)
        np.testing.assert_allclose(total, 1.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_derivative_matches_finite_differences(self, k):
        pts = np.linspace(0.07, 0.93, 9)
        step = 1e-6
        fd = (shape_tables(k, pts + step)[0] - shape_tables(k, pts - step)[0]) / (2 * step)
        np.testing.assert_allclose(shape_tables(k, pts)[1], fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_tables_match_per_function_reference_bit_for_bit(self, k):
        # The k = 4, N = 1024 round-off rows depend on the last bits of these
        # tables, so the batched form must keep the reference's arithmetic.
        rng = np.random.default_rng(k)
        pts = np.concatenate([gauss_legendre(k + 3)[0], rng.uniform(0.0, 1.0, 50)])
        values, slopes = shape_tables(k, pts)
        for j in range(k + 1):
            np.testing.assert_array_equal(values[j], reference_shape(k, j, pts))
            np.testing.assert_array_equal(slopes[j], reference_shape(k, j, pts, True))

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            shape_tables(0, [0.5])


class TestQuadrature:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_monomial_exactness(self, q):
        points, weights = gauss_legendre(q)
        for m in range(2 * q):
            approx = float(np.sum(weights * points**m))
            assert approx == pytest.approx(1.0 / (m + 1), rel=1e-13)

    def test_weights_sum_to_one(self):
        _, weights = gauss_legendre(5)
        assert float(np.sum(weights)) == pytest.approx(1.0, rel=1e-15)

    def test_cached_rule_is_read_only(self):
        points, weights = gauss_legendre(3)
        with pytest.raises(ValueError):
            weights[0] = 1.0
        assert gauss_legendre(3)[1] is weights

    def test_rejects_a_rule_without_points(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


# Reference points t of 1..64 entries: random, Gauss, composite-panel (the
# norms' levels) and the nodes j/k.
_POINT_TABLES = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64).map(np.array),
    st.integers(1, 64).map(lambda q: gauss_legendre(q)[0]),
    st.tuples(st.integers(1, 8), st.sampled_from([1, 2, 4, 8])).map(
        lambda qp: ((np.arange(qp[1])[:, None] + gauss_legendre(qp[0])[0]) / qp[1]).ravel()
    ),
    st.integers(1, 64).map(lambda k: np.arange(k) / k),
)


@st.composite
def _meshes(draw):
    if draw(st.integers(0, 9)) == 0:
        # The first step is subnormal.
        return generate(MeshSpec("kopteva", 4, 2.0, 1e-320, 1e308))
    try:
        spec = MeshSpec(
            family=draw(st.sampled_from(ALL_FAMILIES)),
            N=2 * draw(st.integers(2, 2048)),
            sigma=draw(st.floats(1.0, 6.0)),
            epsilon=10.0 ** draw(st.floats(-12.0, 0.0)),
            c1=draw(st.floats(0.5, 5.0)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MeshAssumptionWarning)
            return generate(spec)
    except ValueError as exc:
        assert "strictly increasing" not in str(exc)
        assume(False)


class TestElementPoints:
    @settings(max_examples=300, deadline=None)
    @given(mesh=_meshes(), t=_POINT_TABLES, data=st.data())
    def test_product_matches_the_broadcast_bit_for_bit(self, mesh, t, data):
        # All elements, one element (a one-row product) or a sorted subset,
        # as error_norms' deeper levels take them.
        elems = data.draw(st.one_of(
            st.just(np.arange(mesh.N)),
            st.integers(0, mesh.N - 1).map(lambda e: np.array([e])),
            st.lists(st.integers(0, mesh.N - 1), min_size=1, unique=True).map(np.sort),
        ))
        expected = mesh.nodes[:-1][elems, None] + mesh.steps[elems][:, None] * t
        rows, table = femcore._element_rows(mesh)[elems], femcore._point_table(t)
        got = femcore._element_points(rows, table)
        assert got.shape == expected.shape and np.array_equal(got, expected)
        out = np.empty(expected.shape)
        assert femcore._element_points(rows, table, out=out) is out
        assert np.array_equal(out, expected)


class TestGlobalNodes:
    @settings(max_examples=20, deadline=None)
    @given(mesh=_meshes())
    @pytest.mark.parametrize("k", range(1, 11))
    def test_nodes_are_the_element_points_bit_for_bit(self, k, mesh):
        # k = 1 is a one-column table, which takes the broadcast.
        rows, table = femcore._element_rows(mesh), femcore._point_table(np.arange(k) / k)
        expected = np.append(femcore._element_points(rows, table).ravel(), 1.0)
        assert np.array_equal(global_nodes(mesh, k), expected)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_node_table_is_cached_read_only(self, k):
        table = femcore._node_table(k)
        assert femcore._node_table(k) is table
        assert np.array_equal(table, femcore._point_table(np.arange(k) / k))
        with pytest.raises(ValueError):
            table[0, 0] = 0.5


class TestAssembly:
    def test_hat_function_matrix_by_hand(self):
        # k=1 on a uniform mesh of 4 elements with eps=1, b=2, c=1.  Exact
        # entries: stiffness 2/h diag and -1/h off-diag, convection -(b u',v)
        # contributes -b/2 right and +b/2 left, mass 2h/3 and h/6.
        h = 0.25
        bvp = TwoPointBVP(
            epsilon=1.0,
            b=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
            c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            f=lambda x: np.asarray(x, dtype=float),
            b_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        mesh = generate(MeshSpec(family=MeshFamily.UNIFORM, N=4, sigma=1.0, epsilon=0.5))
        system = assemble(bvp, mesh, 1)
        diag = 2.0 / h + 2.0 * h / 3.0
        upper = -1.0 / h - 1.0 + h / 6.0
        lower = -1.0 / h + 1.0 + h / 6.0
        expected = np.array(
            [[diag, upper, 0.0], [lower, diag, upper], [0.0, lower, diag]]
        )
        np.testing.assert_allclose(dense_matrix(system), expected, rtol=1e-14, atol=1e-14)
        # (x, hat_i) = h*x_i exactly for interior hats.
        np.testing.assert_allclose(dense_rhs(system), h * np.array([0.25, 0.5, 0.75]), rtol=1e-14)

    def test_scalar_coefficients_broadcast_like_arrays(self):
        # A coefficient may return a scalar; the system is the same as for
        # the constant array, bit for bit.
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        systems = [
            assemble(TwoPointBVP(epsilon=0.01, b=b, c=c, f=f, b_prime=ones), mesh, 3)
            for b, c, f in [
                (lambda x: 2.0, lambda x: 1, lambda x: 0.5),
                (lambda x: 2.0 * ones(x), ones, lambda x: 0.5 * ones(x)),
            ]
        ]
        np.testing.assert_array_equal(systems[0].matrices, systems[1].matrices)
        np.testing.assert_array_equal(systems[0].loads, systems[1].loads)

    def test_matrix_against_dense_quadrature_oracle(self):
        # Independent oracle: nodal polynomials built from roots with
        # numpy.polynomial, dense storage, 20-point Gauss per element.
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=3.0, epsilon=0.01))
        k = 2
        system = assemble(bvp, mesh, k)
        oracle = _dense_assembly_oracle(bvp, mesh, k, q=20)
        scale = np.max(np.abs(oracle))
        np.testing.assert_allclose(dense_matrix(system), oracle, rtol=1e-12, atol=1e-12 * scale)

    def test_rhs_against_dense_quadrature_oracle(self):
        # Polynomial forcing keeps the default k+2 rule exact, so the banded
        # rhs must match the dense 20-point oracle to round-off.
        bvp = poly_coefficient_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=3.0, epsilon=0.01))
        k = 3
        system = assemble(bvp, mesh, k)
        rhs_oracle = _dense_rhs_oracle(bvp, mesh, k, q=20)
        np.testing.assert_allclose(dense_rhs(system), rhs_oracle, rtol=1e-12, atol=1e-300)

    def test_zero_forcing_gives_zero_rhs_and_solution(self):
        bvp = poly_coefficient_problem(0.01, Polynomial([0.0]))
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, 2)
        np.testing.assert_array_equal(dense_rhs(system), 0.0)
        fem = galerkin_solve(bvp, mesh, 2)
        np.testing.assert_array_equal(fem.coefficients, 0.0)

    def test_band_structure(self):
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        k = 3
        dense = dense_matrix(assemble(bvp, mesh, k))
        n = dense.shape[0]
        i, j = np.indices((n, n))
        assert np.all(dense[np.abs(i - j) > k] == 0.0)

    def test_rejects_bad_degree(self):
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        with pytest.raises(ValueError):
            assemble(bvp, mesh, 0)

    @pytest.mark.parametrize("degree", [2.0, np.float64(3.0)])
    def test_a_degree_that_is_not_an_integer_is_rejected_by_name(self, degree):
        # Unchecked, a float degree reaches numpy's leggauss, whose TypeError names
        # the rule size k + 2 instead of the degree.
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        with pytest.raises(ValueError, match=rf"^polynomial degree must lie in 1\.\.10, got {degree}$"):
            galerkin_solve(bvp, mesh, degree)

    def test_a_numpy_integer_degree_is_accepted(self):
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        np.testing.assert_array_equal(
            galerkin_solve(bvp, mesh, np.int64(2)).coefficients,
            galerkin_solve(bvp, mesh, 2).coefficients,
        )

    @pytest.mark.parametrize("degree", [-2, -5])
    def test_negative_degree_error_names_the_degree(self, degree):
        # Checked before the default rule size k + 2 is formed, so the
        # message names the degree, not the number of quadrature points.
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        with pytest.raises(ValueError, match=f"polynomial degree must lie in 1..10, got {degree}"):
            assemble(bvp, mesh, degree)

    @pytest.mark.parametrize(
        "matrices,loads,message",
        [
            ((1, 3, 3), (1, 3), r"element matrices must have shape \(N >= 2, 3, 3\)"),
            ((4, 2, 2), (4, 3), r"element matrices must have shape \(N >= 2, 3, 3\)"),
            ((4, 3, 3), (4, 2), r"element loads must have shape \(4, 3\)"),
        ],
    )
    def test_element_system_rejects_misshapen_arrays(self, matrices, loads, message):
        with pytest.raises(ValueError, match=message):
            ElementSystem(matrices=np.zeros(matrices), loads=np.zeros(loads), degree=2)


def _reference_polynomials(k):
    nodes = np.linspace(0.0, 1.0, k + 1)
    polys = []
    for j in range(k + 1):
        p = Polynomial.fromroots(np.delete(nodes, j))
        polys.append(p / p(nodes[j]))
    return polys, [p.deriv() for p in polys]


def _dense_assembly_oracle(bvp, mesh, k, q):
    pts, wts = np.polynomial.legendre.leggauss(q)
    pts, wts = 0.5 * (pts + 1.0), 0.5 * wts
    polys, dpolys = _reference_polynomials(k)
    shp = np.array([p(pts) for p in polys])
    dshp = np.array([p(pts) for p in dpolys])

    n_nodes = k * mesh.N + 1
    full = np.zeros((n_nodes, n_nodes))
    for e in range(mesh.N):
        h = mesh.steps[e]
        xq = mesh.nodes[e] + h * pts
        bq, cq = bvp.b(xq), bvp.c(xq)
        for a in range(k + 1):
            for bb in range(k + 1):
                val = (
                    bvp.epsilon / h * np.sum(wts * dshp[a] * dshp[bb])
                    - np.sum(wts * bq * shp[a] * dshp[bb])
                    + h * np.sum(wts * cq * shp[a] * shp[bb])
                )
                full[e * k + a, e * k + bb] += val
    return full[1:-1, 1:-1]


def _dense_rhs_oracle(bvp, mesh, k, q):
    pts, wts = np.polynomial.legendre.leggauss(q)
    pts, wts = 0.5 * (pts + 1.0), 0.5 * wts
    polys, _ = _reference_polynomials(k)
    shp = np.array([p(pts) for p in polys])
    rhs = np.zeros(k * mesh.N + 1)
    for e in range(mesh.N):
        h = mesh.steps[e]
        fq = bvp.f(mesh.nodes[e] + h * pts)
        for a in range(k + 1):
            rhs[e * k + a] += h * np.sum(wts * fq * shp[a])
    return rhs[1:-1]


def _tridiagonal(dense):
    return np.diag(dense, -1), np.diag(dense), np.diag(dense, 1)


def _random_mesh(rng, n_elem):
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_elem - 1)), [1.0]])
    spec = MeshSpec(family=MeshFamily.UNIFORM, N=n_elem, sigma=1.0, epsilon=0.5)
    return Mesh1D(nodes=nodes, spec=spec)


class TestBandedSolve:
    def test_identity_system(self):
        rhs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        lu = TridiagonalLU(*_tridiagonal(np.eye(5)))
        np.testing.assert_array_equal(lu.solve(rhs), rhs)

    @pytest.mark.parametrize(
        "dl,d,du",
        [([1.0], [1.0, 2.0], [1.0, 1.0]), ([], [], []), ([[1.0]], [[1.0, 2.0]], [[1.0]])],
    )
    def test_rejects_mismatched_diagonals(self, dl, d, du):
        with pytest.raises(ValueError, match="need n >= 1 diagonal and n - 1 off-diagonal entries"):
            TridiagonalLU(np.array(dl), np.array(d), np.array(du))

    def test_random_banded_against_dense_lu(self):
        # Condensed solve vs dense LU of the same assembled system, on random
        # meshes, for every degree.
        rng = np.random.default_rng(42)
        bvp = layer_test_problem(0.01)
        for k in (1, 2, 3, 4):
            system = assemble(bvp, _random_mesh(rng, 16), k)
            x = solve(system)
            x_ref = np.linalg.solve(dense_matrix(system), dense_rhs(system))
            assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))

    def test_pivoting_handles_zero_diagonal(self):
        # Requires a row swap at the first step; rejects naive elimination.
        dense = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        rhs = np.array([1.0, 2.0, 3.0])
        x = TridiagonalLU(*_tridiagonal(dense)).solve(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-13)

    def test_singular_reports_pivot_index(self):
        dense = np.eye(4)
        dense[2, 2] = 0.0
        with pytest.raises(SingularMatrixError) as info:
            TridiagonalLU(*_tridiagonal(dense))
        assert info.value.pivot_index == 2

    def test_zero_pivot_after_interchange(self):
        # Step 0 swaps rows; the remaining pivot is then exactly zero.
        dense = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as info:
            TridiagonalLU(*_tridiagonal(dense))
        assert info.value.pivot_index == 1

    @pytest.mark.parametrize(
        "dl, d, du, step",
        [
            ([0.0, 0.0], [1.0, np.inf, 1.0], [0.0, 0.0], 1),   # kept row
            ([0.0, 1.0], [1.0, np.nan, 1.0], [0.0, 0.0], 1),   # interchange
            ([np.nan, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0], 0),   # NaN below the pivot
            ([0.0, 0.0], [1.0, 1.0, 1.0], [0.0, np.nan], 2),   # reaches the last pivot
            ([np.inf], [1.0, 1.0], [0.0], 0),   # inf below the pivot forces an interchange
            ([0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0], 0),   # an exact zero dgttrf steps over
            ([1.0], [1.0, 1.0], [np.inf], 1),   # inf in du reaches the next pivot
            ([], [0.0], [], 0),   # n = 1
            ([], [np.nan], [], 0),
        ],
    )
    def test_non_finite_pivot_reports_its_step(self, dl, d, du, step):
        with pytest.raises(SingularMatrixError) as info:
            TridiagonalLU(np.array(dl), np.array(d), np.array(du))
        assert info.value.pivot_index == step

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1),
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1),
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    )))
    def test_backward_stable_on_random_systems(self, diagonals):
        # Small integers make zero diagonals and exactly singular matrices
        # common; a matrix the kernel rejects must be singular to working
        # precision.
        dl, d, du, b = (np.array(v, dtype=float) for v in diagonals)
        dense = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        try:
            x = TridiagonalLU(dl, d, du).solve(b)
        except SingularMatrixError:
            assert np.linalg.cond(dense) > 1e10
            return
        norm_a = np.max(np.sum(np.abs(dense), axis=1))
        bound = 1e-12 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
        assert np.max(np.abs(dense @ x - b)) <= bound

    def test_solve_matches_indexed_dgttrf_and_dgttrs_bit_for_bit(self):
        # LAPACK's dgttrf written over the diagonals in place, index by index,
        # then the sweeps of its dgttrs indexing x directly; small diagonals
        # make rows swap.
        for seed in (11, 12):
            rng = np.random.default_rng(seed)
            for n in (1, 2, 3, 17, 400):
                dl, du = rng.normal(size=n - 1), rng.normal(size=n - 1)
                d, b = rng.normal(size=n) * 0.05, rng.normal(size=n)
                fl, fd, fu = dl.tolist(), d.tolist(), du.tolist() + [0.0]
                fu2, swap = [0.0] * n, [False] * n
                for i in range(n - 1):
                    if abs(fd[i]) >= abs(fl[i]):
                        f = fl[i] / fd[i]
                        fd[i + 1] -= f * fu[i]
                    else:
                        f = fd[i] / fl[i]
                        fd[i], fd[i + 1], fu[i] = fl[i], fu[i] - f * fd[i + 1], fd[i + 1]
                        fu2[i], fu[i + 1] = fu[i + 1], -f * fu[i + 1]
                        swap[i] = True
                    fl[i] = f
                x = b.tolist() + [0.0]
                for i in range(n - 1):
                    if swap[i]:
                        x[i], x[i + 1] = x[i + 1], x[i] - fl[i] * x[i + 1]
                    else:
                        x[i + 1] -= fl[i] * x[i]
                x[n - 1] /= fd[n - 1]
                for i in range(n - 2, -1, -1):
                    x[i] = (x[i] - fu[i] * x[i + 1] - fu2[i] * x[i + 2]) / fd[i]
                assert n < 17 or any(swap)
                np.testing.assert_array_equal(TridiagonalLU(dl, d, du).solve(b), x[:n])

    def test_missing_lapack_routine_fails_the_import_naming_both_symbols(self):
        # No fallback: without the routine the solver cannot be imported.
        with pytest.raises(ImportError, match="scipy_nosuchroutine_64_ nor nosuchroutine_64_"):
            femcore._lapack("nosuchroutine", 1)

    def test_solutions_are_independent_of_later_solves(self):
        lu = TridiagonalLU(*_tridiagonal(2.0 * np.eye(3)))
        first = lu.solve(np.ones(3))
        lu.solve(np.full(3, 4.0))
        np.testing.assert_array_equal(first, np.full(3, 0.5))

    def test_rejects_right_hand_side_of_wrong_length(self):
        lu = TridiagonalLU(*_tridiagonal(np.eye(3)))
        for b in (np.ones(2), np.ones(4)):
            with pytest.raises(ValueError, match="3 entries"):
                lu.solve(b)

    def test_solve_does_not_mutate_input(self):
        rng = np.random.default_rng(3)
        dl, du = rng.uniform(size=5), rng.uniform(size=5)
        d, b = 2.0 + rng.uniform(size=6), rng.uniform(size=6)
        before = [v.copy() for v in (dl, d, du, b)]
        TridiagonalLU(dl, d, du).solve(b)
        for after, original in zip((dl, d, du, b), before):
            np.testing.assert_array_equal(after, original)

        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, 3)
        matrices, loads = system.matrices.copy(), system.loads.copy()
        solve(system)
        np.testing.assert_array_equal(system.matrices, matrices)
        np.testing.assert_array_equal(system.loads, loads)
        assert not system.matrices.flags.writeable and not system.loads.flags.writeable

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_nan_in_element_matrix_raises(self, k):
        # Every non-finite entry of element 3's interior block names element 3, whether
        # it breaks a pivot of the vertex system or only the result; an entry outside
        # the block names its elimination step.  numpy's RuntimeWarnings from the
        # products on the way stay inside the solve.
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, k)
        interior = [(3, i, j) for i, j in itertools.product(range(1, k), repeat=2)]
        vertex = [(3, 0, 0), (3, 0, k - 1), (3, k - 1, k), (3, k, 1), (7, 0, 1)]
        for entry, value in itertools.product(interior + vertex, [np.nan, np.inf, -np.inf]):
            matrices = system.matrices.copy()
            matrices[entry] = value
            broken = ElementSystem(matrices=matrices, loads=system.loads, degree=k)
            with warnings.catch_warnings(record=True) as caught, pytest.raises(SingularMatrixError) as raised:
                warnings.simplefilter("always")
                solve(broken)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if entry in interior:
                assert (raised.value.element, raised.value.pivot_index) == (3, None), (entry, value)
            else:
                assert raised.value.element is None and raised.value.pivot_index is not None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_load_names_its_element(self, k, value):
        # Before, the solve returned non-finite coefficients here, after numpy's
        # RuntimeWarnings from the products on the way.
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, k)
        loads = system.loads.copy()
        loads[3, 1] = value
        broken = ElementSystem(matrices=system.matrices, loads=loads, degree=k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^element 3 has a non-finite load$"):
                solve(broken)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflow_without_a_non_finite_input_raises(self):
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, 2)
        huge = ElementSystem(matrices=system.matrices, loads=system.loads * 1e308, degree=2)
        assert np.isfinite(huge.loads).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            solve(huge)

    def test_boundary_rows_and_columns_are_not_part_of_the_system(self):
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, 3)
        expected = solve(system)
        for entry in [(0, 0, 0), (0, 1, 0), (0, 0, 2), (7, 1, 3), (7, 3, 0)]:
            matrices = system.matrices.copy()
            matrices[entry] = np.nan
            changed = ElementSystem(matrices=matrices, loads=system.loads, degree=3)
            np.testing.assert_array_equal(solve(changed), expected)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_singular_interior_block_names_element(self, k):
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        system = assemble(bvp, mesh, k)
        matrices = system.matrices.copy()
        matrices[5, 1:k, 1:k] = 0.0
        broken = ElementSystem(matrices=matrices, loads=system.loads, degree=k)
        with pytest.raises(SingularMatrixError, match="element 5") as info:
            solve(broken)
        assert info.value.element == 5

    def test_residual_criterion_on_large_layer_system(self):
        bvp = layer_test_problem(1e-6)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=1024, sigma=5.0, epsilon=1e-6))
        system = assemble(bvp, mesh, 4)
        x = solve(system)
        residual = _element_matvec(system, x) - dense_rhs(system)
        norm_a = np.max(np.sum(np.abs(_assembled_band(system)), axis=1))
        bound = 1e-9 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(dense_rhs(system))))
        assert np.max(np.abs(residual)) <= bound


def _indexed_condensed_solve(system):
    """femcore.solve's arithmetic written with index lists and stacked copies."""
    matrices, loads, k = system.matrices, system.loads, system.degree
    vertex, inner = [0, k], slice(1, k)
    a_ii, a_vi = matrices[:, inner, inner], matrices[:, vertex, inner]
    w = np.linalg.solve(a_ii, matrices[:, inner][:, :, vertex])
    schur = matrices[:, vertex][:, :, vertex] - a_vi @ w
    lu = TridiagonalLU(schur[1:-1, 1, 0], schur[:-1, 1, 1] + schur[1:, 0, 0], schur[1:-1, 0, 1])

    def condensed(rhs):
        y = np.linalg.solve(a_ii, rhs[:, 1:-1, None])
        g = rhs[:, vertex] - (a_vi @ y)[:, :, 0]
        v = np.zeros(rhs.shape[0] + 1)
        v[1:-1] = lu.solve(g[:-1, 1] + g[1:, 0])
        ends = np.stack([v[:-1], v[1:]], axis=1)
        interior = (y - w @ ends[:, :, None])[:, :, 0]
        return np.append(np.column_stack([v[:-1], interior]).ravel(), v[-1])

    x = condensed(loads)
    local = np.lib.stride_tricks.sliding_window_view(x, k + 1)[::k]
    residual = loads - (matrices @ local[:, :, None])[:, :, 0]
    return (x + condensed(residual))[1:-1]


class TestCondensedSolve:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    def test_matches_indexed_condensation_bit_for_bit(self, family, k):
        bvp = layer_test_problem(1e-8)
        sigma, c1 = defaults_for(k)
        for n_elem in (8, 16, 64, 256):
            spec = MeshSpec(family=family, N=n_elem, sigma=sigma, epsilon=1e-8, c1=c1)
            system = assemble(bvp, generate(spec), k)
            assert np.array_equal(solve(system), _indexed_condensed_solve(system))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_indexed_condensation_on_random_systems(self, k):
        rng = np.random.default_rng(100 + k)
        bvp = layer_test_problem(0.01)
        for n_elem in (4, 16, 40):
            system = assemble(bvp, _random_mesh(rng, n_elem), k)
            assert np.array_equal(solve(system), _indexed_condensed_solve(system))
        for n_elem in (2, 3, 17, 40):
            shape = (n_elem, k + 1)
            noisy = ElementSystem(
                matrices=rng.normal(size=shape + (k + 1,)), loads=rng.normal(size=shape), degree=k
            )
            assert np.array_equal(solve(noisy), _indexed_condensed_solve(noisy))

    @pytest.mark.parametrize("k", [1, 2])
    def test_degree_one_makes_no_lapack_call(self, monkeypatch, k):
        # No interior-block solve for k = 1 and divisions for k = 2's 1x1 blocks;
        # the vertex system still goes to dgttrf/dgttrs.
        bvp = layer_test_problem(1e-6)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=64, sigma=2.0, epsilon=1e-6))
        system = assemble(bvp, mesh, k)
        x_ref = np.linalg.solve(dense_matrix(system), dense_rhs(system))

        def no_lapack(*args):
            raise AssertionError(f"np.linalg.solve called for k = {k}")

        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        x = solve(system)
        assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))


def _element_matvec(system, x):
    """A @ x as the sum of the element products on the global nodes."""
    k, n_elem = system.degree, system.matrices.shape[0]
    full = np.concatenate([[0.0], x, [0.0]])
    nodes = k * np.arange(n_elem)[:, None] + np.arange(k + 1)[None, :]
    local = np.einsum("nab,nb->na", system.matrices, full[nodes])
    out = np.zeros_like(full)
    np.add.at(out, nodes, local)
    return out[1:-1]


def _assembled_band(system):
    """The global matrix as rows of its 2k+1 diagonals: band[i, k + j - i] = A[i, j]."""
    k, n_elem = system.degree, system.matrices.shape[0]
    a, b = np.indices((k + 1, k + 1))
    rows = k * np.arange(n_elem)[:, None, None] + a[None]
    cols = k * np.arange(n_elem)[:, None, None] + b[None]
    last = k * n_elem
    keep = (rows > 0) & (rows < last) & (cols > 0) & (cols < last)
    band = np.zeros((last - 1, 2 * k + 1))
    np.add.at(band, (rows[keep] - 1, (cols - rows + k)[keep]), system.matrices[keep])
    return band


class TestGalerkinSolve:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.5, 1e-6])
    def test_polynomial_exactness(self, family, k, eps):
        # Any degree-<=k polynomial vanishing at the endpoints is reproduced
        # to round-off (for k=1 the only such polynomial is zero).
        if k == 1:
            bvp = poly_coefficient_problem(eps, Polynomial([0.0]))
            p, dp = Polynomial([0.0]), Polynomial([0.0])
        else:
            bvp, p, dp = manufactured_poly_problem(eps, k)
        mesh = generate(MeshSpec(family=family, N=16, sigma=2.0, epsilon=eps, c1=0.5))
        fem = galerkin_solve(bvp, mesh, k)
        tri = error_norms(fem, writer(p, dp), eps)
        assert tri.e_energy < 1e-10

    def test_energy_error_matches_published_value(self):
        # k=1, N=16, eps=1e-8 on the log-graded mesh: uniform energy error
        # 0.167 in the reference results.
        bvp = layer_test_problem(1e-8)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=16, sigma=2.0, epsilon=1e-8))
        fem = galerkin_solve(bvp, mesh, 1)
        tri = error_norms(fem, bvp.exact.u_and_prime, 1e-8)
        assert tri.e_energy == pytest.approx(0.167, rel=0.02)

    @pytest.mark.parametrize("k, n_elem", [(4, 1024), (2, 2048)])
    def test_roundoff_regime_l2_error(self, k, n_elem):
        # With eps << h the interior blocks have O(h) diagonals, and the
        # interior values magnify the error of the vertex values by up to ~N;
        # without the refinement step these read 1.2e-11 and 8.6e-12.
        eps = 1e-9
        sigma, c1 = defaults_for(k)
        bvp = layer_test_problem(eps)
        mesh = generate(
            MeshSpec(family=MeshFamily.KOPTEVA, N=n_elem, sigma=sigma, epsilon=eps, c1=c1)
        )
        fem = galerkin_solve(bvp, mesh, k)
        assert error_norms(fem, bvp.exact.u_and_prime, eps).e_l2 <= 1e-13

    def test_solver_does_not_import_scipy(self):
        # Importing scipy.linalg costs more start-up time and memory than the
        # whole solve; keep it out of the import graph.
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, layerfem\n"
            "eps = 1e-6\n"
            "spec = layerfem.MeshSpec(family=layerfem.MeshFamily.ROOS, N=64, sigma=3.0, epsilon=eps)\n"
            "layerfem.galerkin_solve(layerfem.layer_test_problem(eps), layerfem.generate(spec), 2)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert run.stdout.strip() == "[]"

    def test_bitwise_deterministic(self):
        bvp = layer_test_problem(1e-7)
        mesh = generate(MeshSpec(family=MeshFamily.KOPTEVA, N=64, sigma=3.0, epsilon=1e-7, c1=3.75))
        first = galerkin_solve(bvp, mesh, 2)
        second = galerkin_solve(bvp, mesh, 2)
        np.testing.assert_array_equal(first.coefficients, second.coefficients)

    def test_coercivity_witness(self):
        # a(v, v) >= 0.5*min(1, gamma)*||v||_eps^2 for random coefficient
        # vectors; the 0.5 absorbs quadrature round-off.
        eps = 1e-6
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=32, sigma=3.0, epsilon=eps))
        k = 2
        system = assemble(bvp, mesh, k)
        dense = dense_matrix(system)
        _, gamma = bvp.sampled_bounds()
        alpha = min(1.0, gamma)
        rng = np.random.default_rng(7)
        zero = writer(np.zeros_like, np.zeros_like)
        for _ in range(100):
            v = rng.uniform(-1.0, 1.0, dense.shape[0])
            coeff = np.zeros(k * mesh.N + 1)
            coeff[1:-1] = v
            poly = PiecewisePolynomial(mesh=mesh, degree=k, coefficients=coeff)
            energy = error_norms(poly, zero, eps).e_energy
            assert v @ dense @ v >= 0.5 * alpha * energy**2


class TestPiecewisePolynomial:
    def _example(self, k=3):
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        coords = global_nodes(mesh, k)
        coeff = np.sin(coords)
        return PiecewisePolynomial(mesh=mesh, degree=k, coefficients=coeff), coords, coeff

    def test_node_evaluation_returns_coefficients(self, k=3):
        poly, coords, coeff = self._example(k)
        np.testing.assert_allclose(poly.evaluate(coords), coeff, rtol=1e-12, atol=1e-15)

    def test_continuity_at_element_boundaries(self):
        poly, _, _ = self._example()
        for x in poly.mesh.nodes[1:-1]:
            left = poly.evaluate(np.nextafter(x, 0.0))
            right = poly.evaluate(x)
            assert left == pytest.approx(right, rel=1e-10)

    def test_scalar_evaluation(self):
        poly, coords, coeff = self._example()
        assert poly.evaluate(float(coords[1])) == pytest.approx(float(coeff[1]), rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        poly, _, _ = self._example()
        x = np.array([0.001, 0.05, 0.4, 0.8])
        step = 1e-8
        fd = (poly.evaluate(x + step) - poly.evaluate(x - step)) / (2 * step)
        np.testing.assert_allclose(derivative(poly, x), fd, rtol=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_derivative_is_the_slope_table_bit_for_bit(self, k):
        # Each element's coefficients times the slope table of shape_tables,
        # over h.  The sum runs term by term in node order, as the evaluator
        # adds: a BLAS product c @ table may add in another order.
        poly, _, _ = self._example(k)
        left, h = poly.mesh.nodes[:-1, None], poly.mesh.steps[:, None]
        x = left + h * np.random.default_rng(k).uniform(0.01, 0.99, (poly.mesh.N, 7))
        t = (x - left) / h
        slopes = shape_tables(k, t.ravel())[1].reshape(k + 1, *t.shape)
        c = poly.element_coefficients()
        expected = sum(c[:, a, None] * slopes[a] for a in range(k + 1)) / h
        np.testing.assert_array_equal(derivative(poly, x), expected)

    def test_rejects_wrong_coefficient_count(self):
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        with pytest.raises(ValueError):
            PiecewisePolynomial(mesh=mesh, degree=2, coefficients=np.zeros(5))

    def test_rejects_degree_zero(self):
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        with pytest.raises(ValueError, match="polynomial degree must lie in 1..10"):
            PiecewisePolynomial(mesh=mesh, degree=0, coefficients=np.zeros(1))

    def test_element_coefficients_shares_boundary_nodes(self):
        poly, _, coeff = self._example(k=2)
        table = poly.element_coefficients()
        assert table.shape == (8, 3)
        np.testing.assert_array_equal(table[0], coeff[0:3])
        np.testing.assert_array_equal(table[1], coeff[2:5])

    @pytest.mark.parametrize("k", range(1, 11))
    def test_element_coefficients_are_the_index_gather(self, k):
        poly, _, coeff = self._example(k)
        table = poly.element_coefficients()
        expected = coeff[k * np.arange(poly.mesh.N)[:, None] + np.arange(k + 1)]
        assert table.shape == expected.shape and np.array_equal(table, expected)
        # A fresh array, as the gather returns: writable, C-contiguous, no view.
        assert table.flags.writeable and table.flags.c_contiguous
        assert not np.shares_memory(table, poly.coefficients)
