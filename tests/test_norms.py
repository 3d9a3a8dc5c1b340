import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from layerfem import (
    MeshFamily,
    MeshSpec,
    PiecewisePolynomial,
    build_bundle,
    defaults_for,
    error_norms,
    galerkin_solve,
    generate,
    lagrange_interp,
    layer_test_problem,
    polynomial_energy_norm,
)
from layerfem.femcore import _element_points, _element_rows, global_nodes
from layerfem.mesh import Mesh1D
from layerfem.norms import (
    _CHUNK_POINTS,
    _MAX_PANELS,
    _MIN_FAR,
    _REL_TOL,
    _ROUNDOFF,
    _START_PANELS,
    _far_norms,
    _level_table,
    _polynomial_tables,
)
from oracles import derivative, exact_far_integrals, exact_reference_tables, whole_mesh_energy_norm


def pair(f, df):
    """The joint (u, u') callable that error_norms takes, from two callables."""
    return lambda x: (f(x), df(x))


def uniform_mesh(N=4):
    return generate(MeshSpec(family=MeshFamily.UNIFORM, N=N, sigma=1.0, epsilon=0.5))


class TestErrorNorms:
    def test_identical_functions_give_zero(self):
        # Interpolating a degree-k polynomial at its own nodes reproduces it,
        # so all three errors sit at round-off.
        mesh = uniform_mesh(8)
        p = lambda x: np.asarray(x, dtype=float) ** 2 - np.asarray(x, dtype=float)
        dp = lambda x: 2.0 * np.asarray(x, dtype=float) - 1.0
        interp = lagrange_interp(p, mesh, 2)
        tri = error_norms(interp, pair(p, dp), epsilon=0.3)
        assert tri.e_inf < 1e-11
        assert tri.e_l2 < 1e-11
        assert tri.e_energy < 1e-11

    def test_closed_form_energy_norm(self):
        # ||x(1-x)||_eps with eps=1: integral of (x-x^2)^2 is 1/30 and of
        # (1-2x)^2 is 1/3.
        v = lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float))
        dv = lambda x: 1.0 - 2.0 * np.asarray(x, dtype=float)
        mesh = uniform_mesh(4)
        zero = PiecewisePolynomial(mesh=mesh, degree=2, coefficients=np.zeros(2 * mesh.N + 1))
        tri = error_norms(zero, pair(v, dv), epsilon=1.0)
        assert tri.e_energy == pytest.approx(math.sqrt(1.0 / 30.0 + 1.0 / 3.0), rel=1e-12)
        assert tri.e_l2 == pytest.approx(math.sqrt(1.0 / 30.0), rel=1e-12)

    def test_published_energy_error_cell(self):
        # k=1, N=32, eps=1e-8 on the log-graded mesh reproduces the reported
        # uniform error 0.0834.
        eps = 1e-8
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=32, sigma=2.0, epsilon=eps))
        fem = galerkin_solve(bvp, mesh, 1)
        tri = error_norms(fem, bvp.exact.u_and_prime, eps)
        assert tri.e_energy == pytest.approx(0.0834, rel=0.02)

    def test_distance_between_two_piecewise_polynomials(self):
        # The exact pair can be another discrete function's
        # evaluators; distance to itself is zero and to a finer interpolant
        # is the interpolation gap.
        mesh = uniform_mesh(8)
        f = lambda x: np.sin(3.0 * np.asarray(x, dtype=float))
        df = lambda x: 3.0 * np.cos(3.0 * np.asarray(x, dtype=float))
        coarse = lagrange_interp(f, mesh, 1)
        fine = lagrange_interp(f, mesh, 3)
        self_tri = error_norms(coarse, pair(coarse.evaluate, lambda x: derivative(coarse, x)), 0.1)
        assert self_tri.e_energy < 1e-14
        gap = error_norms(coarse, pair(fine.evaluate, lambda x: derivative(fine, x)), 0.1)
        direct = error_norms(coarse, pair(f, df), 0.1)
        assert gap.e_energy == pytest.approx(direct.e_energy, rel=1e-3)

    def test_triple_orderings(self):
        eps = 1e-6
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=16, sigma=3.0, epsilon=eps))
        fem = galerkin_solve(bvp, mesh, 2)
        tri = error_norms(fem, bvp.exact.u_and_prime, eps)
        assert 0.0 <= tri.e_l2 <= tri.e_inf
        assert tri.e_energy >= tri.e_l2

    def test_energy_dominates_weighted_seminorm(self):
        eps = 1e-4
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.KOPTEVA, N=16, sigma=2.0, epsilon=eps, c1=2.5))
        fem = galerkin_solve(bvp, mesh, 1)
        tri = error_norms(fem, bvp.exact.u_and_prime, eps)
        seminorm_sq = tri.e_energy**2 - tri.e_l2**2
        assert seminorm_sq >= -1e-15
        assert tri.e_energy >= math.sqrt(max(seminorm_sq, 0.0)) - 1e-15

    def test_adaptive_refinement_matches_fixed_panel_oracle(self):
        # Brute-force composite Gauss with 128 fixed panels per element,
        # written independently of the adaptive path.
        eps = 1e-8
        k = 1
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=32, sigma=2.0, epsilon=eps))
        fem = galerkin_solve(bvp, mesh, k)
        tri = error_norms(fem, bvp.exact.u_and_prime, eps)

        pts, wts = np.polynomial.legendre.leggauss(k + 3)
        pts, wts = 0.5 * (pts + 1.0), 0.5 * wts
        panels = 128
        shift = np.arange(panels)[:, None]
        xi = ((shift + pts[None, :]) / panels).ravel()
        w = np.tile(wts / panels, panels)
        val2 = der2 = 0.0
        for e in range(mesh.N):
            x = mesh.nodes[e] + mesh.steps[e] * xi
            dv = bvp.exact.u(x) - fem.evaluate(x)
            dd = bvp.exact.u_and_prime(x)[1] - derivative(fem, x)
            val2 += mesh.steps[e] * float(np.sum(w * dv * dv))
            der2 += mesh.steps[e] * float(np.sum(w * dd * dd))
        oracle = math.sqrt(eps * der2 + val2)
        assert tri.e_energy == pytest.approx(oracle, rel=1e-9)

    def test_workspace_grows_for_deep_levels(self):
        # A high-frequency sine settles on no element before the cap, so the
        # 16-panel level runs on all elements and needs more room than the
        # 8-panel level over all elements.  With every element at the cap the
        # result is that of a fixed 64-panel rule, written independently here.
        k, omega = 2, 400.0 * math.pi
        mesh = uniform_mesh(16)
        u = lambda x: np.sin(omega * np.asarray(x, dtype=float))
        du = lambda x: omega * np.cos(omega * np.asarray(x, dtype=float))
        fem = lagrange_interp(u, mesh, k)
        exact, rows = counting(pair(u, du))
        tri = error_norms(fem, exact, 1e-3)
        assert rows[(k + 3) * 16] == rows[(k + 3) * _MAX_PANELS] == mesh.N

        pts, wts = np.polynomial.legendre.leggauss(k + 3)
        xi = ((np.arange(_MAX_PANELS)[:, None] + 0.5 * (pts + 1.0)) / _MAX_PANELS).ravel()
        w = np.tile(0.5 * wts / _MAX_PANELS, _MAX_PANELS)
        val2 = der2 = 0.0
        for e in range(mesh.N):
            x = mesh.nodes[e] + mesh.steps[e] * xi
            dv, dd = u(x) - fem.evaluate(x), du(x) - derivative(fem, x)
            val2 += mesh.steps[e] * float(np.sum(w * dv * dv))
            der2 += mesh.steps[e] * float(np.sum(w * dd * dd))
        assert tri.e_l2 == pytest.approx(math.sqrt(val2), rel=1e-12)
        assert tri.e_energy == pytest.approx(math.sqrt(1e-3 * der2 + val2), rel=1e-12)

    def test_layer_problem_inf_error_detected_in_transition_element(self):
        # The max error must not be missed by sampling even though it sits in
        # the element where the layer dies out.
        eps = 1e-9
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=eps))
        fem = galerkin_solve(bvp, mesh, 1)
        tri = error_norms(fem, bvp.exact.u_and_prime, eps)
        assert tri.e_inf > 0.1 * tri.e_energy


def graded_mesh(family, k, n, eps):
    sigma, c1 = defaults_for(k)
    return generate(MeshSpec(family=family, N=n, sigma=sigma, epsilon=eps, c1=c1))


def _galerkin_case(k=2, n=32, eps=1e-6):
    bvp = layer_test_problem(eps)
    return galerkin_solve(bvp, graded_mesh("roos", k, n, eps), k), bvp.exact, eps


def _large_case(kind):
    # roos, k = 2, N = 2048, eps = 1e-8: the 8-panel level has 81,920 points,
    # evaluated in 11 chunks.
    fem, exact, eps = _galerkin_case(k=2, n=2048, eps=1e-8)
    if kind == "interpolant":
        fem = lagrange_interp(exact.u, fem.mesh, 2)
    return fem, exact, eps


class TestExactValuesAreOnlyRead:
    # error_norms works in place on its own arrays; what the exact callable
    # returns may be read-only arrays or arrays the caller keeps.  At N = 2048
    # every level is evaluated in several chunks.
    @pytest.mark.parametrize("n", [32, 2048])
    def test_read_only_arrays(self, n):
        fem, exact, eps = _galerkin_case(n=n)

        def read_only(x):
            values = exact.u_and_prime(x)
            for out in values:
                out.setflags(write=False)
            return values

        fresh = error_norms(fem, exact.u_and_prime, eps)
        assert error_norms(fem, read_only, eps) == fresh

    @pytest.mark.parametrize("n", [32, 2048])
    def test_cached_arrays_are_left_unchanged(self, n):
        # The callable hands back the same arrays for the same points, so a
        # write into them would show in the second call and in the cache.
        fem, exact, eps = _galerkin_case(n=n)
        cache = {}

        def cached(x):
            key = (x.shape, x.tobytes())
            if key not in cache:
                cache[key] = (x.copy(), exact.u_and_prime(x))
            return cache[key][1]

        fresh = error_norms(fem, exact.u_and_prime, eps)
        assert error_norms(fem, cached, eps) == fresh
        assert error_norms(fem, cached, eps) == fresh
        assert len(cache) > 2
        for x, values in cache.values():
            for kept, recomputed in zip(values, exact.u_and_prime(x)):
                np.testing.assert_array_equal(kept, recomputed)

    def test_python_float_constants(self):
        fem, _, eps = _galerkin_case()
        fresh = error_norms(fem, lambda x: (np.full_like(x, 0.25), np.zeros_like(x)), eps)
        assert error_norms(fem, lambda x: (0.25, 0.0), eps) == fresh


def _oracle_norms(fem, exact, epsilon):
    """The level loop of error_norms written plainly: separate value and slope
    passes on fancy-indexed copies, one exact call per level, |.| of the
    integrals in the settle test.  Every `@ w` runs over the rows of the same
    elements in the same order as in error_norms, so the two agree bit for bit.
    """
    mesh, k = fem.mesh, fem.degree
    h, left, coeff = mesh.steps, mesh.nodes[:-1], fem.element_coefficients()
    peaks = [np.max(np.abs(exact(global_nodes(mesh, k))[0] - fem.coefficients))]

    def integrals(u, fem_values, abs_values, w, he):
        diff = u - fem_values
        delta = (np.abs(u) + abs_values) * _ROUNDOFF
        noise = he * (((2.0 * np.abs(diff) + delta) * delta) @ w)
        return he * ((diff * diff) @ w), noise, np.max(np.abs(diff))

    def level(elems, panels):
        table, w, _, shape, slope, abs_shape, abs_slope = _level_table(k, panels)
        pts = table[0]
        he, c = h[elems], coeff[elems]
        x = he[:, None] * pts + left[elems, None]
        u, du = (np.broadcast_to(v, x.shape) for v in exact(x))
        val2, val_noise, peak = integrals(u, c @ shape, np.abs(c) @ abs_shape, w, he)
        peaks.append(peak)
        slope_fem = (c @ slope) / he[:, None]
        slope_abs = (np.abs(c) @ abs_slope) / he[:, None]
        der2, der_noise = integrals(du, slope_fem, slope_abs, w, he)[:2]
        return val2, val_noise, der2, der_noise

    def settled(new, old, noise):
        return np.abs(new - old) <= _REL_TOL * np.maximum(np.abs(new), np.abs(old)) + noise

    active = np.arange(mesh.N)
    val2, val_noise, der2, der_noise = level(active, _START_PANELS)
    panels = 2 * _START_PANELS
    while active.size and panels <= _MAX_PANELS:
        new_v, noise_v, new_d, noise_d = level(active, panels)
        done = settled(new_v, val2[active], noise_v + val_noise[active]) & settled(
            new_d, der2[active], noise_d + der_noise[active]
        )
        val2[active], val_noise[active] = new_v, noise_v
        der2[active], der_noise[active] = new_d, noise_d
        active = active[~done]
        panels *= 2
    val2, der2 = float(np.sum(val2)), float(np.sum(der2))
    return float(np.max(peaks)), math.sqrt(val2), math.sqrt(epsilon * der2 + val2)


# Both families and every degree, plus roos, k = 2 at N = 64, eps = 1e-6
# (all five levels run) and at N = 2048 (every level is evaluated in chunks).
_ORACLE_CASES = [
    (family, k, n, eps)
    for family in ("roos", "kopteva")
    for k in (1, 2, 3, 4)
    for n, eps in ((16, 1e-9), (128, 1e-4))
] + [("roos", 2, 64, 1e-6), ("roos", 2, 2048, 1e-8)]


@pytest.mark.parametrize("kind", ["galerkin", "interpolant"])
@pytest.mark.parametrize("family,k,n,eps", _ORACLE_CASES)
def test_error_norms_match_the_plain_level_loop_bit_for_bit(family, k, n, eps, kind):
    bvp = layer_test_problem(eps)
    mesh = graded_mesh(family, k, n, eps)
    fem = galerkin_solve(bvp, mesh, k) if kind == "galerkin" else lagrange_interp(bvp.exact.u, mesh, k)
    tri = error_norms(fem, bvp.exact.u_and_prime, eps)
    assert (tri.e_inf, tri.e_l2, tri.e_energy) == _oracle_norms(fem, bvp.exact.u_and_prime, eps)


def test_error_norms_match_the_plain_level_loop_for_constants_and_deep_levels():
    # A constant given as Python floats; and a sine that refines every
    # element to the cap, so the level buffer grows.
    fem, _, eps = _galerkin_case()
    constant = lambda x: (0.25, 0.0)
    tri = error_norms(fem, constant, eps)
    assert (tri.e_inf, tri.e_l2, tri.e_energy) == _oracle_norms(fem, constant, eps)
    omega = 400.0 * math.pi
    u = lambda x: np.sin(omega * np.asarray(x, dtype=float))
    du = lambda x: omega * np.cos(omega * np.asarray(x, dtype=float))
    fem = lagrange_interp(u, uniform_mesh(16), 2)
    tri = error_norms(fem, pair(u, du), 1e-3)
    assert (tri.e_inf, tri.e_l2, tri.e_energy) == _oracle_norms(fem, pair(u, du), 1e-3)


def test_one_exact_call_per_level():
    # At roos, k = 2, N = 64, eps = 1e-6 some elements refine to the 64-panel
    # cap, so all five levels run.  u and u' are evaluated in one call per
    # level per chunk (every level here fits in one chunk), and one more call
    # covers the global nodes.  The summed point count is the norms.evals
    # count of perfbench's trace, 4529 for this case since the count was
    # introduced.
    fem, exact, eps = _galerkin_case(k=2, n=64, eps=1e-6)
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return exact.u_and_prime(x)

    error_norms(fem, counted, eps)
    assert shapes[0] == (2 * 64 + 1,)
    assert [shape[1] for shape in shapes[1:]] == [(2 + 3) * p for p in (4, 8, 16, 32, 64)]
    assert sum(math.prod(shape) for shape in shapes) == 4529


def test_exact_calls_see_at_most_a_chunk():
    # All elements settle at the first comparison, so the global nodes and
    # two levels are evaluated, the levels in several chunks.  The summed
    # point count is the norms.evals count of perfbench's trace for this
    # case, 126977 as it was before the levels were chunked.
    fem, exact, eps = _large_case("galerkin")
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return exact.u_and_prime(x)

    error_norms(fem, counted, eps)
    assert max(sizes) <= _CHUNK_POINTS
    assert len(sizes) > 3
    assert sum(sizes) == 126977


@pytest.mark.parametrize("kind", ["galerkin", "interpolant"])
def test_transient_memory_is_a_few_level_arrays(kind):
    # One array of the 8-panel level holds N*8(k+3) doubles; every element
    # takes part in that level.  The norms must not keep many such arrays
    # alive at once.
    fem, exact, eps = _large_case(kind)
    error_norms(fem, exact.u_and_prime, eps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        error_norms(fem, exact.u_and_prime, eps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * fem.mesh.N * 8 * (2 + 3) * 8


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
@pytest.mark.parametrize("kind", ["galerkin", "interpolant"])
def test_norm_levels_do_not_refault_memory(kind):
    # Level arrays allocated and freed afresh let the C heap hand their pages
    # back to the OS, and the next level faults them in again: about 600 to
    # 1,100 minor faults per call here.  The first calls may fault while the
    # allocator's thresholds settle.
    import resource

    fem, exact, eps = _large_case(kind)
    for _ in range(2):
        error_norms(fem, exact.u_and_prime, eps)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        error_norms(fem, exact.u_and_prime, eps)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5 * 50


@pytest.mark.parametrize("family", ["roos", "kopteva"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_max_norm_close_to_dense_sampling(family, k):
    # e_inf comes from the quadrature points and the element nodes only; a
    # 401-point-per-element sample of the same error may exceed it by 0.5%.
    local = np.linspace(0.0, 1.0, 401)
    for n, eps in ((16, 1e-4), (16, 1e-8), (128, 1e-4), (128, 1e-8)):
        bvp = layer_test_problem(eps)
        mesh = graded_mesh(family, k, n, eps)
        x = (mesh.nodes[:-1, None] + mesh.steps[:, None] * local).ravel()
        for fem in (lagrange_interp(bvp.exact.u, mesh, k), galerkin_solve(bvp, mesh, k)):
            dense = np.max(np.abs(bvp.exact.u(x) - fem.evaluate(x)))
            e_inf = error_norms(fem, bvp.exact.u_and_prime, eps).e_inf
            assert dense * (1.0 - 5e-3) <= e_inf <= dense * (1.0 + 5e-3)


def _far_rounding_bound(rows, d, exact_table, weights):
    """Bound on |float - exact| of the far sum of weights_i * d_i^T A d_i, from the
    exact node values d and the exact table A.  The float d differs from d by at most
    delta = 2u(1 + 2h + |d|) per node: u(3h + |x|) from the node x_i + t_j*h_i, u|1 - x|
    from 1 - x and u|d| from the difference.  So with e = |d| + delta the quadratic
    form moves by at most 2 delta^T |A| e; the float reference table, within
    16u max|A| of A in every entry (8.2u at most for k <= 4), by that times (sum e)^2;
    and evaluating and summing the forms by 8 ulps of the summed sizes e^T |A| e."""
    u = 2.0**-53
    delta = 2.0 * u * (1.0 + 2.0 * rows[:, :1] + np.abs(d))
    e = np.abs(d) + delta
    size = np.abs(exact_table.astype(float))
    form = lambda a, b: np.einsum("ia,ab,ib->i", a, size, b)
    table = 16.0 * u * size.max() * e.sum(axis=1) ** 2
    return weights @ (2.0 * form(delta, e) + table + 8.0 * u * form(e, e))


@pytest.mark.parametrize("family", ["roos", "kopteva"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("eps", [1e-4, 1e-9])
def test_far_part_is_the_exact_rational_integral_to_rounding(family, k, n, eps):
    # Past reach u is 1 - x exactly, so on the far elements the integrals of
    # (u - fem)^2 and (u' - fem')^2 are rational in the float data: the oracle
    # computes them exactly, and the float far part must lie within the rounding
    # bound of _far_rounding_bound.  Galerkin errors there are well above
    # round-off; the interpolant's are round-off, since u^I reproduces 1 - x.
    bvp = layer_test_problem(eps)
    mesh = graded_mesh(family, k, n, eps)
    reach, poly = bvp.exact.far_field
    m = int(np.searchsorted(mesh.nodes, reach))   # the first element whose left node is >= reach
    assert 0 < m < n
    rows = _element_rows(mesh)[m:]
    mass, stiff = exact_reference_tables(k)
    nodes = global_nodes(mesh, k)[k * m :]
    for fem in (galerkin_solve(bvp, mesh, k), build_bundle(bvp.exact, mesh, k).u_interp):
        coeff, values = fem.element_coefficients()[m:], fem.coefficients[k * m :]
        peak, _, val2, der2 = _far_norms(rows, nodes, values, poly)
        assert peak == np.abs(bvp.exact.u(nodes) - values).max()   # exact - fem at the nodes
        exact_val2, exact_der2, d = exact_far_integrals(rows, coeff)
        bound = _far_rounding_bound(rows, d, mass, rows[:, 0])
        assert abs(Fraction(float(val2)) - exact_val2) <= bound
        bound = _far_rounding_bound(rows, d, stiff, 1.0 / rows[:, 0])
        assert abs(Fraction(float(der2)) - exact_der2) <= bound


def test_exact_reference_tables_are_the_known_matrices_and_the_float_ones_to_rounding():
    mass, stiff = exact_reference_tables(1)
    assert mass.tolist() == [[Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 6), Fraction(1, 3)]]
    assert stiff.tolist() == [[1, -1], [-1, 1]]
    for k in (1, 2, 3, 4):
        for table, exact_table in zip(_polynomial_tables(k)[0], exact_reference_tables(k)):
            gap = [abs(Fraction(a) - b) for a, b in zip(table, exact_table.flat)]
            assert max(gap) <= 16 * Fraction(2.0**-53) * max(map(abs, exact_table.flat))
        mass, stiff = exact_reference_tables(k)
        assert sum(mass.flat) == 1 and sum(stiff.flat) == 0


@pytest.mark.parametrize("kind", ["galerkin", "interpolant"])
def test_no_exact_call_sees_a_far_element(kind):
    # Past reach the norms need no exact call: the node pass takes the k*m nodes
    # of the elements left of the first one whose left node is >= reach, and
    # every level only those elements.  The max norm keeps its bits, and the
    # energy norm moves by round-off only.
    fem, exact, eps = _galerkin_case(k=2, n=256, eps=1e-6)
    if kind == "interpolant":
        fem = lagrange_interp(exact.u, fem.mesh, 2)
    nodes = fem.mesh.nodes
    m = int(np.searchsorted(nodes, exact.far_field[0]))
    assert 0 < m <= 256 - _MIN_FAR
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return exact.u_and_prime(x)

    tri = error_norms(fem, counted, eps, far_field=exact.far_field)
    np.testing.assert_array_equal(calls[0], global_nodes(fem.mesh, 2)[: 2 * m])   # the near nodes
    assert calls[1].shape == (m, (2 + 3) * _START_PANELS)
    assert all(x.ndim == 2 for x in calls[1:])
    assert all(x.max() < nodes[m] for x in calls)
    plain = error_norms(fem, exact.u_and_prime, eps)
    assert tri.e_inf == plain.e_inf
    assert tri.e_energy == pytest.approx(plain.e_energy, rel=1e-8)


@pytest.mark.parametrize("k", range(1, 11))
def test_far_nodes_are_the_global_nodes_bit_for_bit(k):
    # Past reach u = poly bit for bit at the same x, so the far nodes' part of
    # e_inf is |poly - fem| at global_nodes' own coordinates: x_i + (j/k)*h_i with
    # j/k correctly rounded (np.linspace's j*(1/k) differs at k = 5, 6, 7, 9 and
    # 10), and the mesh's own last node.
    eps = 1e-8
    bvp = layer_test_problem(eps)
    mesh = graded_mesh("roos", k, 256, eps)
    m = int(np.searchsorted(mesh.nodes, bvp.exact.far_field[0]))
    assert 256 - m >= _MIN_FAR
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return bvp.exact.far_field[1](x)

    fem = lagrange_interp(bvp.exact.u, mesh, k)
    error_norms(fem, bvp.exact.u_and_prime, eps, far_field=(bvp.exact.far_field[0], counted))
    assert np.isin(global_nodes(mesh, k)[k * m :], calls[0]).all()


def _far_case(k, reach, steps, seed, scale):
    """A mesh whose elements from 1 on lie past ``reach`` with relative ``steps``, and
    nodal values of poly there perturbed by up to ``scale``: rows, nodes, values, coeff."""
    rng = np.random.default_rng(seed)
    nodes = np.concatenate([[0.0, reach], reach + (1.0 - reach) * np.cumsum(steps) / np.sum(steps)])
    nodes[-1] = 1.0
    spec = MeshSpec(family=MeshFamily.UNIFORM, N=nodes.size - 1, sigma=1.0, epsilon=0.5)
    mesh = Mesh1D(nodes=nodes, spec=spec)
    far = global_nodes(mesh, k)[k:]
    poly = layer_test_problem(1e-6).exact.far_field[1]
    values = poly(far) + scale * rng.uniform(-1.0, 1.0, far.size)
    coeff = values[k * np.arange(mesh.N - 1)[:, None] + np.arange(k + 1)]
    return _element_rows(mesh)[1:], far, values, coeff


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 10),
    gap=st.floats(-4.0, -1e-9),   # reach = 1 - 10^gap, up to 0.9999
    steps=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=40).filter(lambda s: len(s) % 2),
    seed=st.integers(0, 2**32 - 1),
    scale=st.one_of(st.just(0.0), st.floats(1e-18, 1e-2)),
)
def test_far_samples_lie_within_the_bound(k, gap, steps, seed, scale):
    # Every 4- and 8-panel sample |poly - fem| that the levels would compute on a
    # far element is at most _far_norms' bound B, also where poly - fem is round-off
    # and poly is small beside its slope (reach near 1).
    rows, nodes, values, coeff = _far_case(k, 1.0 - 10.0**gap, steps, seed, scale)
    poly = layer_test_problem(1e-6).exact.far_field[1]
    peak, bound, _, _ = _far_norms(rows, nodes, values, poly)
    assert peak == np.abs(poly(nodes) - values).max()
    for panels in (_START_PANELS, 2 * _START_PANELS):
        table, _, _, shape = _level_table(k, panels)[:4]
        samples = np.abs(poly(_element_points(rows, table)) - coeff @ shape)
        assert samples.max() <= bound


@pytest.mark.parametrize("kind", ["galerkin", "interpolant"])
def test_a_far_maximum_is_sampled_with_the_bits_of_the_levels(kind):
    # Two interior coefficients of a far element moved by +-delta put the max norm
    # between that element's nodes: the bound lets the far part take its 4- and
    # 8-panel samples, with the bits the levels give them.
    fem, exact, eps = _galerkin_case(k=3, n=256, eps=1e-6)
    if kind == "interpolant":
        fem = lagrange_interp(exact.u, fem.mesh, 3)
    reach, poly = exact.far_field
    e = int(np.searchsorted(fem.mesh.nodes, reach)) + 40
    delta = 4.0 * error_norms(fem, exact.u_and_prime, eps).e_inf
    coeff = fem.coefficients.copy()
    coeff[3 * e + 1] += delta
    coeff[3 * e + 2] -= delta
    fem = PiecewisePolynomial(mesh=fem.mesh, degree=3, coefficients=coeff)
    calls = []

    def counted(x):
        calls.append(np.ndim(x))
        return poly(x)

    tri = error_norms(fem, exact.u_and_prime, eps, far_field=(reach, counted))
    assert calls == [1, 2, 2]   # the far nodes, then the samples of both levels
    assert tri.e_inf == error_norms(fem, exact.u_and_prime, eps).e_inf
    assert tri.e_inf > np.abs(exact.u(global_nodes(fem.mesh, 3)) - coeff).max()


@pytest.mark.parametrize("n", [8, 64])
def test_fewer_far_elements_than_pay_run_the_levels(n):
    # With fewer than _MIN_FAR far elements every element runs the levels,
    # with the bits of a call without the far field.
    fem, exact, eps = _galerkin_case(k=2, n=n, eps=1e-6)
    assert n - np.searchsorted(fem.mesh.nodes, exact.far_field[0]) < _MIN_FAR
    assert error_norms(fem, exact.u_and_prime, eps, far_field=exact.far_field) == error_norms(
        fem, exact.u_and_prime, eps)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


class TestPolynomialEnergyNorm:
    @pytest.mark.parametrize("family", ["roos", "kopteva"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("eps", [1e-4, 1e-9])
    def test_layer_correction_matches_adaptive_quadrature(self, family, k, n, eps):
        bvp = layer_test_problem(eps)
        correction = build_bundle(bvp.exact, graded_mesh(family, k, n, eps), k).correction
        oracle = error_norms(correction, pair(_zero, _zero), eps).e_energy
        assert polynomial_energy_norm(correction, eps) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_element_matches_adaptive_quadrature(self, k):
        fem = lagrange_interp(lambda x: np.sin(3.0 * x), graded_mesh("kopteva", k, 32, 1e-6), k)
        oracle = error_norms(fem, pair(_zero, _zero), 1e-6).e_energy
        assert polynomial_energy_norm(fem, 1e-6) == pytest.approx(oracle, rel=1e-12)

    def test_zero_function(self):
        mesh = uniform_mesh(4)
        zero = PiecewisePolynomial(mesh=mesh, degree=3, coefficients=np.zeros(13))
        assert polynomial_energy_norm(zero, 0.1) == 0.0

    @staticmethod
    def _assert_matches_the_whole_mesh_scan(fem, eps):
        got, expected = polynomial_energy_norm(fem, eps), whole_mesh_energy_norm(fem, eps)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["uniform", "roos", "kopteva"]),
        k=st.integers(1, 10),
        N=st.integers(2, 32).map(lambda n: 2 * n),
        eps=st.sampled_from([1e-2, 1e-6, 1e-9]),
        data=st.data(),
    )
    def test_matches_the_whole_mesh_scan_bit_for_bit(self, family, k, N, eps, data):
        # Nonzeros anywhere, both boundary coefficients 0 and k*N included;
        # -0.0 is a zero and NaN a nonzero in both.
        mesh = generate(MeshSpec(family=family, N=N, sigma=2.0, epsilon=eps, c1=1.0))
        values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, math.nan]))
        entries = data.draw(st.dictionaries(st.integers(0, k * N), values, max_size=6))
        coeff = np.zeros(k * N + 1)
        coeff[list(entries)] = list(entries.values())
        fem = PiecewisePolynomial(mesh=mesh, degree=k, coefficients=coeff)
        self._assert_matches_the_whole_mesh_scan(fem, eps)

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize(
        "entries",
        [{}, {0: -0.0}, {0: 1.5}, {-1: 1.5}, {0: 2.0, -1: -3.0}, {0: math.nan}, {-1: math.nan}],
        ids=["zero", "minus-zero", "first", "last", "both-ends", "nan-first", "nan-last"],
    )
    def test_boundary_and_special_values_match_the_whole_mesh_scan(self, k, entries):
        coeff = np.zeros(k * 8 + 1)
        coeff[list(entries)] = list(entries.values())
        mesh = graded_mesh("roos", k, 8, 1e-6)
        fem = PiecewisePolynomial(mesh=mesh, degree=k, coefficients=coeff)
        self._assert_matches_the_whole_mesh_scan(fem, 1e-6)


def counting(fn):
    """Wrap ``fn`` to count, per number of points on an element, how many
    element rows it was evaluated on."""
    rows = Counter()

    def counted(x):
        x = np.asarray(x)
        rows[x.shape[-1]] += x.shape[0] if x.ndim == 2 else 1
        return fn(x)

    return counted, rows


class TestQuadratureTermination:
    def test_round_off_errors_stop_short_of_the_cap(self):
        # At k = 4, N = 1024 the Galerkin error sits near round-off on most
        # elements; a relative tolerance alone sends every element to the cap.
        eps, k, n = 1e-8, 4, 1024
        bvp = layer_test_problem(eps)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=n, sigma=k + 1.0, epsilon=eps))
        fem = galerkin_solve(bvp, mesh, k)
        exact, rows = counting(bvp.exact.u_and_prime)
        error_norms(fem, exact, eps)
        capped = rows[(k + 3) * _MAX_PANELS]
        assert capped < 0.01 * n

    @pytest.mark.parametrize("family", ["roos", "kopteva"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_only_the_transition_element_reaches_the_cap(self, family, k):
        # Element N/2 - 1, where the layer dies out (h/eps of 5 to 100),
        # is the one element that refines to 64 panels; on the full study
        # grid the only others are 4 last elements at N = 2048.  At N = 16,
        # eps = 1e-9 it reaches the cap for every family, degree and kind.
        for n in (16, 256):
            for eps in (1e-4, 1e-9):
                bvp = layer_test_problem(eps)
                mesh = graded_mesh(family, k, n, eps)
                for fem in (galerkin_solve(bvp, mesh, k), lagrange_interp(bvp.exact.u, mesh, k)):
                    firsts = []

                    def counted(x):
                        if np.ndim(x) == 2 and x.shape[1] == (k + 3) * _MAX_PANELS:
                            firsts.extend(x[:, 0])
                        return bvp.exact.u_and_prime(x)

                    error_norms(fem, counted, eps)
                    capped = set((np.searchsorted(mesh.nodes, firsts) - 1).tolist())
                    assert capped <= {n // 2 - 1}
                    if (n, eps) == (16, 1e-9):
                        assert capped == {n // 2 - 1}

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        scale=st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
        roots=st.lists(
            st.floats(-1.0, 2.0, allow_nan=False, allow_subnormal=False), max_size=4
        ),
        family=st.sampled_from([MeshFamily.UNIFORM, MeshFamily.ROOS, MeshFamily.KOPTEVA]),
        n=st.integers(2, 32).map(lambda m: 2 * m),
        log_eps=st.floats(-9.0, -3.0),
    )
    def test_polynomial_interpolant_settles_at_first_comparison(
        self, k, scale, roots, family, n, log_eps
    ):
        # A polynomial of degree <= k is reproduced by its interpolant, so the
        # error is pure round-off and no element may refine past the first
        # comparison (START -> 2*START panels).  The round-off bound assumes an
        # exact accurate to a few ulps of its own size.  The product form
        # scale*prod(x - r) is; Horner's rule on power-basis coefficients is
        # not near a multiple root (see the test below).
        roots = roots[:k]
        eps = 10.0**log_eps

        def p(x):
            x = np.asarray(x, dtype=float)
            return scale * math.prod((x - r for r in roots), start=np.ones_like(x))

        def dp(x):
            x = np.asarray(x, dtype=float)
            partial = (
                math.prod((x - r for j, r in enumerate(roots) if j != i), start=np.ones_like(x))
                for i in range(len(roots))
            )
            return scale * sum(partial, start=np.zeros_like(x))

        sigma, c1 = defaults_for(k)
        mesh = generate(MeshSpec(family=family, N=n, sigma=sigma, epsilon=eps, c1=c1))
        exact, rows = counting(pair(p, dp))
        error_norms(lagrange_interp(p, mesh, k), exact, 1.0)
        assert rows[(k + 3) * 4 * _START_PANELS] == 0

    @pytest.mark.parametrize("n", [10, 20])
    def test_horner_round_off_refines_the_last_element(self, n):
        # 0.5(1 - x)^2 from power-basis coefficients: near the double root at
        # x = 1 Horner's rule errs by ~2 ulps of 1 while the round-off bound
        # there is ~0.1 ulp, so the last element goes on to 16 panels.  The
        # result is still round-off.
        k = 2
        p = Polynomial([0.5, -1.0, 0.5])
        dp = p.deriv()
        mesh = uniform_mesh(n)
        firsts = {}

        def exact(x):
            if np.ndim(x) == 2:
                firsts.setdefault(x.shape[1] // (k + 3), []).extend(x[:, 0])
            return p(x), dp(x)

        tri = error_norms(lagrange_interp(p, mesh, k), exact, 1.0)
        elements = np.searchsorted(mesh.nodes, firsts.get(4 * _START_PANELS, [])) - 1
        assert elements.tolist() == [n - 1]
        assert 8 * _START_PANELS not in firsts
        assert tri.e_energy <= 1e-14


# (family, k, N, eps) -> e_energy and e_l2 as computed with the quadrature
# that stopped at 1e-10 relative alone (None where that value was below
# 1e-8, i.e. round-off).  The round-off floor must not move values above
# noise.
_PINNED = [
    ("roos", 1, 64, 1e-6, 0.04167379981537657, 1.0395779154293394e-06),
    ("kopteva", 2, 16, 1e-8, 0.02568133209277093, 3.500105947728022e-05),
    ("roos", 3, 1024, 1e-6, 1.5198052401780855e-08, None),
    ("kopteva", 3, 8, 1e-9, 0.030107302757269094, 7.764692495837464e-05),
    ("roos", 4, 32, 1e-4, 3.881173292823487e-05, 1.0719874518932016e-08),
]


@pytest.mark.parametrize("family,k,n,eps,e_energy,e_l2", _PINNED)
def test_round_off_floor_keeps_values_above_noise(family, k, n, eps, e_energy, e_l2):
    bvp = layer_test_problem(eps)
    spec = MeshSpec(
        family=MeshFamily(family), N=n, sigma=k + 1.0, epsilon=eps, c1=5.0 * (k + 1) / 4.0
    )
    fem = galerkin_solve(bvp, generate(spec), k)
    tri = error_norms(fem, bvp.exact.u_and_prime, eps)
    assert tri.e_energy == pytest.approx(e_energy, rel=1e-6)
    if e_l2 is not None:
        assert tri.e_l2 == pytest.approx(e_l2, rel=1e-6)
