import numpy as np
import pytest

from layerfem import (
    ExactSolution,
    MeshFamily,
    MeshSpec,
    PiecewisePolynomial,
    build_bundle,
    error_norms,
    generate,
    global_nodes,
    lagrange_interp,
    layer_test_problem,
)
from oracles import fitted_rate


def layer_mesh(N=16, sigma=2.0, eps=1e-6, family=MeshFamily.ROOS):
    return generate(MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=2.5))


class TestLagrangeInterp:
    def test_reproduces_cubic_exactly(self):
        mesh = layer_mesh()
        interp = lagrange_interp(lambda x: x**3, mesh, 3)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, 100)
        np.testing.assert_allclose(interp.evaluate(pts), pts**3, rtol=1e-12, atol=1e-12)

    def test_coefficients_are_nodal_values(self):
        mesh = layer_mesh(N=8)
        fn = lambda x: np.cos(3.0 * x)
        interp = lagrange_interp(fn, mesh, 2)
        np.testing.assert_array_equal(interp.coefficients, fn(global_nodes(mesh, 2)))

    def test_sine_converges_second_order_with_hats(self):
        errors = []
        for n_intervals in (16, 32, 64, 128):
            mesh = generate(
                MeshSpec(family=MeshFamily.UNIFORM, N=n_intervals, sigma=1.0, epsilon=0.5)
            )
            interp = lagrange_interp(lambda x: np.sin(np.pi * x), mesh, 1)
            tri = error_norms(
                interp,
                lambda x: (np.sin(np.pi * x), np.pi * np.cos(np.pi * x)),
                epsilon=0.5,
            )
            errors.append(tri.e_inf)
        assert fitted_rate(errors) == pytest.approx(2.0, abs=0.1)

    def test_layer_solution_superconvergent_max_norm(self):
        # max-norm of u - u^I decays like N^-(k+1) on the graded mesh.
        k, eps = 2, 1e-7
        bvp = layer_test_problem(eps)
        errors = []
        for n_intervals in (64, 128, 256, 512):
            mesh = layer_mesh(N=n_intervals, sigma=k + 1.0, eps=eps)
            interp = lagrange_interp(bvp.exact.u, mesh, k)
            tri = error_norms(interp, bvp.exact.u_and_prime, eps)
            errors.append(tri.e_inf)
        assert fitted_rate(errors) == pytest.approx(k + 1.0, abs=0.25)


class TestBundle:
    def test_sparse_correction_single_node_for_hats(self):
        # k=1, N=16: the correction has exactly one nonzero entry, the layer
        # value at global node 7 (= node N/2 - 1).
        eps = 1e-6
        bvp = layer_test_problem(eps)
        mesh = layer_mesh(N=16, eps=eps)
        bundle = build_bundle(bvp.exact, mesh, 1)
        corr = bundle.correction.coefficients
        nonzero = np.nonzero(corr)[0]
        np.testing.assert_array_equal(nonzero, [7])
        assert corr[7] == float(bvp.exact.E(mesh.nodes[7]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_correction_support(self, k):
        eps = 1e-6
        bvp = layer_test_problem(eps)
        mesh = layer_mesh(N=16, sigma=k + 1.0, eps=eps)
        bundle = build_bundle(bvp.exact, mesh, k)
        corr = bundle.correction.coefficients
        first = (mesh.N // 2 - 1) * k
        allowed = set(range(first, first + k))
        assert set(np.nonzero(corr)[0]) <= allowed

    @pytest.mark.parametrize("k", [1, 3])
    def test_coefficient_identities(self, k):
        eps = 1e-6
        bvp = layer_test_problem(eps)
        mesh = layer_mesh(N=16, sigma=k + 1.0, eps=eps)
        bundle = build_bundle(bvp.exact, mesh, k)
        np.testing.assert_array_equal(
            bundle.corrected_interp.coefficients,
            bundle.u_interp.coefficients - bundle.correction.coefficients,
        )
        # The correction is the layer interpolant E^I on its support.
        layer = lagrange_interp(bvp.exact.E, mesh, k).coefficients
        support = np.nonzero(bundle.correction.coefficients)[0]
        np.testing.assert_array_equal(bundle.correction.coefficients[support], layer[support])
        # Split form: corrected interpolant equals S^I plus the corrected
        # layer interpolant E^I - correction, up to the S+E round-off.
        recombined = lagrange_interp(bvp.exact.S, mesh, k).coefficients + (
            layer - bundle.correction.coefficients
        )
        np.testing.assert_allclose(
            bundle.corrected_interp.coefficients, recombined, rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corrected_layer_matches_plain_away_from_transition(self, k):
        # Identical on [x_0, x_{N/2-2}] and [x_{N/2}, x_N]; checked at 50
        # points per element.
        eps = 1e-6
        bvp = layer_test_problem(eps)
        mesh = layer_mesh(N=16, sigma=k + 1.0, eps=eps)
        bundle = build_bundle(bvp.exact, mesh, k)
        layer = lagrange_interp(bvp.exact.E, mesh, k)
        corrected_layer = PiecewisePolynomial(
            mesh=mesh, degree=k, coefficients=layer.coefficients - bundle.correction.coefficients
        )
        m = mesh.N // 2
        local = np.linspace(0.0, 1.0, 50)
        for e in list(range(0, m - 2)) + list(range(m, mesh.N)):
            x = mesh.nodes[e] + mesh.steps[e] * local
            np.testing.assert_array_equal(corrected_layer.evaluate(x), layer.evaluate(x))

    def test_corrected_interp_stays_in_fe_space(self):
        eps = 1e-7
        bvp = layer_test_problem(eps)
        mesh = layer_mesh(N=8, eps=eps)
        bundle = build_bundle(bvp.exact, mesh, 2)
        poly = bundle.corrected_interp
        assert poly.coefficients[0] == 0.0
        assert poly.coefficients[-1] == 0.0
        # C0: value at interior mesh nodes equals the shared coefficient.
        for i, x in enumerate(mesh.nodes[1:-1], start=1):
            assert poly.evaluate(float(x)) == pytest.approx(
                poly.coefficients[2 * i], rel=1e-12, abs=1e-15
            )

    def test_zero_layer_part_gives_zero_correction(self):
        arr = lambda x: np.asarray(x, dtype=float)
        exact = ExactSolution(
            u_and_prime=lambda x: (arr(x) * (1.0 - arr(x)), 1.0 - 2.0 * arr(x)),
            S=lambda x: arr(x) * (1.0 - arr(x)),
            E=lambda x: np.zeros_like(arr(x)),
        )
        mesh = layer_mesh(N=8)
        bundle = build_bundle(exact, mesh, 2)
        np.testing.assert_array_equal(bundle.correction.coefficients, 0.0)
        np.testing.assert_array_equal(
            bundle.corrected_interp.coefficients, bundle.u_interp.coefficients
        )

    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_correction_nodes_are_the_global_nodes_bit_for_bit(self, family, k):
        # With E(x) = x the correction holds the k correction nodes themselves.
        arr = lambda x: np.asarray(x, dtype=float)
        exact = ExactSolution(
            u_and_prime=lambda x: (arr(x), np.ones_like(arr(x))),
            S=lambda x: np.zeros_like(arr(x)),
            E=arr,
        )
        mesh = layer_mesh(N=64, sigma=k + 1.0, family=family)
        expected = np.zeros(k * mesh.N + 1)
        s = slice((mesh.N // 2 - 1) * k, mesh.N // 2 * k)
        expected[s] = global_nodes(mesh, k)[s]
        correction = build_bundle(exact, mesh, k).correction.coefficients
        assert np.array_equal(correction, expected)

    def test_rejects_missing_exact(self):
        mesh = layer_mesh(N=8)
        with pytest.raises(ValueError, match="exact"):
            build_bundle(None, mesh, 2)


class TestMeasuredRates:
    def test_correction_energy_decays_fast(self):
        # ||correction||_eps <= C*N^-sigma; the layer here decays twice as
        # fast as the generic bound, so the measured rate clears sigma easily.
        k, eps = 2, 1e-7
        sigma = k + 1.0
        bvp = layer_test_problem(eps)
        zero = lambda x: (np.zeros_like(x), np.zeros_like(x))
        errors = []
        for n_intervals in (64, 128, 256, 512):
            mesh = layer_mesh(N=n_intervals, sigma=sigma, eps=eps)
            bundle = build_bundle(bvp.exact, mesh, k)
            errors.append(error_norms(bundle.correction, zero, eps).e_energy)
        assert fitted_rate(errors) >= sigma - 0.25

    def test_plain_interpolant_energy_rate(self):
        k, eps = 3, 1e-7
        bvp = layer_test_problem(eps)
        errors = []
        for n_intervals in (64, 128, 256, 512):
            mesh = layer_mesh(N=n_intervals, sigma=k + 1.0, eps=eps)
            interp = lagrange_interp(bvp.exact.u, mesh, k)
            errors.append(error_norms(interp, bvp.exact.u_and_prime, eps).e_energy)
        assert fitted_rate(errors) == pytest.approx(k, abs=0.25)
