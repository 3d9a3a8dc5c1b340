import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import (
    ExactSolution,
    MeshFamily,
    MeshSpec,
    TwoPointBVP,
    generate,
    get_problem,
    layer_test_problem,
)
from oracles import exact_values, writer

EPSILONS = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]


def closed_forms(x, eps):
    """u, u' and f of the layer-test problem, written out as in its docstring."""
    e0 = np.exp(-2.0 * x / eps)
    u = (1.0 - x) * (1.0 - e0)
    du = -1.0 + e0 * (1.0 + 2.0 * (1.0 - x) / eps)
    ddu = -(2.0 / eps) * e0 * (2.0 + 2.0 * (1.0 - x) / eps)
    return u, du, -eps * ddu - (3.0 - x) * du + u


@st.composite
def eps_and_points(draw):
    """eps log-uniform in [1e-150, 0.99] and points of [0, 1] as an unsorted
    array, an array wholly at or beyond the reach of the layer term, an array
    straddling it (the near point first or anywhere else), or a 0-d array;
    the first two may be empty."""
    eps = math.exp(draw(st.floats(math.log(1e-150), math.log(0.99))))
    # Beyond reach exp(-2x/eps) <= 2^-56 * eps/(1+eps): below every last bit.
    reach = min(1.0, -eps * math.log(2.0**-56 * eps / (1.0 + eps)) / 2.0)
    anywhere = st.floats(0.0, 1.0) | st.floats(0.0, min(1.0, 2.0 * reach))
    far = st.floats(reach, 1.0)
    kind = draw(st.sampled_from(["unsorted", "far", "straddling", "0-d"]))
    if kind == "0-d":
        return eps, np.array(draw(anywhere))
    points = draw(st.lists(far if kind != "unsorted" else anywhere, max_size=40))
    if kind == "straddling":
        near = draw(st.floats(0.0, reach, exclude_max=True))
        points.insert(draw(st.integers(0, len(points))), near)
    return eps, np.array(points)


class TestLayerTestProblem:
    def test_boundary_values(self):
        bvp = layer_test_problem(0.1)
        assert bvp.exact.u(np.array(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert bvp.exact.u(np.array(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_value(self):
        # u(0.5) = 0.5*(1 - exp(-10)) for eps = 0.1.
        bvp = layer_test_problem(0.1)
        assert float(bvp.exact.u(np.array(0.5))) == pytest.approx(
            0.49997730003511875, rel=1e-14
        )

    def test_coefficient_bounds(self):
        bvp = layer_test_problem(0.01)
        beta, gamma = bvp.sampled_bounds()
        assert beta == pytest.approx(2.0)
        assert gamma == pytest.approx(0.5)

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 0.9])
    def test_derivatives_against_finite_differences(self, x):
        # 4th-order central differences with step eps/100 as the oracle; the
        # second-derivative formula is exercised through f, where its
        # eps-weighted contribution is well conditioned at every sample point.
        eps = 0.1
        bvp = layer_test_problem(eps)
        u = bvp.exact.u
        step = eps / 100.0
        pts = np.array([x - 2 * step, x - step, x, x + step, x + 2 * step])
        vals = u(pts)
        du_fd = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * step)
        ddu_fd = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (
            12 * step**2
        )
        assert float(exact_values(bvp.exact.u_and_prime, x)[1]) == pytest.approx(du_fd, rel=1e-6)
        f_fd = -eps * ddu_fd - (3.0 - x) * du_fd + vals[2]
        assert float(bvp.f(np.array(x))) == pytest.approx(f_fd, rel=1e-6)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_forcing_consistent_with_independent_derivatives(self, eps):
        # Expand u = 1 - x - exp(-2x/eps) + x*exp(-2x/eps) and differentiate
        # term by term; the residual of the strong form against the packaged
        # f must vanish to round-off.
        bvp = layer_test_problem(eps)
        x = np.linspace(0.0, 1.0, 1000)
        e0 = np.exp(-2.0 * x / eps)
        u = 1.0 - x - e0 + x * e0
        du = -1.0 + (2.0 / eps) * e0 + e0 - (2.0 * x / eps) * e0
        ddu = -(4.0 / eps**2) * e0 * (1.0 - x + eps)
        f_ref = bvp.f(x)
        residual = -eps * ddu - (3.0 - x) * du + u - f_ref
        assert np.all(np.abs(residual) <= 1e-9 * np.maximum(1.0, np.abs(f_ref)))

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_decomposition_consistency(self, eps):
        bvp = layer_test_problem(eps)
        x = np.linspace(0.0, 1.0, 1000)
        ex = bvp.exact
        val_gap = np.abs(ex.u(x) - (ex.S(x) + ex.E(x)))
        val_ref = np.maximum(1e-300, np.abs(ex.S(x)) + np.abs(ex.E(x)))
        assert np.all(val_gap <= 1e-12 * val_ref)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_joint_u_and_prime_matches_closed_forms_bit_for_bit(self, eps):
        # exp(-2x/eps) is subnormal for x in about [354 eps, 373 eps]; the
        # grid covers [0, 376 eps] in steps of eps/10 as well as [0, 1].
        x = np.concatenate([np.linspace(0.0, 1.0, 1001), eps * np.linspace(0.0, 376.0, 3761)])
        assert np.any((np.exp(-2.0 * x / eps) > 0.0) & (np.exp(-2.0 * x / eps) < 2.0**-1022))
        u, du = exact_values(layer_test_problem(eps).exact.u_and_prime, x)
        u_ref, du_ref, _ = closed_forms(x, eps)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(du, du_ref)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_forcing_matches_closed_form_bit_for_bit(self, eps):
        # f shares exp(-2x/eps) with u and u' and keeps the closed form's
        # operand order, subnormal band included.
        x = np.concatenate([np.linspace(0.0, 1.0, 1001), eps * np.linspace(0.0, 376.0, 3761)])
        np.testing.assert_array_equal(layer_test_problem(eps).f(x), closed_forms(x, eps)[2])

    @settings(max_examples=300, deadline=None)
    @given(eps_and_points())
    def test_floor_and_far_field_match_closed_forms_bit_for_bit(self, eps_and_x):
        # The exponent floor changes no bit, shape or dtype, and past the reach
        # (u, u') is (1 - x, -1), whatever the order of the points around it.
        eps, x = eps_and_x
        bvp = layer_test_problem(eps)
        got = (*exact_values(bvp.exact.u_and_prime, x), bvp.f(x))
        for value, ref in zip(got, closed_forms(x, eps)):
            assert np.shape(value) == np.shape(ref) == x.shape
            assert np.asarray(value).dtype == np.asarray(ref).dtype == np.float64
            np.testing.assert_array_equal(value, ref)

    @settings(max_examples=200, deadline=None)
    @given(eps_and_points(), st.sampled_from(["array", "2-d", "list"]))
    def test_u_leaves_its_argument_unchanged_and_is_the_writers_u(self, eps_and_x, form):
        # The writer takes x as scratch (layer_terms leaves ((1 - x)/(eps/2) + 1)*E0
        # there), so u must hand it a copy: the argument keeps its bits, and
        # u's value is the writer's u bit for bit, in the argument's shape.
        eps, x = eps_and_x
        exact = layer_test_problem(eps).exact
        arg = {"array": x, "2-d": np.stack([x, x[::-1]]) if x.ndim else x[None, None],
               "list": x.tolist()}[form]
        before = np.array(arg, dtype=float)
        kept = before.copy()
        u = exact.u(arg)
        if form == "list":
            assert arg == before.tolist()
        else:
            assert arg.dtype == np.float64 and arg.tobytes() == before.tobytes()
        ref = np.empty_like(kept)
        exact.u_and_prime(kept)(ref, np.empty_like(kept))
        assert u.shape == np.shape(arg) and u.dtype == np.float64
        assert u.tobytes() == ref.tobytes()

    def test_validate_passes(self):
        layer_test_problem(1e-6).exact.validate()

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_far_field_is_the_smooth_part_past_reach(self, eps):
        exact = layer_test_problem(eps).exact
        reach, poly = exact.far_field
        assert poly is exact.S and 0.0 < reach < 1.0
        x = np.linspace(reach, 1.0, 4097)
        np.testing.assert_array_equal(exact.u(x), 1.0 - x)

    @pytest.mark.parametrize("where,rule", [(0.0, "vanish at both endpoints"), (1.0, "vanish"),
                                            (0.5005005005005005, "u and S \\+ E disagree by nan")])
    def test_validate_rejects_a_nan_in_u(self, where, rule):
        # A NaN compares false with every bound, so each check is written to fail on it.
        arr = lambda x: np.asarray(x, dtype=float)
        u = lambda x: np.where(arr(x) == where, np.nan, 0.0 * arr(x))
        exact = ExactSolution(writer(u, lambda x: 0.0 * arr(x)), S=lambda x: 0.0 * arr(x),
                              E=lambda x: 0.0 * arr(x))
        with pytest.raises(ValueError, match=rule):
            exact.validate()

    def test_validate_rejects_a_wrong_far_field_naming_reach(self):
        exact = layer_test_problem(1e-6).exact
        reach = exact.far_field[0]
        wrong = ExactSolution(exact.u_and_prime, exact.S, exact.E,
                              far_field=(reach, lambda x: 1.0 - 0.999 * x))
        # The largest gap on the grid past reach is at x = 1: 1 - 0.999 - 0 = 1e-3.
        match = rf"^u and its far field differ past reach {reach:.6g} by 1\.000e-03$"
        with pytest.raises(ValueError, match=match):
            wrong.validate()
        with pytest.raises(ValueError, match="far field"):
            ExactSolution(exact.u_and_prime, exact.S, exact.E,
                          far_field=(reach, lambda x: np.full_like(x, np.nan))).validate()

    def test_registry_lookup(self):
        bvp = get_problem("layer-test", 1e-5)
        assert bvp.epsilon == 1e-5

    def test_registry_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("no-such-problem", 1e-5)

    def test_built_once_per_epsilon(self):
        # Problems are immutable, so the factory caches them per epsilon.
        assert layer_test_problem(1e-7) is layer_test_problem(1e-7)
        assert get_problem("layer-test", 1e-7) is layer_test_problem(1e-7)
        assert layer_test_problem(1e-7) is not layer_test_problem(1e-8)
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("no-such-problem", 1e-7)


class TestBVPValidation:
    def test_rejects_small_convection(self):
        with pytest.raises(ValueError, match="exceed 1"):
            TwoPointBVP(
                epsilon=0.1,
                b=lambda x: np.ones_like(x),
                c=lambda x: np.ones_like(x),
                f=lambda x: np.zeros_like(x),
                b_prime=lambda x: np.zeros_like(x),
            )

    def test_rejects_bad_reaction(self):
        with pytest.raises(ValueError, match="positive"):
            TwoPointBVP(
                epsilon=0.1,
                b=lambda x: 3.0 - x,
                c=lambda x: -2.0 * np.ones_like(x),
                f=lambda x: np.zeros_like(x),
                b_prime=lambda x: -np.ones_like(x),
            )

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            layer_test_problem(1.5)

    @pytest.mark.parametrize(
        "coefficient,rule",
        [("b", "b\\(x\\) must exceed 1"), ("c", "must be positive"), ("b_prime", "must be positive")],
        ids=["b", "c", "b_prime"],
    )
    def test_rejects_nan_coefficients(self, coefficient, rule):
        data = dict(
            b=lambda x: 3.0 - x,
            c=lambda x: np.ones_like(x),
            f=lambda x: np.zeros_like(x),
            b_prime=lambda x: -np.ones_like(x),
        )
        data[coefficient] = lambda x: np.full_like(x, np.nan)
        with pytest.raises(ValueError, match=f"{rule} on \\[0, 1\\]; sampled minimum nan"):
            TwoPointBVP(epsilon=0.5, **data)

    def test_rejects_non_finite_forcing_naming_f(self):
        with pytest.raises(ValueError, match=r"f\(x\) must be finite on \[0, 1\]; sampled f\(1\) = inf"):
            TwoPointBVP(
                epsilon=0.5,
                b=lambda x: 3.0 - x,
                c=lambda x: np.ones_like(x),
                f=lambda x: np.where(x < 1.0, 0.0, np.inf),
                b_prime=lambda x: -np.ones_like(x),
            )

    @pytest.mark.filterwarnings("error")
    def test_layer_test_forcing_overflows_below_about_1e_154(self):
        # u''(0) ~ -4/eps^2, which is not finite for eps below ~1e-154.
        layer_test_problem(1e-150)
        with pytest.raises(ValueError, match=r"sampled f\(0\) = inf"):
            layer_test_problem(1e-160)

    def test_exact_solution_validate_rejects_nonzero_boundary(self):
        bad = ExactSolution(
            u_and_prime=writer(
                lambda x: np.asarray(x, dtype=float),
                lambda x: np.ones_like(np.asarray(x, dtype=float)),
            ),
            S=lambda x: np.asarray(x, dtype=float),
            E=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        with pytest.raises(ValueError, match="vanish"):
            bad.validate()

    def test_exact_solution_validate_rejects_a_split_that_drifts_from_u(self):
        arr = lambda x: np.asarray(x, dtype=float)
        bubble = lambda x: arr(x) * (1.0 - arr(x))
        slope = lambda x: 1.0 - 2.0 * arr(x)
        drifted = ExactSolution(
            u_and_prime=writer(bubble, slope),
            S=bubble,
            E=lambda x: 1e-9 * arr(x),
        )
        with pytest.raises(ValueError, match=r"u and S \+ E disagree by 1\.000e-09"):
            drifted.validate()


def layer_at_transition(bvp, mesh):
    """|E| at the last fine node x_{N/2-1} and the first coarse node x_{N/2}."""
    m = mesh.N // 2
    return abs(float(bvp.exact.E(mesh.nodes[m - 1]))), abs(float(bvp.exact.E(mesh.nodes[m])))


class TestLayerBounds:
    # On a graded mesh the layer part decays to |E(x_{N/2-1})| <= C*N^-sigma
    # and |E(x_{N/2})| <= C*eps^sigma, one of the facts the analysis rests on.
    def test_frozen_example(self):
        # x_3 = -0.02*ln(0.2575) ~ 0.0271347, |E(x_3)| ~ 0.0042772,
        # ratio |E(x_3)|*N^2 ~ 0.27374.
        bvp = layer_test_problem(0.01)
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=0.01))
        e_fine, _ = layer_at_transition(bvp, mesh)
        assert e_fine == pytest.approx(0.004277220521534545, rel=1e-10)
        assert e_fine * 8**2.0 == pytest.approx(0.27374211337821086, rel=1e-10)
        assert e_fine * 8**2.0 < 10.0

    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    @pytest.mark.parametrize("sigma", [2.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_ratios_bounded_over_grid(self, family, sigma, eps):
        bvp = layer_test_problem(eps)
        for N in [8, 64, 512, 2048]:
            mesh = generate(MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=2.5))
            e_fine, e_coarse = layer_at_transition(bvp, mesh)
            assert e_fine * N**sigma < 10.0, (family, sigma, eps, N)
            assert e_coarse * eps ** (-sigma) < 10.0, (family, sigma, eps, N)

    def test_uniform_mesh_still_evaluates(self):
        bvp = layer_test_problem(0.5)
        mesh = generate(MeshSpec(family=MeshFamily.UNIFORM, N=8, sigma=2.0, epsilon=0.5))
        e_fine, e_coarse = layer_at_transition(bvp, mesh)
        assert math.isfinite(e_fine * 8**2.0)
        assert math.isfinite(e_coarse * 0.5 ** (-2.0))
