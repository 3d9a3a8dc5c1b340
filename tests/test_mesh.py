import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerfem import (
    Mesh1D,
    MeshAssumptionWarning,
    MeshFamily,
    MeshSpec,
    check_step_sizes,
    generate,
    mesh_to_csv,
)
from oracles import kopteva_map, roos_map

EPSILONS = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
N_VALUES = [8, 16, 32, 64, 128, 256, 512, 1024, 2048]
SIGMAS = [2.0, 3.0, 4.0, 5.0]
# Families whose graded map has a breakpoint t = 1/2 - c1*eps.
BREAKPOINT_FAMILIES = [f for f in MeshFamily if f not in (MeshFamily.ROOS, MeshFamily.UNIFORM)]


def roos_spec(N=8, sigma=2.0, eps=0.01):
    return MeshSpec(family=MeshFamily.ROOS, N=N, sigma=sigma, epsilon=eps)


def kopteva_spec(N=8, sigma=2.0, eps=0.01, c1=2.5):
    return MeshSpec(family=MeshFamily.KOPTEVA, N=N, sigma=sigma, epsilon=eps, c1=c1)


def with_breakpoint_examples(test):
    """``test`` with kopteva specs whose breakpoint 1/2 - c1*eps is a grid point i/N
    or one ulp either side of it as explicit examples: the only places where a
    search for the fine part and a mask t <= theta could disagree.  eps is a power
    of two and 1/4 <= theta < 1/2, so c1 = (1/2 - theta)/eps and 1/2 - c1*eps are exact."""
    for N, i, eps in ((8, 3, 2.0**-4), (16, 5, 2.0**-6), (64, 31, 2.0**-10), (1024, 300, 2.0**-20)):
        for theta in (np.nextafter(i / N, 0.0), i / N, np.nextafter(i / N, 1.0)):
            c1 = (0.5 - float(theta)) / eps
            assert 0.5 - c1 * eps == theta
            spec = dict(family=MeshFamily.KOPTEVA, N=N, sigma=2.0, eps_fraction=eps * N, c1=c1)
            test = example(**spec)(test)
    return test


class TestGenerate:
    def test_endpoints_forced(self):
        mesh = generate(roos_spec())
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 1.0

    def test_roos_node_values(self):
        # Direct evaluation of the generating function for N=8, sigma=2,
        # eps=0.01: fine branch at t=1/8 and t=1/2, coarse branch at t=5/8
        # with slope d = 2*(1 + sigma*eps*ln(eps)).
        mesh = generate(roos_spec())
        assert mesh.nodes[1] == pytest.approx(0.005687085647182126, rel=1e-14)
        assert mesh.nodes[4] == pytest.approx(0.09210340371976182, rel=1e-14)
        assert mesh.nodes[5] == pytest.approx(0.3190775527898213, rel=1e-14)

    def test_kopteva_node_values(self):
        # theta = 0.475, map(theta) = -sigma*eps*ln(2*c1*eps) ~ 0.0599146,
        # d1 = (1 - map(theta))/(1 - theta) ~ 1.7906388.
        mesh = generate(kopteva_spec())
        assert mesh.nodes[4] == pytest.approx(0.10468061473436174, rel=1e-14)

    def test_uniform_fallback_above_threshold(self):
        spec = MeshSpec(family=MeshFamily.ROOS, N=4, sigma=2.0, epsilon=0.5)
        mesh = generate(spec)
        assert mesh.spec.family is MeshFamily.UNIFORM
        np.testing.assert_array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("family", BREAKPOINT_FAMILIES)
    def test_breakpoint_is_not_checked_on_the_uniform_fallback(self, family):
        # t = 1/2 - 5*0.1 = 0 lies outside (0, 1/2), but eps > 1/N, so the
        # graded map that uses t never runs.
        spec = MeshSpec(family=family, N=16, sigma=4.0, epsilon=0.1, c1=5.0)
        mesh = generate(spec)
        assert mesh.spec.family is MeshFamily.UNIFORM
        np.testing.assert_array_equal(mesh.nodes, np.arange(17) / 16)

    def test_uniform_family(self):
        mesh = generate(MeshSpec(family=MeshFamily.UNIFORM, N=4, sigma=2.0, epsilon=0.5))
        np.testing.assert_array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("family", BREAKPOINT_FAMILIES)
    def test_c1_moves_the_nodes_of_every_family_with_a_breakpoint(self, family):
        # A family whose graded map has a breakpoint must read it from c1:
        # at a graded point two values of c1 give two different meshes.
        first, second = (
            generate(MeshSpec(family=family, N=16, sigma=2.0, epsilon=1e-6, c1=c1)).nodes
            for c1 in (1.0, 3.0)
        )
        assert not np.array_equal(first, second)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            MeshSpec(family=MeshFamily.ROOS, N=7, sigma=2.0, epsilon=0.01)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="even"):
            MeshSpec(family=MeshFamily.ROOS, N=2, sigma=2.0, epsilon=0.01)

    @pytest.mark.parametrize("N", [8.0, np.float64(8.0), "8"])
    def test_rejects_an_n_that_is_not_an_integer(self, N):
        # A float N would build and print as 8.0 in study's CSV and table.
        with pytest.raises(ValueError, match=r"^N must be an even integer >= 4, got 8(\.0)?$"):
            MeshSpec(family=MeshFamily.ROOS, N=N, sigma=2.0, epsilon=0.01)

    def test_accepts_a_numpy_integer_n(self):
        assert MeshSpec(family=MeshFamily.ROOS, N=np.int64(8), sigma=2.0, epsilon=0.01).N == 8

    @pytest.mark.parametrize("family", list(MeshFamily))
    @pytest.mark.parametrize(
        "sigma,c1,message",
        [(math.nan, 2.5, "sigma must be >= 1, got nan"), (2.0, math.nan, "c1 must be positive, got nan")],
        ids=["sigma", "c1"],
    )
    def test_rejects_a_nan_sigma_or_c1_by_name(self, family, sigma, c1, message):
        # NaN fails every comparison, so each rule is written as "not valid";
        # at eps = 0.5 > 1/N no graded map runs to catch it later.
        with pytest.raises(ValueError, match=message):
            MeshSpec(family=family, N=8, sigma=sigma, epsilon=0.5, c1=c1)

    def test_rejects_breakpoint_outside_range(self):
        with pytest.raises(ValueError, match="breakpoint"):
            generate(MeshSpec(family=MeshFamily.KOPTEVA, N=8, sigma=2.0, epsilon=0.01, c1=60.0))

    def test_the_graded_map_is_checked_where_generate_builds_it(self):
        # Construction checks N, sigma, epsilon and c1 only; theta = 1/2 - 60*0.01 < 0.
        spec = MeshSpec("kopteva", 8, 2.0, 0.01, 60.0)
        with pytest.raises(ValueError, match=r"^breakpoint t = 1/2 - 60.0\*0.01 = -0.0999+8 must lie"):
            generate(spec)

    def test_generate_evaluates_the_graded_map_once(self, monkeypatch):
        calls = []
        graded_map = MeshSpec._graded_map

        def counting(spec):
            calls.append(spec)
            return graded_map(spec)

        monkeypatch.setattr(MeshSpec, "_graded_map", counting)
        spec = kopteva_spec(N=64, eps=1e-6)
        assert calls == []
        generate(spec)
        assert calls == [spec]

    def test_rejects_layer_wider_than_domain(self):
        # sigma*eps*ln(1/eps) = 3.54 with eps <= 1/N: the graded part would
        # end past x = 1.
        with pytest.raises(ValueError, match=r"roos mesh needs sigma\*eps\*ln\(1/eps\) < 1"):
            generate(MeshSpec(family=MeshFamily.ROOS, N=4, sigma=11.0, epsilon=0.2))
        for family in (MeshFamily.KOPTEVA,):
            with pytest.raises(ValueError, match=r"sigma\*eps\*ln\(1/\(2\*c1\*eps\)\) < 1"):
                generate(MeshSpec(family=family, N=4, sigma=11.0, epsilon=0.2, c1=0.1))
        # Above eps = 1/N the mesh is uniform and the graded map never runs.
        assert generate(MeshSpec(family=MeshFamily.ROOS, N=4, sigma=11.0, epsilon=0.3)).spec.family is MeshFamily.UNIFORM

    @pytest.mark.parametrize("eps", [1e-17, 2.0**-54, 1e-150])
    def test_roos_builds_where_one_minus_eps_rounds_to_one(self, eps):
        # 1 - a/2 rounds to 0 at t = 1/2: the log's argument is floored at eps
        # there, so x(1/2) is x_theta = -sigma*eps*ln(eps) bit for bit.
        assert 1.0 - eps == 1.0
        mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=2.0, epsilon=eps))
        assert mesh.spec.family is MeshFamily.ROOS
        assert mesh.nodes[4] == -2.0 * eps * math.log(eps)
        assert np.all(np.isfinite(mesh.nodes)) and np.all(mesh.steps > 0.0)

    def test_checks_run_before_the_log_of_the_graded_map(self):
        # 1 - a*theta = 2*c1*eps underflows to 0 here: the breakpoint check
        # must name the fault before the log sees it.
        with pytest.raises(ValueError, match="breakpoint"):
            generate(MeshSpec("kopteva", 4, 1.0, 5e-324, 0.25))
        # Roos has no rule on eps: at the smallest eps its mesh still builds,
        # with x(1/2) = -eps*ln(eps) the last fine node.
        mesh = generate(MeshSpec("roos", 4, 1.0, 5e-324))
        assert mesh.spec.family is MeshFamily.ROOS
        assert mesh.nodes[2] == -5e-324 * math.log(5e-324)
        assert np.all(np.diff(mesh.nodes) > 0.0)

    def test_rejects_a_breakpoint_within_rounding_of_one_half(self):
        # theta = 1/2 - 29*1.5e-18 rounds to 1/2 - 2^-54, so t = 1/2 would fall
        # in the uniform part, whose node there rounds to 0, below the last
        # fine node.
        with pytest.raises(ValueError, match="breakpoint"):
            generate(MeshSpec("kopteva", 148, 1.0, 2.220446049250313e-16 / 148, 29.0))

    def test_breakpoint_constant_near_the_float_limit_builds_the_graded_mesh(self):
        # 2*c1 overflows but c1*eps = 1e-12 does not: theta = 1/2 - 1e-12 is
        # admissible, and x(1/2) = 1 - (1 - x_theta)/(2*(1 - theta)) ~ 2e-12.
        mesh = generate(MeshSpec("kopteva", 4, 2.0, 1e-320, 1e308))
        assert mesh.spec.family is MeshFamily.KOPTEVA
        assert mesh.nodes[2] == pytest.approx(2e-12, rel=1e-3)

    def test_rejects_a_subnormal_eps_whose_fine_nodes_round_together(self):
        # sigma*eps = 1e-322 keeps 5 bits: x(t) = -1e-322*ln(1 - 2t) has fewer
        # distinct values than the 32 fine nodes at N = 64.
        with pytest.raises(ValueError, match=r"^kopteva mesh needs fine nodes -sigma\*eps\*ln\(1 - a\*t\) "
                                             "distinct in floating point"):
            generate(MeshSpec("kopteva", 64, 1.0, 1e-322, 1e308))
        # Roos at the smallest eps: x(1/6) = -5e-324*ln(2/3) rounds to 0 = x(0).
        with pytest.raises(ValueError, match=r"^roos mesh needs fine nodes -sigma\*eps\*ln\(1 - a\*t\) "
                                             "distinct in floating point, got sigma = 1.0, eps = 5e-324$"):
            generate(MeshSpec("roos", 6, 1.0, 5e-324))

    def test_every_admissible_subnormal_eps_spec_generates(self):
        # A seeded sample with eps log-uniform over the subnormals and c1*eps
        # log-uniform from 2e-16 (the breakpoint's floor) up to 1/2, c1 <= 1e308:
        # a spec is rejected with a named condition or its mesh builds.
        rng = np.random.default_rng(7)
        admissible = 0
        for _ in range(2000):
            eps = float(10.0 ** rng.uniform(-323.5, -307.7)) or 5e-324
            N = 2 * int(rng.integers(2, 2049))
            top = math.log10(0.5) - math.log10(eps)
            c1 = float(10.0 ** rng.uniform(top - 15.4, min(308.0, top)))
            try:
                spec = MeshSpec("kopteva", N, float(rng.uniform(1.0, 50.0)), eps, c1)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", MeshAssumptionWarning)
                    generate(spec)
            except ValueError as exc:
                assert "strictly increasing" not in str(exc)
                continue
            admissible += 1
        assert admissible > 1000

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from([MeshFamily.ROOS, MeshFamily.KOPTEVA]),
        N=st.integers(2, 1024).map(lambda n: 2 * n),
        sigma=st.floats(1.0, 50.0),
        eps_fraction=st.floats(0.0, 1.0, exclude_min=True),
        c1=st.floats(0.01, 50.0),
    )
    @with_breakpoint_examples
    @example(family=MeshFamily.ROOS, N=8, sigma=2.0, eps_fraction=8e-17, c1=1.0)   # 1 - eps == 1
    def test_graded_nodes_match_the_separate_maps_bit_for_bit(
        self, family, N, sigma, eps_fraction, c1
    ):
        # eps in (0, 1/N]: the graded map runs.
        eps = eps_fraction / N
        assume(eps > 0.0)
        try:
            spec = MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=c1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MeshAssumptionWarning)
                mesh = generate(spec)
        except ValueError as exc:
            assert "strictly increasing" not in str(exc)
            assume(False)
        t = np.arange(N + 1, dtype=float) / N
        if family is MeshFamily.ROOS:
            expected = roos_map(t, sigma, eps)
        else:
            expected = kopteva_map(t, sigma, eps, c1)
        expected[0], expected[-1] = 0.0, 1.0
        assert mesh.spec.family is family
        assert np.array_equal(mesh.nodes, expected)

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(list(MeshFamily)),
        N=st.integers(2, 1024).map(lambda n: 2 * n),
        sigma=st.floats(1.0, 50.0),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        const=st.floats(0.01, 50.0),
    )
    @example(family=MeshFamily.ROOS, N=6, sigma=1.0, eps=5e-324, const=1.0)   # fine nodes round together
    def test_spec_is_rejected_by_name_or_nodes_increase(self, family, N, sigma, eps, const):
        try:
            spec = MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=const)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MeshAssumptionWarning)
                mesh = generate(spec)
        except ValueError as exc:
            assert "mesh needs" in str(exc) or "breakpoint" in str(exc)
            return
        assert np.all(np.diff(mesh.nodes) > 0.0)

    @pytest.mark.parametrize("family", list(MeshFamily))
    def test_family_name_builds_the_same_mesh_as_the_enum(self, family):
        kwargs = dict(N=8, sigma=2.0, epsilon=1e-6, c1=2.5)
        by_name = MeshSpec(family=family.value, **kwargs)
        assert by_name.family is family
        np.testing.assert_array_equal(
            generate(by_name).nodes, generate(MeshSpec(family=family, **kwargs)).nodes
        )

    def test_unknown_family_name_is_rejected(self):
        with pytest.raises(ValueError, match="nonsense"):
            MeshSpec(family="nonsense", N=8, sigma=2.0, epsilon=1e-6)
        with pytest.raises(ValueError, match="c1"):
            MeshSpec(family="kopteva", N=8, sigma=2.0, epsilon=1e-6)

    def test_kopteva_requires_c1(self):
        with pytest.raises(ValueError, match="c1"):
            MeshSpec(family=MeshFamily.KOPTEVA, N=8, sigma=2.0, epsilon=0.01)

    def test_warns_when_constant_exceeds_regime(self):
        # c1 = 20 > 1/(eps*N) = 12.5 but theta still in (0, 1/2).
        spec = MeshSpec(family=MeshFamily.KOPTEVA, N=8, sigma=2.0, epsilon=0.01, c1=20.0)
        with pytest.warns(MeshAssumptionWarning):
            generate(spec)

    def test_no_warning_inside_regime(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate(kopteva_spec())

    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("N", [8, 64, 2048])
    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    def test_nodes_strictly_increasing(self, family, N, eps):
        spec = MeshSpec(family=family, N=N, sigma=3.0, epsilon=eps, c1=2.5)
        mesh = generate(spec)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 1.0
        assert np.all(np.diff(mesh.nodes) > 0.0)

    def test_steps_are_the_node_differences_computed_once_and_read_only(self):
        mesh = generate(roos_spec(N=64, sigma=3.0, eps=1e-6))
        np.testing.assert_array_equal(mesh.steps, np.diff(mesh.nodes))
        assert mesh.steps is mesh.steps
        assert not mesh.steps.flags.writeable


class TestMesh1D:
    # Mesh1D is exported, so a caller may build one from nodes of its own.
    @pytest.mark.parametrize(
        "nodes,message",
        [
            (np.linspace(0.0, 1.0, 8), "expected 9 nodes, got 8"),
            (np.linspace(0.0, 0.9, 9), r"mesh must span \[0, 1\] exactly"),
            ([0.0, 0.1, 0.3, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0], "mesh nodes must be strictly increasing"),
        ],
    )
    def test_rejects_nodes_that_are_not_a_mesh_of_its_spec(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            Mesh1D(nodes=nodes, spec=roos_spec(N=8))


class TestStepSizeChecks:
    def test_example_mesh_passes(self):
        checks = check_step_sizes(generate(roos_spec()))
        assert checks.all_bounds_hold

    def test_fine_layer_extreme(self):
        checks = check_step_sizes(generate(roos_spec(N=64, sigma=5.0, eps=1e-6)))
        assert checks.all_bounds_hold

    def test_uniform_mesh_monotone_with_equal_steps(self):
        mesh = generate(MeshSpec(family=MeshFamily.UNIFORM, N=8, sigma=2.0, epsilon=0.01))
        checks = check_step_sizes(mesh)
        assert checks.fine_steps_nondecreasing

    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_bounds_hold_across_grid(self, family, sigma, eps):
        for N in N_VALUES:
            spec = MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=2.5)
            checks = check_step_sizes(generate(spec))
            assert checks.all_bounds_hold, (family, sigma, eps, N, checks)

    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    def test_midpoint_diagnostic(self, family):
        spec = MeshSpec(family=family, N=16, sigma=2.0, epsilon=1e-6, c1=2.5)
        assert check_step_sizes(generate(spec)).midpoint_left_of_half


class TestLayerDecayBound:
    @pytest.mark.parametrize("family", [MeshFamily.ROOS, MeshFamily.KOPTEVA])
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-9])
    def test_step_layer_product_bounded(self, family, sigma, eps):
        # h_i^mu * exp(-x_i/eps) <= (4*sigma)^mu * (eps/N)^mu for the fine
        # elements i <= N/2 - 2, with mu = sigma.
        for N in [8, 64, 512, 2048]:
            spec = MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=2.5)
            mesh = generate(spec)
            m = N // 2
            h = mesh.steps[: m - 1]
            x = mesh.nodes[: m - 1]
            lhs = h**sigma * np.exp(-x / eps)
            rhs = (4.0 * sigma * eps / N) ** sigma
            assert np.all(lhs <= rhs), (family, sigma, eps, N)


class TestBreakpointContinuity:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_roos_branches_meet(self, sigma, eps):
        log_branch = -sigma * eps * math.log(1.0 - 2.0 * (1.0 - eps) * 0.5)
        d = 2.0 * (1.0 + sigma * eps * math.log(eps))
        linear_branch = 1.0 - d * 0.5
        assert abs(log_branch - linear_branch) < 1e-14

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_kopteva_branches_meet(self, sigma, eps):
        c1 = 2.5
        theta = 0.5 - c1 * eps
        log_branch = -sigma * eps * math.log(1.0 - 2.0 * theta)
        d1 = (1.0 + sigma * eps * math.log(2.0 * c1 * eps)) / (0.5 + c1 * eps)
        linear_branch = 1.0 - d1 * (1.0 - theta)
        assert abs(log_branch - linear_branch) < 1e-14


class TestCsvExport:
    def test_header_and_shape(self):
        mesh = generate(MeshSpec(family=MeshFamily.UNIFORM, N=4, sigma=2.0, epsilon=0.5))
        text = mesh_to_csv(mesh)
        lines = text.strip().split("\n")
        assert lines[0] == "i,x_i,h_i"
        assert len(lines) == 6
        assert lines[1] == "0,0.0,0.25"
        assert lines[-1] == "4,1.0,"

    def test_roundtrip_values(self):
        mesh = generate(roos_spec())
        lines = mesh_to_csv(mesh).strip().split("\n")[1:]
        xs = np.array([float(line.split(",")[1]) for line in lines])
        np.testing.assert_array_equal(xs, mesh.nodes)
