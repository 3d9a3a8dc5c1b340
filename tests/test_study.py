import itertools
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from layerfem import (
    ConvergenceRecord,
    MeshAssumptionWarning,
    MeshFamily,
    MeshSpec,
    StudyConfig,
    TwoPointBVP,
    emit,
    error_norms,
    format_error,
    galerkin_solve,
    generate,
    get_problem,
    aggregate,
    build_bundle,
    interpolate_point,
    polynomial_energy_norm,
    run_study,
    solve_point,
)
from layerfem import cli, study
from layerfem.problem import _PROBLEMS
from layerfem.study import defaults_for, interpolation_study
from oracles import fitted_rate


def small_config(**overrides):
    base = dict(
        families=("roos",),
        k_list=(1,),
        N_list=(8, 16),
        epsilons=(1e-6, 1e-8),
    )
    base.update(overrides)
    return StudyConfig(**base)


_RECORD_KEYS = list(itertools.product(("roos", "kopteva"), (1, 2), (8, 16, 32), (1e-4, 1e-6)))
_NORMS = st.one_of(st.floats(1e-15, 1.0), st.sampled_from([math.nan, math.inf]))


@st.composite
def record_lists(draw):
    """Records of distinct (family, k, N, epsilon) points, sigma = k + 1 as in a sweep;
    some failed, some with a NaN or infinite norm."""
    records = []
    for family, k, n_intervals, eps in draw(st.lists(st.sampled_from(_RECORD_KEYS), min_size=1,
                                                      max_size=16, unique=True)):
        point = (family, k, k + 1.0, n_intervals, eps)
        if draw(st.booleans()) and draw(st.booleans()):
            records.append(ConvergenceRecord(*point, math.nan, math.nan, math.nan, "failed"))
        else:
            records.append(ConvergenceRecord(*point, *draw(st.tuples(_NORMS, _NORMS, _NORMS))))
    return records


class TestConfig:
    def test_defaults_follow_degree(self):
        cfg = StudyConfig()
        assert defaults_for(3) == (4.0, 5.0)
        assert cfg.sigma_for(3) == 4.0
        assert cfg.c1_for(3) == 5.0
        assert cfg.n_list_for(2)[-1] == 2048
        assert cfg.n_list_for(3)[-1] == 1024

    def test_explicit_values_win(self):
        cfg = StudyConfig(sigma=2.5, c1=1.5, N_list=(8,))
        assert cfg.sigma_for(4) == 2.5
        assert cfg.c1_for(4) == 1.5
        assert cfg.n_list_for(4) == (8,)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            StudyConfig(N_list=(7,))

    def test_rejects_empty_n_list_naming_it(self):
        with pytest.raises(ValueError, match="N_list"):
            small_config(N_list=())

    def test_rejects_large_degree(self):
        with pytest.raises(ValueError, match="1..10"):
            StudyConfig(k_list=(11,))

    @pytest.mark.parametrize("k", [0, 11])
    def test_every_entry_point_applies_the_one_degree_rule(self, k):
        rule = rf"^polynomial degree must lie in 1\.\.10, got {k}$"
        with pytest.raises(ValueError, match=rule):
            StudyConfig(k_list=(1, k))
        with pytest.raises(ValueError, match=rule):
            defaults_for(k)
        with pytest.raises(ValueError, match=rule):
            interpolation_study("roos", k, (8,))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            StudyConfig(epsilons=(2.0,))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            StudyConfig(families=("shishkin",))

    @pytest.mark.parametrize(
        "name,values,rule",
        [
            ("families", ("roos", "kopteva", "roos"), "families repeats roos"),
            ("k_list", (1, 2, 1), "k_list repeats 1"),
            ("N_list", (16, 8, 16), "N_list repeats 16"),
            ("epsilons", (1e-6, 1e-8, 1e-6), "epsilons repeats 1e-06"),
        ],
    )
    def test_rejects_a_repeated_entry_naming_the_list(self, name, values, rule):
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            small_config(**{name: values})

    @pytest.mark.parametrize("name,value", [("sigma", 0.5), ("c1", -1.0)])
    def test_rejects_mesh_parameter_with_the_mesh_spec_message(self, name, value):
        params = dict(family="roos", N=8, sigma=2.0, epsilon=1e-6, c1=2.5)
        with pytest.raises(ValueError) as spec_error:
            MeshSpec(**{**params, name: value})
        with pytest.raises(ValueError) as config_error:
            small_config(**{name: value})
        assert str(config_error.value) == str(spec_error.value)
        assert str(spec_error.value).startswith(name)

    def test_rejects_unknown_problem_with_the_get_problem_message(self):
        with pytest.raises(ValueError) as lookup_error:
            get_problem("nope", 1e-6)
        with pytest.raises(ValueError) as config_error:
            small_config(problem="nope")
        assert str(config_error.value) == str(lookup_error.value)

    def test_known_problem_is_not_built_by_the_check(self, monkeypatch):
        # perfbench counts one get_problem span per study op.
        monkeypatch.setattr(study, "get_problem", lambda *args: pytest.fail("problem built"))
        small_config()

    def test_each_distinct_mesh_point_is_checked_once_in_sweep_order(self, monkeypatch):
        # Each point's own spec is the check; no two points share one.
        built = []

        def counting(*args):
            built.append(args)
            return MeshSpec(*args)

        monkeypatch.setattr(study, "MeshSpec", counting)
        StudyConfig()
        assert len(built) == len(set(built)) == 408
        assert built[:2] == [("roos", 8, 2.0, 1e-4, 2.5), ("roos", 8, 2.0, 1e-5, 2.5)]

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from([f.value for f in MeshFamily]),
        sigma=st.floats(0.5, 6.0),
        c1=st.floats(-1.0, 60.0),
        N=st.integers(1, 32).map(lambda n: 2 * n),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(family="roos", sigma=1.0, c1=1.0, N=6, eps=5e-324)   # fine nodes round together
    def test_only_graded_map_conditions_are_left_to_the_points(self, family, sigma, c1, N, eps):
        try:
            StudyConfig(families=(family,), sigma=sigma, c1=c1, N_list=(N,), epsilons=(eps,))
        except ValueError as exc:
            # The same rule rejects the point's spec.
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                MeshSpec(family, N, sigma, eps, c1)
            return
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MeshAssumptionWarning)
                generate(MeshSpec(family=family, N=N, sigma=sigma, epsilon=eps, c1=c1))
        except ValueError as exc:
            assert "mesh needs" in str(exc) or "breakpoint" in str(exc)

    @pytest.mark.parametrize("sweep", ["run_study", "interpolation_study", "verify"])
    def test_one_call_builds_one_mesh_spec_per_point(self, monkeypatch, sweep):
        # The construction's check keeps the specs it builds; points() hands them out,
        # and each point's mesh is built once.
        built, meshes = [], []
        check = MeshSpec.__post_init__

        def counted(spec):
            built.append(spec)
            check(spec)

        def counted_generate(spec):
            meshes.append(spec)
            return generate(spec)

        monkeypatch.setattr(MeshSpec, "__post_init__", counted)
        for module in (study, cli):
            monkeypatch.setattr(module, "generate", counted_generate)
        if sweep == "run_study":
            run_study(small_config())
        elif sweep == "interpolation_study":
            interpolation_study("roos", 1, (8, 16), (1e-6, 1e-8))
        else:
            assert cli.main(["verify"]) == 0   # 2 degrees x 4 N x 6 epsilons
        points = 48 if sweep == "verify" else 4
        assert len(built) == len(meshes) == points

    def test_kept_points_are_outside_equality_hash_and_repr(self):
        cfg = small_config()
        assert cfg == small_config() and hash(cfg) == hash(small_config())
        assert cfg != small_config(k_list=(2,))
        assert repr(cfg) == (
            "StudyConfig(families=('roos',), k_list=(1,), sigma=None, c1=None, N_list=(8, 16), "
            "epsilons=(1e-06, 1e-08), problem='layer-test')"
        )

    def test_points_follow_the_run_order(self):
        cfg = small_config(families=("roos", "kopteva"), k_list=(1, 2), sigma=3.0)
        points = list(cfg.points())
        assert points[:3] == [
            (MeshSpec("roos", 8, 3.0, 1e-6, 2.5), 1),
            (MeshSpec("roos", 8, 3.0, 1e-8, 2.5), 1),
            (MeshSpec("roos", 16, 3.0, 1e-6, 2.5), 1),
        ]
        records = run_study(cfg).records
        assert [(r.family, r.k, r.sigma, r.N, r.epsilon) for r in records] == [
            (spec.family.value, k, spec.sigma, spec.N, spec.epsilon) for spec, k in points
        ]


class TestRunStudy:
    def test_deterministic_csv(self):
        cfg = small_config()
        first = emit(run_study(cfg).records, "csv")
        second = emit(run_study(cfg).records, "csv")
        assert first == second

    def test_makes_no_aggregate_call(self, monkeypatch):
        # Records are the result; callers that want the reduction call aggregate.
        monkeypatch.setattr(study, "aggregate", lambda records: pytest.fail("aggregated"))
        assert len(run_study(small_config()).records) == 4

    def test_record_grid_complete(self):
        cfg = small_config()
        result = run_study(cfg)
        assert len(result.records) == 4
        keys = {(r.family, r.k, r.N, r.epsilon) for r in result.records}
        assert ("roos", 1, 8, 1e-6) in keys

    def test_aggregate_takes_max_over_epsilon(self):
        result = run_study(small_config())
        by_n = {row.N: row for row in aggregate(result.records)}
        recs = [r for r in result.records if r.N == 8]
        assert by_n[8].e_uniform == max(r.e_energy for r in recs)

    def test_rates_attach_to_smaller_n(self):
        result = run_study(small_config())
        by_n = {row.N: row for row in aggregate(result.records)}
        expected = math.log2(by_n[8].e_uniform / by_n[16].e_uniform)
        assert by_n[8].rate == pytest.approx(expected)
        assert by_n[16].rate is None

    def test_a_non_finite_norm_fails_its_group_in_any_record_order(self):
        values = [0.3, math.nan, 0.2]
        for order in itertools.permutations(values):
            recs = [ConvergenceRecord("roos", 1, 2.0, 8, eps, 0.1, 0.1, e)
                    for eps, e in zip((1e-4, 1e-6, 1e-8), order)]
            [row] = aggregate(recs)
            assert math.isnan(row.e_uniform) and row.rate is None
            assert "ERR" in emit(recs, "table")

    def test_failed_run_recorded_not_raised(self):
        # theta = 1/2 - c1*eps < 0 makes the mesh spec invalid for this c1.
        cfg = small_config(families=("kopteva",), c1=6000.0, epsilons=(1e-4,), N_list=(8,))
        result = run_study(cfg)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.error is not None
        assert math.isnan(rec.e_energy)
        assert math.isnan(aggregate(result.records)[0].e_uniform)
        assert "ERR" in emit(result.records, "table")

    def test_a_broken_mesh_rule_is_recorded_before_the_problem_data(self):
        # kopteva at eps = 1e-160 breaks both its breakpoint rule and the finite-f
        # check; roos builds its mesh there, so only the problem data fails.
        kopteva, roos = run_study(small_config(families=("kopteva", "roos"), N_list=(8,),
                                               epsilons=(1e-160,))).records
        assert kopteva.error == "breakpoint t = 1/2 - 2.5*1e-160 = 0.5 must lie in (0, 1/2 - 2^-52]"
        assert roos.error == "f(x) must be finite on [0, 1]; sampled f(0) = inf"

    def test_epsilon_robustness_small_slice(self):
        cfg = small_config(N_list=(64,), epsilons=(1e-4, 1e-6, 1e-9))
        result = run_study(cfg)
        energies = [r.e_energy for r in result.records]
        assert max(energies) / min(energies) <= 1.5

    def test_rate_recovery_small_slice(self):
        cfg = small_config(k_list=(2,), N_list=(64, 128, 256))
        rows = aggregate(run_study(cfg).records)
        errors = [row.e_uniform for row in sorted(rows, key=lambda r: r.N)]
        assert fitted_rate(errors, pairs=2) == pytest.approx(2.0, abs=0.1)

    def test_roundoff_level_problem_flags_rates(self, monkeypatch):
        # A problem whose solution lies in the discrete space solves to
        # round-off, so every rate is meaningless and rendered as a dash.
        eps_val = 0.5
        p = Polynomial([0.0, 1.0]) * Polynomial([1.0, -1.0])
        dp = p.deriv()
        f_poly = -eps_val * p.deriv(2) - Polynomial([3.0, -1.0]) * dp + p

        def poly_problem(epsilon):
            from layerfem.problem import ExactSolution

            arr = lambda x: np.asarray(x, dtype=float)
            return TwoPointBVP(
                epsilon=epsilon,
                b=lambda x: 3.0 - arr(x),
                c=lambda x: np.ones_like(arr(x)),
                f=lambda x: f_poly(arr(x)),
                b_prime=lambda x: -np.ones_like(arr(x)),
                exact=ExactSolution(
                    u_and_prime=lambda x: (p(arr(x)), dp(arr(x))),
                    S=lambda x: p(arr(x)),
                    E=lambda x: np.zeros_like(arr(x)),
                ),
            )

        monkeypatch.setitem(_PROBLEMS, "poly-test", poly_problem)
        cfg = small_config(
            k_list=(3,), N_list=(8, 16), epsilons=(eps_val,), problem="poly-test"
        )
        result = run_study(cfg)
        assert all(r.e_energy < 1e-12 for r in result.records)
        assert all(row.rate is None for row in aggregate(result.records))
        table = emit(result.records, "table")
        assert "—" in table


class TestSolvePoint:
    @pytest.mark.parametrize(
        "family,k,eps",
        [(family, k, 1e-8) for family in ("roos", "kopteva") for k in (1, 2, 3, 4)]
        + [("roos", 2, 0.1)],   # eps > 1/N: the uniform fallback
    )
    def test_matches_the_chain_it_runs_bit_for_bit(self, family, k, eps):
        sigma, c1 = defaults_for(k)
        spec = MeshSpec(family=family, N=16, sigma=sigma, epsilon=eps, c1=c1)
        fem, tri = solve_point("layer-test", generate(spec), k)

        bvp = get_problem("layer-test", eps)
        ref = galerkin_solve(bvp, generate(spec), k)
        ref_tri = error_norms(ref, bvp.exact.u_and_prime, eps, far_field=bvp.exact.far_field)
        assert fem.mesh.spec == ref.mesh.spec
        assert (fem.mesh.spec.family.value == "uniform") == (eps > 1 / 16)
        assert fem.coefficients.tobytes() == ref.coefficients.tobytes()
        hexes = lambda t: [t.e_inf.hex(), t.e_l2.hex(), t.e_energy.hex()]
        assert hexes(tri) == hexes(ref_tri)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 4), N=st.integers(4, 128).map(lambda n: 2 * n),
           log_eps=st.floats(-150.0, -9.0))
    def test_roos_error_is_uniform_in_eps_down_to_1e_150(self, k, N, log_eps):
        # Over 400 random points the scaled error e_energy*(N/sigma)^k read at
        # most 1.352 / 0.7305 / 0.2550 / 0.0656 for k = 1..4, and e_energy
        # stayed within 1.4e-4 relative of eps = 1e-9's: the bounds leave ~10%
        # and 7x.  Below eps = 2^-54, 1 - eps rounds to 1 in roos's map.
        sigma, _ = defaults_for(k)

        def energy(eps):
            return solve_point("layer-test", generate(MeshSpec("roos", N, sigma, eps)), k)[1].e_energy

        e_energy = energy(10.0**log_eps)
        assert e_energy * (N / sigma) ** k <= (1.5, 0.8, 0.28, 0.072)[k - 1]
        assert abs(e_energy / energy(1e-9) - 1.0) <= 1e-3

    def test_record_carries_the_point_errors(self):
        config = small_config(N_list=(16,), epsilons=(1e-8,))
        rec = run_study(config).records[0]
        spec = MeshSpec(family="roos", N=16, sigma=2.0, epsilon=1e-8, c1=2.5)
        _, tri = solve_point("layer-test", generate(spec), 1)
        assert (rec.e_inf, rec.e_l2, rec.e_energy) == (tri.e_inf, tri.e_l2, tri.e_energy)

    def test_problem_without_exact_solution_raises(self, no_exact_problem):
        spec = MeshSpec(family="roos", N=8, sigma=2.0, epsilon=1e-6)
        with pytest.raises(ValueError, match="exact"):
            solve_point(no_exact_problem, generate(spec), 1)

    def test_study_records_a_problem_without_exact_solution(self, no_exact_problem):
        result = run_study(small_config(problem=no_exact_problem))
        assert len(result.records) == 4
        assert all("exact" in r.error and math.isnan(r.e_energy) for r in result.records)


class TestEmit:
    def test_csv_single_record(self):
        rec = ConvergenceRecord("roos", 1, 2.0, 8, 1e-6, 0.1, 0.05, 0.11)
        text = emit([rec], "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "family,k,sigma,N,epsilon,e_inf,e_l2,e_energy"
        assert len(lines) == 2
        assert lines[1] == "roos,1,2.0,8,1e-06,0.1,0.05,0.11"

    def test_csv_ordering(self):
        recs = [
            ConvergenceRecord("roos", 1, 2.0, 16, 1e-6, 1, 1, 1),
            ConvergenceRecord("roos", 1, 2.0, 8, 1e-6, 1, 1, 1),
            ConvergenceRecord("kopteva", 1, 2.0, 8, 1e-6, 1, 1, 1),
        ]
        lines = emit(recs, "csv").strip().split("\n")[1:]
        assert [line.split(",")[0] for line in lines] == ["kopteva", "roos", "roos"]

    def test_table_known_cells(self):
        recs = [
            ConvergenceRecord("roos", 1, 2.0, 128, 1e-8, 0.03, 0.02, 0.0208),
            ConvergenceRecord("roos", 1, 2.0, 256, 1e-8, 0.015, 0.01, 0.0104),
        ]
        table = emit(recs, "table")
        assert "0.208E-01" in table
        assert "1.00" in table
        assert "—" in table  # final rate placeholder

    def test_table_leaves_a_blank_cell_where_a_family_lacks_an_n(self):
        roos = run_study(small_config(N_list=(8, 16), epsilons=(1e-6,))).records
        kopteva = run_study(small_config(families=("kopteva",), N_list=(8,), epsilons=(1e-6,)))
        lines = emit(roos + kopteva.records, "table").splitlines()
        assert lines[1].split() == ["N", "kopteva:", "e^N", "r^N", "roos:", "e^N", "r^N"]
        [roos_16] = [r for r in roos if r.N == 16]
        assert lines[3] == f"{16:>6}  {'':>16} {'':>6}  {format_error(roos_16.e_energy):>16} {'—':>6}"

    @settings(max_examples=200, deadline=None)
    @given(record_lists(), st.data())
    def test_output_does_not_depend_on_the_record_order(self, records, data):
        shuffled = data.draw(st.permutations(records))
        for fmt in ("csv", "table"):
            assert emit(shuffled, fmt) == emit(records, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit([ConvergenceRecord("roos", 1, 2.0, 8, 1e-6, 1, 1, 1)], "json")

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="records"):
            emit([], "table")


class TestFormatError:
    @staticmethod
    def _oracle(value):
        # Independent route: shift python's own scientific rendering
        # d.ddE(e) to 0.dddE(e+1).
        mant, _, exp = f"{value:.2E}".partition("E")
        digits = mant.replace(".", "")
        return f"0.{digits}E{int(exp) + 1:+03d}"

    @pytest.mark.parametrize(
        "value",
        [0.00642, 0.338, 0.103, 1.0, 0.09996, 0.0000251, 4.15e-11, 0.999, 123.4],
    )
    def test_against_string_oracle(self, value):
        assert format_error(value) == self._oracle(value)

    def test_zero_and_nan(self):
        assert format_error(0.0) == "0.000E+00"
        assert format_error(float("nan")) == "ERR"


class TestFittedRate:
    def test_exact_halving(self):
        assert fitted_rate([8.0, 4.0, 2.0, 1.0]) == pytest.approx(1.0)

    def test_uses_last_pairs(self):
        # First ratio is noise; the tail is clean fourth order.
        errors = [100.0, 16.0, 1.0, 1.0 / 16.0, 1.0 / 256.0]
        assert fitted_rate(errors, pairs=3) == pytest.approx(4.0)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            fitted_rate([1.0])


class TestInterpolatePoint:
    @pytest.mark.parametrize(
        "family,k,eps",
        [(family, k, 1e-8) for family in ("roos", "kopteva") for k in (1, 2, 3, 4)]
        + [("roos", 2, 0.1)],   # eps > 1/N: the uniform fallback
    )
    def test_matches_the_chain_it_runs_bit_for_bit(self, family, k, eps):
        sigma, c1 = defaults_for(k)
        spec = MeshSpec(family=family, N=16, sigma=sigma, epsilon=eps, c1=c1)
        tri, corr = interpolate_point("layer-test", generate(spec), k)

        exact = get_problem("layer-test", eps).exact
        bundle = build_bundle(exact, generate(spec), k)
        ref_tri = error_norms(bundle.u_interp, exact.u_and_prime, eps, far_field=exact.far_field)
        ref_corr = polynomial_energy_norm(bundle.correction, eps)
        hexes = lambda t, c: [t.e_inf.hex(), t.e_l2.hex(), t.e_energy.hex(), c.hex()]
        assert hexes(tri, corr) == hexes(ref_tri, ref_corr)
        [row] = interpolation_study(family, k, (16,), (eps,))
        assert [row.u_inf, row.u_l2, row.u_energy, row.correction_energy] == [
            tri.e_inf, tri.e_l2, tri.e_energy, corr
        ]

    def test_problem_without_exact_solution_raises(self, no_exact_problem):
        spec = MeshSpec(family="roos", N=8, sigma=2.0, epsilon=1e-6)
        with pytest.raises(ValueError, match="exact solution"):
            interpolate_point(no_exact_problem, generate(spec), 1)


class TestInterpolationStudy:
    @pytest.mark.parametrize(
        "n_values,rule",
        [((8, 9), "N must be an even integer >= 4, got 9"), ((8, 16, 8), "N_list repeats 8")],
    )
    def test_invalid_sweep_fails_before_any_mesh_is_built(self, n_values, rule, monkeypatch):
        built = []
        monkeypatch.setattr(study, "generate", built.append)
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            interpolation_study("roos", 1, n_values)
        assert built == []

    def test_columns_positive_and_decreasing(self):
        rows = interpolation_study("roos", 1, (8, 16), epsilons=(1e-6,))
        assert len(rows) == 2
        assert rows[0].u_energy > rows[1].u_energy > 0.0
        assert rows[0].correction_energy > rows[1].correction_energy > 0.0

    def test_a_non_finite_value_fails_its_row_in_any_point_order(self, monkeypatch):
        # A NaN dropped out of max(0.0, nan) before; now the row reads NaN.
        values = {1e-4: (0.3, 0.2, 0.4, 0.1), 1e-6: (0.2, math.nan, 0.3, 0.1),
                  1e-8: (0.1, 0.1, 0.5, 0.2)}
        monkeypatch.setattr(study, "interpolate_point", lambda problem, mesh, k: (
            study.ErrorTriple(*values[mesh.spec.epsilon][:3]), values[mesh.spec.epsilon][3]))
        meshes = [SimpleNamespace(N=8, spec=SimpleNamespace(epsilon=eps)) for eps in values]
        for order in itertools.permutations(meshes):
            [row] = study._interpolation_rows("layer-test", [(mesh, 1) for mesh in order])
            assert all(map(math.isnan, (row.u_inf, row.u_l2, row.u_energy, row.correction_energy)))
        del values[1e-6]
        [row] = study._interpolation_rows("layer-test", [(mesh, 1) for mesh in meshes[::2]])
        assert (row.u_inf, row.u_l2, row.u_energy, row.correction_energy) == (0.3, 0.2, 0.5, 0.2)

    def test_one_error_norms_call_per_point(self, monkeypatch):
        # The correction's norm is closed-form; only u - u^I is integrated.
        calls, original = [], study.error_norms

        def counted(*args, **kwargs):
            calls.append(args[0].mesh.N)
            return original(*args, **kwargs)

        monkeypatch.setattr(study, "error_norms", counted)
        interpolation_study("kopteva", 2, (8, 16), epsilons=(1e-5, 1e-7, 1e-9))
        assert sorted(calls) == [8] * 3 + [16] * 3
