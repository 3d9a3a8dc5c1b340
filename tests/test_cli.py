import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import (
    MeshAssumptionWarning,
    MeshFamily,
    MeshSpec,
    SingularMatrixError,
    StudyConfig,
    StudyResult,
    defaults_for,
    generate,
    solve_point,
)
from layerfem import cli, study
from layerfem.cli import main


class TestMeshCommand:
    def test_emits_csv(self, tmp_path, capsys):
        out = tmp_path / "mesh.csv"
        code = main(
            ["mesh", "--mesh-type", "roos", "--N", "8", "--sigma", "2",
             "--epsilon", "0.01", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "i,x_i,h_i"
        assert len(lines) == 10
        assert lines[-1].startswith("8,1.0,")
        assert lines[-1].endswith(",")
        # Node 4 is the breakpoint image -sigma*eps*ln(eps).
        x4 = float(lines[5].split(",")[1])
        assert x4 == pytest.approx(-2.0 * 0.01 * math.log(0.01), rel=1e-14)

    def test_writes_to_stdout_by_default(self, capsys):
        code = main(["mesh", "--mesh-type", "uniform", "--N", "4", "--sigma", "1",
                     "--epsilon", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.startswith("i,x_i,h_i")

    def test_missing_n_is_invalid_usage(self, capsys):
        assert main(["mesh", "--mesh-type", "roos", "--sigma", "2", "--epsilon", "0.01"]) == 1

    def test_unknown_flag_is_invalid_usage(self, capsys):
        assert main(["mesh", "--bogus", "1"]) == 1

    def test_unknown_subcommand_is_invalid_usage(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unwritable_output_is_io_failure(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "mesh.csv"
        code = main(
            ["mesh", "--mesh-type", "roos", "--N", "8", "--sigma", "2",
             "--epsilon", "0.01", "--out", str(out)]
        )
        assert code == 3


class TestSolveCommand:
    def test_emits_sample_csv(self, tmp_path, capsys):
        out = tmp_path / "solution.csv"
        code = main(
            ["solve", "--mesh-type", "roos", "--k", "2", "--N", "16",
             "--epsilon", "1e-6", "--samples", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,u_N,u_exact,error"
        assert len(lines) == 2 + 16 * 4  # header + samples + endpoint
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(float(first[1]) - float(first[2]))
        assert "e_energy=" in capsys.readouterr().err

    @pytest.mark.parametrize("family,k", [("roos", 4), ("kopteva", 3)])
    def test_stderr_reports_the_solve_point_errors(self, family, k, capsys):
        assert main(["solve", "--mesh-type", family, "--k", str(k), "--N", "32",
                     "--epsilon", "1e-7", "--samples", "2"]) == 0
        sigma, c1 = defaults_for(k)
        spec = MeshSpec(family=family, N=32, sigma=sigma, epsilon=1e-7, c1=c1)
        _, tri = solve_point("layer-test", generate(spec), k)
        expected = f"e_inf={tri.e_inf:.6e} e_l2={tri.e_l2:.6e} e_energy={tri.e_energy:.6e}\n"
        assert capsys.readouterr().err == expected

    def test_problem_without_exact_solution_is_invalid_usage(self, no_exact_problem, capsys):
        code = main(["solve", "--mesh-type", "roos", "--k", "1", "--N", "8",
                     "--epsilon", "1e-6", "--problem", no_exact_problem])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has no exact solution" in captured.err

    def test_unknown_problem_is_invalid_usage(self, capsys):
        code = main(
            ["solve", "--mesh-type", "roos", "--k", "1", "--N", "8",
             "--epsilon", "1e-6", "--problem", "nope"]
        )
        assert code == 1

    @pytest.mark.parametrize("flags", [["--N", "5"], ["--N", "8", "--samples", "0"]])
    def test_problem_is_checked_first_as_study_and_verify_do(self, flags, capsys):
        code = main(["solve", "--mesh-type", "roos", "--k", "2", "--epsilon", "1e-6",
                     *flags, "--problem", "nope"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: unknown problem 'nope'; available: layer-test\n"

    def test_kopteva_above_the_graded_range_solves_on_the_uniform_mesh(self, capsys):
        # eps = 0.1 > 1/N: the breakpoint 1/2 - 5*0.1 = 0 is never used.
        outputs = []
        for family in ("roos", "kopteva"):
            assert main(["solve", "--mesh-type", family, "--k", "3", "--N", "16",
                         "--epsilon", "0.1"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]


    def test_samples_must_be_positive(self, capsys):
        code = main(["solve", "--mesh-type", "roos", "--N", "8", "--epsilon", "1e-6",
                     "--k", "1", "--samples", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --samples must be positive\n"

    @pytest.mark.filterwarnings("error")
    def test_non_finite_data_is_invalid_usage(self, capsys):
        # At eps = 1e-160, u''(0) ~ -4/eps^2 overflows, so f(0) is not finite.
        code = main(["solve", "--mesh-type", "kopteva", "--N", "8", "--sigma", "2",
                     "--epsilon", "1e-160", "--c1", "1e159", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: f(x) must be finite on [0, 1]; sampled f(0) = inf\n"

    @pytest.mark.filterwarnings("error")
    def test_a_broken_mesh_rule_is_reported_before_the_problem_data(self, capsys):
        # kopteva at eps = 1e-160 breaks both its breakpoint rule and the finite-f check.
        code = main(["solve", "--mesh-type", "kopteva", "--N", "8", "--epsilon", "1e-160", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: breakpoint t = 1/2 - 2.5*1e-160 = 0.5 must lie in "
                                "(0, 1/2 - 2^-52]\n")

    def test_a_mesh_warning_is_printed_before_failing_problem_data(self, capsys):
        # The mesh is built first: c1 = 2e159 exceeds 1/(eps*N) = 1.25e159, and
        # f overflows at eps = 1e-160.
        code = main(["solve", "--mesh-type", "kopteva", "--N", "8", "--sigma", "2",
                     "--epsilon", "1e-160", "--c1", "2e159", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "warning: breakpoint constant 2e+159 exceeds 1/(epsilon*N) = 1.25e+159; "
            "step-size bounds may fail",
            "error: f(x) must be finite on [0, 1]; sampled f(0) = inf",
        ]

    def test_non_finite_data_prints_only_the_error_line(self):
        # The overflow is named once, by the error line: no numpy warning or
        # source line reaches stderr of the installed command.
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "layerfem.cli", "solve", "--mesh-type", "kopteva", "--N", "8",
             "--sigma", "2", "--epsilon", "1e-160", "--c1", "1e159", "--k", "2"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == "error: f(x) must be finite on [0, 1]; sampled f(0) = inf\n"

    def test_singular_system_is_numerical_failure(self, monkeypatch, capsys):
        def singular(problem, spec, k):
            raise SingularMatrixError(pivot_index=3)

        monkeypatch.setattr("layerfem.cli.solve_point", singular)
        code = main(["solve", "--mesh-type", "roos", "--N", "8", "--epsilon", "1e-6", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "numerical failure: zero or non-finite pivot at elimination step 3\n"


@pytest.mark.parametrize(
    "flag,rule",
    [("--sigma", "sigma must be >= 1, got nan"), ("--c1", "c1 must be positive, got nan")],
    ids=["sigma", "c1"],
)
@pytest.mark.parametrize("command", ["mesh", "solve", "study", "verify"])
def test_every_command_rejects_a_nan_mesh_parameter_before_any_mesh_is_built(
    command, flag, rule, monkeypatch, capsys
):
    built = []
    for module in ("cli", "study"):
        monkeypatch.setattr(f"layerfem.{module}.generate", built.append)
    argv = [command, "--mesh-type", "roos", "--N", "8", "--epsilon", "1e-6", flag, "nan"]
    code = main(argv if command == "mesh" else [*argv, "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert built == []
    assert captured.out == ""
    assert captured.err == f"error: {rule}\n"


@pytest.mark.parametrize("k", ["0", "-1", "11"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--mesh-type", "roos", "--N", "8", "--epsilon", "1e-6"],
        ["verify", "--N", "8"],
        ["study"],
    ],
    ids=["solve", "verify", "study"],
)
def test_every_command_applies_the_one_degree_rule(argv, k, capsys):
    assert main([*argv, "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: polynomial degree must lie in 1..10, got {k}\n"


class TestStudyCommand:
    def test_csv_deterministic(self, tmp_path, capsys):
        args = ["study", "--mesh-type", "roos", "--k", "1", "--N", "8", "--N", "16",
                "--epsilon", "1e-6", "--format", "csv"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n", 1)[0]
        assert header == "family,k,sigma,N,epsilon,e_inf,e_l2,e_energy"

    def test_table_to_stdout(self, capsys):
        code = main(["study", "--mesh-type", "roos", "--k", "1", "--N", "8",
                     "--N", "16", "--epsilon", "1e-7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k = 1" in out
        assert "roos: e^N" in out

    @pytest.mark.parametrize(
        "flags,rule",
        [
            (["--problem", "nope"], "unknown problem 'nope'"),
            (["--sigma", "0.5"], "sigma must be >= 1, got 0.5"),
            (["--c1", "-1"], "c1 must be positive, got -1.0"),
            (["--k", "0", "--problem", "nope"], "unknown problem 'nope'"),
            (["--mesh-type", "roos"], "families repeats roos"),
            (["--k", "1"], "k_list repeats 1"),
            (["--N", "8"], "N_list repeats 8"),
            (["--epsilon", "1e-6"], "epsilons repeats 1e-06"),
        ],
    )
    def test_invalid_sweep_fails_before_any_point_runs(self, flags, rule, monkeypatch, capsys):
        ran = []

        def solve_point(*args):
            ran.append(args)
            raise RuntimeError("a point ran")

        monkeypatch.setattr("layerfem.study.solve_point", solve_point)
        code = main(["study", "--mesh-type", "roos", "--k", "1", "--N", "8", "--N", "16",
                     "--epsilon", "1e-6", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert ran == []
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and rule in line

    def test_graded_map_failure_stays_a_failed_run(self, capsys):
        # theta = 1/2 - 6000*1e-4 < 0 at a graded point (eps <= 1/N).
        code = main(["study", "--mesh-type", "kopteva", "--c1", "6000", "--k", "1",
                     "--N", "8", "--epsilon", "1e-4"])
        captured = capsys.readouterr()
        assert code == 0
        [line] = captured.err.splitlines()
        assert line.startswith("run failed: family=kopteva k=1 N=8") and "breakpoint" in line
        assert "ERR" in captured.out

    def test_roos_runs_where_one_minus_eps_rounds_to_one(self, capsys):
        # At eps = 1e-20 only kopteva's breakpoint 1/2 - 2.5e-20 fails; roos's
        # column keeps the published k = 1 cells (the uniform error is the
        # same at every eps this small).
        code = main(["study", "--k", "1", "--N", "8", "--N", "16", "--epsilon", "1e-20"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.splitlines() == [
            f"run failed: family=kopteva k=1 N={n} epsilon=1e-20: "
            "breakpoint t = 1/2 - 2.5*1e-20 = 0.5 must lie in (0, 1/2 - 2^-52]"
            for n in (8, 16)
        ]
        rows = [line.split() for line in captured.out.splitlines()[2:]]
        assert rows == [["8", "ERR", "—", "0.338E+00", "1.02"], ["16", "ERR", "—", "0.167E+00", "—"]]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_data_is_a_failed_run(self, capsys):
        code = main(["study", "--mesh-type", "kopteva", "--N", "8", "--sigma", "2",
                     "--epsilon", "1e-160", "--c1", "1e159", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 0
        [line] = captured.err.splitlines()
        assert line == ("run failed: family=kopteva k=2 N=8 epsilon=1e-160: "
                        "f(x) must be finite on [0, 1]; sampled f(0) = inf")
        assert "ERR" in captured.out

    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "mesh-type=roos\n"
            "k=1\n"
            "N=8,16\n"
            "epsilon=1e-2\n"
            "format=csv\n"
        )
        code = main(["study", "--config", str(cfg), "--epsilon", "1e-7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1e-07" in out      # flag overrides the file value
        assert "0.01" not in out

    @pytest.mark.parametrize(
        "flags,expected",
        [
            ([], StudyConfig()),
            (["--k", "2", "--sigma", "3", "--epsilon", "1e-7"],
             StudyConfig(k_list=(2,), sigma=3.0, epsilons=(1e-7,))),
        ],
    )
    def test_flags_not_given_keep_study_config_defaults(self, monkeypatch, capsys, flags, expected):
        seen = []
        monkeypatch.setattr(
            "layerfem.cli.run_study", lambda config: seen.append(config) or StudyResult()
        )
        assert main(["study", "--format", "csv", *flags]) == 0
        assert seen == [expected]

    def test_scalar_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mesh-type=roos\nk=1\nN=8,16\nepsilon=1e-6\nformat=csv\n")
        assert main(["study", "--config", str(cfg), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "roos: e^N" in out
        assert not out.startswith("family,")

    @pytest.mark.parametrize(
        "line,flag", [("format=xml", "argument --format"), ("k=two", "argument --k")]
    )
    def test_config_values_are_checked_like_flags(self, tmp_path, monkeypatch, capsys, line, flag):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(line + "\n")
        seen = []
        monkeypatch.setattr("layerfem.cli.run_study", seen.append)
        assert main(["study", "--config", str(cfg)]) == 1
        assert seen == []
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mesh", "solve", "study", "verify"])
    @pytest.mark.parametrize("flags,message", [
        (["--mesh-type", "kopteva", "--c-eps", "2"], "unrecognized arguments: --c-eps 2"),
        (["--mesh-type", "original"], "argument --mesh-type: invalid choice: 'original'"),
    ], ids=["c-eps", "original"])
    def test_c_eps_and_original_are_rejected_by_every_command(self, command, flags, message, capsys):
        assert main([command, *flags, "--N", "16", "--epsilon", "1e-2"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mesh", "solve", "study", "verify"])
    def test_c_eps_config_key_is_rejected_by_every_command(self, command, tmp_path, capsys):
        cfg = tmp_path / "mesh.cfg"
        cfg.write_text("c-eps=2\n")
        assert main([command, "--config", str(cfg), "--mesh-type", "kopteva",
                     "--N", "16", "--epsilon", "1e-2"]) == 1
        assert "unknown config key 'c-eps'" in capsys.readouterr().err

    def test_config_file_bad_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("meshtype=roos\n")
        assert main(["study", "--config", str(cfg)]) == 1

    def test_config_file_bad_line(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("just some words\n")
        assert main(["study", "--config", str(cfg)]) == 1


class TestVerifyCommand:
    def test_reports_bounds_and_rates(self, tmp_path):
        out = tmp_path / "verify.txt"
        code = main(
            ["verify", "--mesh-type", "roos", "--k", "1", "--N", "16", "--N", "32",
             "--epsilon", "1e-6", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "all step-size bounds hold: yes" in text
        assert "interpolation errors, k = 1" in text
        assert "max|u-uI|" in text

    def test_step_sizes_checked_with_the_degree_defaults(self, tmp_path, monkeypatch):
        # The step-size check and the interpolation table of one degree use
        # the same mesh: sigma = k + 1 and c1 = 5(k+1)/4.
        import layerfem.cli as cli

        checked = []
        real_check = cli.check_step_sizes

        def spy(mesh):
            checked.append((mesh.spec.sigma, mesh.spec.c1))
            return real_check(mesh)

        monkeypatch.setattr(cli, "check_step_sizes", spy)
        out = tmp_path / "verify.txt"
        code = main(
            ["verify", "--mesh-type", "kopteva", "--k", "3", "--N", "16", "--N", "32",
             "--epsilon", "1e-6", "--out", str(out)]
        )
        assert code == 0
        assert checked == [(4.0, 5.0), (4.0, 5.0)]
        text = out.read_text()
        assert "mesh step-size checks (kopteva, k = 3, sigma = 4, c1 = 5)" in text
        assert "all step-size bounds hold: yes" in text

    def test_without_mesh_type_checks_roos(self, capsys):
        argv = ["verify", "--k", "1", "--N", "8", "--epsilon", "1e-6"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert implicit.startswith("mesh step-size checks (roos, k = 1, sigma = 2, c1 = 2.5)\n")
        assert main([*argv, "--mesh-type", "roos"]) == 0
        assert capsys.readouterr().out == implicit

    def test_reports_a_failed_step_size_bound(self, capsys):
        # eps*N = 0.83 lies outside the regime where the bounds are verified;
        # there the coarse steps fall below 1/N.
        code = main(["verify", "--mesh-type", "roos", "--N", "12", "--epsilon", "0.06875",
                     "--sigma", "3.157", "--k", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "mesh step-size checks (roos, k = 1, sigma = 3.157, c1 = 2.5)",
            "  FAIL N=12 epsilon=0.06875: StepSizeChecks(fine_steps_nondecreasing=True, "
            "pre_transition_step_bounded=True, transition_step_bounded=True, "
            "coarse_steps_bounded=False, midpoint_left_of_half=False)",
            "  all step-size bounds hold: NO",
        ]

    def test_a_non_finite_error_prints_err_and_no_rate(self, capsys, monkeypatch):
        real = study.interpolate_point

        def nan_at_128(problem, mesh, k):
            tri, corr = real(problem, mesh, k)
            return (tri, math.nan) if mesh.N == 128 else (tri, corr)

        monkeypatch.setattr(study, "interpolate_point", nan_at_128)
        assert main(["verify", "--k", "1", "--N", "64", "--N", "128", "--N", "256",
                     "--epsilon", "1e-6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("interpolation errors, k = 1 (max over epsilon)") + 2
        rows = [line.split() for line in lines[start:start + 3]]
        assert "nan" not in "\n".join(lines)
        # The point failed: its row reads ERR throughout, with no rate in it or below it.
        assert rows[1] == ["128"] + ["ERR", "--"] * 4
        assert rows[2][2::2] == ["--"] * 4 and "ERR" not in rows[0] + rows[2]

    def test_a_rate_is_printed_only_where_n_doubles_from_the_row_above(self, capsys):
        code = main(["verify", "--k", "1", "--N", "64", "--N", "128", "--N", "512", "--N", "256",
                     "--epsilon", "1e-6"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("interpolation errors, k = 1 (max over epsilon)") + 2
        rows = [line.split() for line in lines[start:start + 4]]
        assert [row[0] for row in rows] == ["64", "128", "512", "256"]
        for row in rows:
            errors, rates = [float(v) for v in row[1::2]], row[2::2]
            if row[0] == "128":
                # The errors are printed to three digits, the rates from the exact errors.
                assert [float(r) for r in rates] == pytest.approx(
                    [math.log2(p / e) for p, e in zip(previous, errors)], abs=0.01)
            else:
                assert rates == ["--"] * 4
            previous = errors

    def test_every_mesh_is_built_before_any_problem(self, capsys):
        # Alone, the first point fails on its problem data (f(0) = inf at eps = 1e-160);
        # the second point's mesh breaks the breakpoint rule, which is reported.
        code = main(["verify", "--mesh-type", "kopteva", "--c1", "1e150", "--epsilon", "1e-160",
                     "--epsilon", "1e-140", "--N", "64", "--k", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: breakpoint t = 1/2 - 1e+150*1e-140 = -9999999999.5 must lie in (0, 1/2 - 2^-52]\n"
        )

    def test_fail_lines_follow_the_sweep_order(self, capsys):
        # One degree's FAIL lines run N first, then epsilon, as StudyConfig.points() does.
        code = main(["verify", "--mesh-type", "roos", "--k", "1", "--sigma", "3.157",
                     "--N", "12", "--N", "20", "--epsilon", "0.06", "--epsilon", "0.06875"])
        assert code == 0
        fails = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  FAIL")]
        assert fails == ["  FAIL N=12 epsilon=0.06", "  FAIL N=12 epsilon=0.06875",
                         "  FAIL N=20 epsilon=0.06", "  FAIL N=20 epsilon=0.06875"]

    @pytest.mark.parametrize(
        "flags,rule",
        [
            (["--problem", "foo"], "unknown problem 'foo'; available: layer-test"),
            (["--k", "1", "--k", "-1"], "polynomial degree must lie in 1..10, got -1"),
            (["--epsilon", "1e-6", "--epsilon", "2"], "epsilon must lie in (0, 1), got 2.0"),
            (["--k", "2", "--k", "2"], "k_list repeats 2"),
            (["--N", "8"], "N_list repeats 8"),
            (["--epsilon", "1e-6", "--epsilon", "1e-6"], "epsilons repeats 1e-06"),
        ],
        ids=["problem", "degree", "epsilon", "repeated-k", "repeated-N", "repeated-epsilon"],
    )
    def test_invalid_sweep_fails_before_any_mesh_is_built(self, flags, rule, monkeypatch, capsys):
        built = []
        for module in ("cli", "study"):
            monkeypatch.setattr(f"layerfem.{module}.generate", built.append)
        code = main(["verify", "--N", "8", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert built == []
        assert captured.out == ""
        assert captured.err == f"error: {rule}\n"


@pytest.mark.parametrize("command", ["mesh", "solve", "study", "verify"])
def test_every_command_prints_a_mesh_warning_as_one_line(command, capsys):
    argv = [command, "--mesh-type", "kopteva", "--N", "16", "--epsilon", "1e-3", "--c1", "400"]
    argv = argv if command == "mesh" else [*argv, "--k", "1"]
    assert main(argv) == 0
    # verify warns from its step-size check and from its interpolation table: one line.
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("e_inf=")]
    assert lines == ["warning: breakpoint constant 400.0 exceeds 1/(epsilon*N) = 62.5; "
                     "step-size bounds may fail"]
    # Only the display changed: a filter that makes the warning an error still raises.
    with warnings.catch_warnings():
        warnings.simplefilter("error", MeshAssumptionWarning)
        with pytest.raises(MeshAssumptionWarning):
            main(argv)


_STDERR_PREFIXES = ("error:", "numerical failure:", "warning:", "run failed:")


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["mesh", "solve", "study", "verify"]),
    family=st.sampled_from([f.value for f in MeshFamily]),
    N=st.integers(2, 32).map(lambda n: 2 * n),
    k=st.integers(1, 4),
    log_eps=st.floats(-330.0, math.log10(0.5)),
)
def test_every_command_ends_in_an_exit_code_and_prefixed_lines(command, family, N, k, log_eps):
    # eps log-uniform down past the subnormals (10^-330 is 0.0): roos's whole
    # range, f's overflow below ~1e-154 and kopteva's breakpoint rule.
    argv = [command, "--mesh-type", family, "--N", str(N), "--epsilon", repr(10.0**log_eps)]
    argv = argv if command == "mesh" else [*argv, "--k", str(k)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    prefixes = _STDERR_PREFIXES + (("e_inf=",) if command == "solve" else ())
    assert all(line.startswith(prefixes) for line in err.getvalue().splitlines())
    assert code == 0 or out.getvalue() == ""


@pytest.mark.parametrize("command", ["mesh", "solve", "verify"])
def test_one_mesh_commands_reject_a_repeated_mesh_type(command, capsys):
    argv = [command, "--mesh-type", "roos", "--mesh-type", "kopteva",
            "--N", "16", "--epsilon", "1e-6"]
    code = main(argv if command == "mesh" else [*argv, "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --mesh-type must be given exactly once for this command\n"


def _help(command, flag):
    # The action's own text; rendered --help wraps it by terminal width.
    return cli._build_parser()[1][command]._option_string_actions[flag].help


class TestHelpText:
    @pytest.mark.parametrize("flag", ["--N", "--epsilon"])
    @pytest.mark.parametrize("command", ["mesh", "solve", "study", "verify"])
    def test_repeatable_exactly_where_a_second_value_is_accepted(self, command, flag, capsys):
        second = {"--N": "16", "--epsilon": "1e-5"}[flag]
        argv = [command, "--mesh-type", "roos", "--N", "8", "--epsilon", "1e-4", flag, second]
        accepted = main(argv if command == "mesh" else [*argv, "--k", "1"]) == 0
        assert ("(repeatable)" in _help(command, flag)) == accepted

    @pytest.mark.parametrize("flag", ["--sigma", "--c1"])
    def test_mesh_help_names_the_default_it_uses(self, flag, capsys):
        default = re.fullmatch(r".* \(default (.*)\)", _help("mesh", flag)).group(1)
        argv = ["mesh", "--mesh-type", "kopteva", "--N", "16", "--epsilon", "1e-6"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert main([*argv, flag, default]) == 0
        assert capsys.readouterr().out == implicit
