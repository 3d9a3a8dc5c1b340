"""Command-line interface.

Subcommands: ``mesh`` (emit mesh CSV), ``solve`` (single run, sampled
solution CSV), ``study`` (full convergence sweep), ``verify`` (mesh and
interpolation checks).  Exit codes: 0 success, 1 invalid arguments,
2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .femcore import SingularMatrixError, _element_points, _element_rows, _point_table
from .mesh import MeshFamily, check_step_sizes, generate, mesh_to_csv
from .problem import get_problem
from .study import (
    StudyConfig,
    _interpolation_rows,
    defaults_for,
    emit,
    format_error,
    run_study,
    solve_point,
)

_FAMILY_CHOICES = [f.value for f in MeshFamily]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparser of each command."""
    parser = argparse.ArgumentParser(
        prog="layerfem",
        description="Galerkin FEM on layer-adapted meshes for singularly "
        "perturbed convection-diffusion problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, summary: str, *, k_help: str | None = None
    ) -> argparse.ArgumentParser:
        """Add a command; only commands given a ``k_help`` take --k and --problem."""
        p = sub.add_parser(name, help=summary)
        # Every list flag appends; a command that takes one value reads it
        # through _single, which rejects a repeat.  Only study sweeps families,
        # and study and verify sweep N and epsilon.
        families = " (repeatable)" if name == "study" else ""
        p.add_argument("--mesh-type", action="append", choices=_FAMILY_CHOICES,
                       help="mesh family" + families)
        # Without --k the mesh is built with the k = 1 defaults.
        sigma, c1 = ("k+1", "5(k+1)/4") if k_help else (f"{d:g}" for d in defaults_for(1))
        each = " (repeatable)" if name in ("study", "verify") else ""
        p.add_argument("--sigma", type=float, help=f"mesh grading exponent (default {sigma})")
        p.add_argument("--c1", type=float, help=f"breakpoint constant (default {c1})")
        p.add_argument("--N", action="append", type=int, help="mesh intervals" + each)
        p.add_argument("--epsilon", action="append", type=float, help="perturbation parameter" + each)
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--config", help="key=value config file; flags override it")
        if k_help:
            p.add_argument("--k", action="append", type=int, help=k_help)
            p.add_argument("--problem", default=StudyConfig.problem,
                           help="benchmark problem name (default %(default)s)")
        return p

    add_command("mesh", "generate a mesh and emit it as CSV")
    p_solve = add_command("solve", "solve one configuration and emit sampled values", k_help="polynomial degree")
    p_solve.add_argument("--samples", type=int, default=8, help="sample points per element (default %(default)s)")
    p_study = add_command("study", "run the convergence sweep", k_help="polynomial degree (repeatable)")
    p_study.add_argument("--format", choices=["csv", "table"], default="table",
                         help="output format (default %(default)s)")
    add_command("verify", "run mesh and interpolation checks", k_help="polynomial degree (repeatable)")
    return parser, sub.choices


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's lines are parsed as flags placed before argv's own.

    A scalar flag on the command line therefore wins over the file, and a
    repeatable flag given on the command line replaces the file's list.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    tokens = []
    for key, value in _load_config_file(args.config).items():
        action = commands[args.command]._option_string_actions.get(f"--{key}")
        if action is None or key == "config" or not hasattr(args, action.dest):
            raise ValueError(f"unknown config key {key!r}")
        if not isinstance(action, argparse._AppendAction):
            tokens.append(f"--{key}={value}")
        elif getattr(args, action.dest) is None:
            tokens += [f"--{key}={item}" for item in value.split(",") if item]
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _single(values, name: str):
    if values is None:
        raise ValueError(f"--{name} is required")
    if len(values) != 1:
        raise ValueError(f"--{name} must be given exactly once for this command")
    return values[0]


def _config(args: argparse.Namespace, **defaults) -> StudyConfig:
    """The command's sweep, checked whole; each list flag given replaces its ``defaults`` entry."""
    flags = {"families": args.mesh_type, "k_list": getattr(args, "k", None),
             "N_list": args.N, "epsilons": args.epsilon}
    given = {key: tuple(values) for key, values in flags.items() if values}
    return StudyConfig(**{**defaults, **given}, sigma=args.sigma, c1=args.c1,
                       problem=getattr(args, "problem", StudyConfig.problem))


def _point(args: argparse.Namespace):
    """The mesh spec and degree of a one-point command; without --k the degree is 1."""
    for values, name in ((args.N, "N"), (args.epsilon, "epsilon"), (args.mesh_type, "mesh-type")):
        _single(values, name)
    [point] = _config(args, k_list=(1,)).points()
    return point


def _write_output(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mesh(args: argparse.Namespace) -> None:
    _write_output(args, mesh_to_csv(generate(_point(args)[0])))


def _cmd_solve(args: argparse.Namespace) -> None:
    _single(args.k, "k")   # given once; _point reads it through the config
    spec, k = _point(args)
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    mesh = generate(spec)
    fem, tri = solve_point(args.problem, mesh, k)

    local = _point_table(np.linspace(0.0, 1.0, args.samples, endpoint=False))
    x = np.append(_element_points(_element_rows(mesh), local).ravel(), 1.0)
    u_num = fem.evaluate(x)
    u_ref = np.asarray(get_problem(args.problem, spec.epsilon).exact.u(x), dtype=float)
    lines = ["x,u_N,u_exact,error"]
    for xv, un, ue in zip(x, u_num, u_ref):
        lines.append(f"{float(xv)!r},{float(un)!r},{float(ue)!r},{float(un - ue)!r}")
    print(
        f"e_inf={tri.e_inf:.6e} e_l2={tri.e_l2:.6e} e_energy={tri.e_energy:.6e}",
        file=sys.stderr,
    )
    _write_output(args, "\n".join(lines) + "\n")


def _cmd_study(args: argparse.Namespace) -> None:
    result = run_study(_config(args))
    failed = [r for r in result.records if r.error is not None]
    for rec in failed:
        print(
            f"run failed: family={rec.family} k={rec.k} N={rec.N} "
            f"epsilon={rec.epsilon}: {rec.error}",
            file=sys.stderr,
        )
    _write_output(args, emit(result.records, args.format))


def _cmd_verify(args: argparse.Namespace) -> None:
    # verify's own defaults; the sweep is checked whole, then every mesh built before any problem.
    family = _single(args.mesh_type or ["roos"], "mesh-type")
    config = _config(args, families=(family,), k_list=(1, 2), N_list=(64, 128, 256, 512))
    points = [(generate(spec), k) for spec, k in config.points()]

    failed: dict[int, list[str]] = {k: [] for k in config.k_list}
    for mesh, k in points:
        checks = check_step_sizes(mesh)
        if not checks.all_bounds_hold:
            failed[k].append(f"  FAIL N={mesh.N} epsilon={mesh.spec.epsilon}: {checks}")
    lines = []
    for k, fails in failed.items():
        lines.append(f"mesh step-size checks ({family}, k = {k}, "
                     f"sigma = {config.sigma_for(k):g}, c1 = {config.c1_for(k):g})")
        lines += fails
        lines.append(f"  all step-size bounds hold: {'NO' if fails else 'yes'}")
    lines.append("")

    rows = _interpolation_rows(config.problem, points)
    for k in config.k_list:
        lines.append(f"interpolation errors, k = {k} (max over epsilon)")
        lines.append(
            f"{'N':>6} {'max|u-uI|':>12} {'rate':>6} {'L2':>12} {'rate':>6} "
            f"{'energy':>12} {'rate':>6} {'corr energy':>12} {'rate':>6}"
        )
        # A rate compares a row with the one above it only where N doubles between them.
        prev_n, prev = 0, None
        for row in [row for row in rows if row.k == k]:
            cells = [row.u_inf, row.u_l2, row.u_energy, row.correction_energy]
            line = f"{row.N:>6}"
            for idx, val in enumerate(cells):
                if row.N != 2 * prev_n or not (prev[idx] > 0.0 and val > 0.0):
                    rate = "  --"
                else:
                    rate = f"{np.log2(prev[idx] / val):.2f}"
                line += f" {format_error(val):>12} {rate:>6}"
            lines.append(line)
            prev_n, prev = row.N, cells
        lines.append("")
    _write_output(args, "\n".join(lines) + "\n")


_COMMANDS = {
    "mesh": _cmd_mesh,
    "solve": _cmd_solve,
    "study": _cmd_study,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    shown: set[str] = set()

    def show(message, *_) -> None:
        # A warning the filters let through is one "warning: ..." line, once per message.
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            args = _parse_args(argv)
            _COMMANDS[args.command](args)
        except SystemExit as exc:
            # argparse exits 2 on bad flags and 0 on --help; map bad flags to 1.
            return 0 if exc.code in (0, None) else 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (SingularMatrixError, ArithmeticError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
