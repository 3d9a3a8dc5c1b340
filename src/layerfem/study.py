"""Convergence experiment driver.

Sweeps (mesh family, degree, N, epsilon) over a benchmark problem, records
the three error norms of each run (one :func:`solve_point`), aggregates the
uniform error e^N = max_epsilon ||u - u^N||_eps and the rates
r^N = log2(e^N / e^{2N}), and renders the results as CSV or an aligned text
table.  :func:`interpolation_study` sweeps the interpolant the same way, one
:func:`interpolate_point` per point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .femcore import PiecewisePolynomial, _check_degree, galerkin_solve
from .interpolants import build_bundle
from .mesh import Mesh1D, MeshFamily, MeshSpec, generate
from .norms import ErrorTriple, error_norms, polynomial_energy_norm
from .problem import _PROBLEMS, get_problem

__all__ = [
    "StudyConfig",
    "ConvergenceRecord",
    "AggregateRow",
    "StudyResult",
    "run_study",
    "solve_point",
    "interpolate_point",
    "aggregate",
    "emit",
    "format_error",
    "interpolation_study",
    "DEFAULT_EPSILONS",
    "defaults_for",
]

DEFAULT_EPSILONS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)

# Rates computed from errors this close to round-off are meaningless.
_RATE_FLOOR = 1e-13


def defaults_for(
    k: int, sigma: float | None = None, c1: float | None = None
) -> tuple[float, float]:
    """Mesh parameters (sigma, c1) for degree k: ``sigma`` and ``c1`` where
    given, else the defaults (k + 1, 5(k+1)/4)."""
    _check_degree(k)
    return (
        float(k + 1) if sigma is None else sigma,
        5.0 * (k + 1) / 4.0 if c1 is None else c1,
    )


@dataclass(frozen=True)
class StudyConfig:
    """Sweep definition; None for sigma, c1 or N_list selects per-degree defaults.

    Defaults: sigma and c1 from :func:`defaults_for`, and N doubling from 8 up to 2048
    for k <= 2 or 1024 for k >= 3.  Construction checks the whole sweep before
    any point runs: the problem name (:func:`get_problem`'s message), each family, each
    degree (:func:`defaults_for`, the one degree rule), and each point's :class:`MeshSpec`
    in sweep order (its N, sigma, epsilon and c1 messages), then that no list repeats an
    entry.  Only the graded map's own conditions, checked by :func:`generate` as it builds
    the map, are left to the points, where a violation becomes a failed record.
    """

    families: tuple[str, ...] = ("roos", "kopteva")
    k_list: tuple[int, ...] = (1, 2, 3, 4)
    sigma: float | None = None
    c1: float | None = None
    N_list: tuple[int, ...] | None = None
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    problem: str = "layer-test"
    _points: tuple[tuple[MeshSpec, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.families and self.k_list and self.epsilons and self.N_list != ()):
            raise ValueError("families, k_list, N_list and epsilons must be nonempty")
        if self.problem not in _PROBLEMS:
            get_problem(self.problem, self.epsilons[0])
        for family in self.families:
            MeshFamily(family)
        points = []   # each point's MeshSpec checks its N, sigma, epsilon, c1
        for family in self.families:
            for k in self.k_list:
                sigma, c1 = defaults_for(k, self.sigma, self.c1)
                for n_intervals in self.n_list_for(k):
                    for eps in self.epsilons:
                        points.append((MeshSpec(family, n_intervals, sigma, eps, c1), k))
        object.__setattr__(self, "_points", tuple(points))
        for name in ("families", "k_list", "N_list", "epsilons"):
            values = list(getattr(self, name) or ())
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} repeats {value}")

    def sigma_for(self, k: int) -> float:
        return defaults_for(k, self.sigma, self.c1)[0]

    def c1_for(self, k: int) -> float:
        return defaults_for(k, self.sigma, self.c1)[1]

    def n_list_for(self, k: int) -> tuple[int, ...]:
        if self.N_list is not None:
            return self.N_list
        top = 2048 if k <= 2 else 1024
        out = []
        n = 8
        while n <= top:
            out.append(n)
            n *= 2
        return tuple(out)

    def points(self) -> tuple[tuple[MeshSpec, int], ...]:
        """The sweep's (mesh spec, degree) points in run order: family, k, N, then
        epsilon; built once, by the construction's check."""
        return self._points


@dataclass(frozen=True)
class ConvergenceRecord:
    """Errors of one (family, k, sigma, N, epsilon) run; NaN errors mark a failure."""

    family: str
    k: int
    sigma: float
    N: int
    epsilon: float
    e_inf: float
    e_l2: float
    e_energy: float
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    """Uniform error e^N = max_epsilon e_energy and its rate against 2N."""

    family: str
    k: int
    sigma: float
    N: int
    e_uniform: float
    rate: float | None


@dataclass(frozen=True)
class StudyResult:
    records: list[ConvergenceRecord] = field(default_factory=list)


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full sweep; individual failures are recorded, not raised."""
    return StudyResult(records=[_single_run(config.problem, *point) for point in config.points()])


def solve_point(problem: str, mesh: Mesh1D, k: int) -> tuple[PiecewisePolynomial, ErrorTriple]:
    """Galerkin solution of degree ``k`` on ``mesh`` (at its spec's epsilon) and its error norms.

    The one problem -> FEM -> norms chain of :func:`run_study` and the ``solve`` command;
    each caller builds the mesh first, so a broken mesh rule is reported before failing
    problem data.  A problem without an exact solution raises a ValueError.
    """
    bvp = get_problem(problem, mesh.spec.epsilon)
    if bvp.exact is None:
        raise ValueError(f"problem {problem!r} has no exact solution to measure against")
    fem = galerkin_solve(bvp, mesh, k)
    return fem, error_norms(fem, bvp.exact.u_and_prime, bvp.epsilon, far_field=bvp.exact.far_field)


def interpolate_point(problem: str, mesh: Mesh1D, k: int) -> tuple[ErrorTriple, float]:
    """Error norms of the degree-``k`` interpolant u^I on ``mesh`` and the energy norm of
    its layer correction: the one chain of :func:`interpolation_study` and ``verify``."""
    bvp = get_problem(problem, mesh.spec.epsilon)
    bundle = build_bundle(bvp.exact, mesh, k)
    tri = error_norms(bundle.u_interp, bvp.exact.u_and_prime, bvp.epsilon, far_field=bvp.exact.far_field)
    return tri, polynomial_energy_norm(bundle.correction, bvp.epsilon)


def _single_run(problem: str, spec: MeshSpec, k: int) -> ConvergenceRecord:
    point = (spec.family.value, k, spec.sigma, spec.N, spec.epsilon)
    try:
        _, tri = solve_point(problem, generate(spec), k)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        nan = float("nan")
        return ConvergenceRecord(*point, nan, nan, nan, str(exc))
    return ConvergenceRecord(*point, tri.e_inf, tri.e_l2, tri.e_energy)


def aggregate(records: list[ConvergenceRecord]) -> list[AggregateRow]:
    """Reduce per-epsilon records to uniform errors and rates, ordered by (family, k, N)."""
    groups: dict[tuple[str, int, float, int], list[ConvergenceRecord]] = {}
    for rec in records:
        groups.setdefault((rec.family, rec.k, rec.sigma, rec.N), []).append(rec)

    uniform: dict[tuple[str, int, float, int], float] = {}
    for key, recs in groups.items():
        ok = all(r.error is None and math.isfinite(r.e_energy) for r in recs)
        uniform[key] = max(r.e_energy for r in recs) if ok else math.nan

    rows = []
    for (family, k, sigma, n_intervals) in sorted(uniform):
        e_n = uniform[(family, k, sigma, n_intervals)]
        e_2n = uniform.get((family, k, sigma, 2 * n_intervals))
        rate = None
        if e_2n is not None and e_n > _RATE_FLOOR and e_2n > _RATE_FLOOR:   # False for NaN
            rate = math.log2(e_n / e_2n)
        rows.append(AggregateRow(family, k, sigma, n_intervals, e_n, rate))
    return rows


def format_error(value: float) -> str:
    """Three-significant-digit scientific notation with a leading 0, e.g. 0.642E-02."""
    if not math.isfinite(value):
        return "ERR"
    if value == 0.0:
        return "0.000E+00"
    exp = math.floor(math.log10(abs(value))) + 1
    mant = round(value / 10.0**exp, 3)
    if abs(mant) >= 1.0:
        mant /= 10.0
        exp += 1
    return f"{mant:.3f}E{exp:+03d}"


def _format_rate(rate: float | None) -> str:
    return "—" if rate is None else f"{rate:.2f}"


def emit(records: list[ConvergenceRecord], fmt: str) -> str:
    """Render records as ``csv`` (one row per run) or ``table`` (aggregated)."""
    if fmt == "csv":
        return _emit_csv(records)
    if fmt == "table":
        return _emit_table(records)
    raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'table'")


def _emit_csv(records: list[ConvergenceRecord]) -> str:
    ordered = sorted(records, key=lambda r: (r.family, r.k, r.N, r.epsilon))
    lines = ["family,k,sigma,N,epsilon,e_inf,e_l2,e_energy"]
    for r in ordered:
        lines.append(
            f"{r.family},{r.k},{r.sigma!r},{r.N},{r.epsilon!r},"
            f"{r.e_inf!r},{r.e_l2!r},{r.e_energy!r}"
        )
    return "\n".join(lines) + "\n"


def _emit_table(records: list[ConvergenceRecord]) -> str:
    rows = aggregate(records)
    if not rows:
        raise ValueError("no records to tabulate")
    by_k: dict[int, list[AggregateRow]] = {}
    for row in rows:
        by_k.setdefault(row.k, []).append(row)

    blocks = []
    for k in sorted(by_k):
        krows = by_k[k]
        families = sorted({r.family for r in krows})
        n_values = sorted({r.N for r in krows})
        cell = {(r.family, r.N): r for r in krows}
        sigma = krows[0].sigma

        header = f"k = {k}  (sigma = {sigma:g})"
        col_head = f"{'N':>6}"
        for fam in families:
            col_head += f"  {fam + ': e^N':>16} {'r^N':>6}"
        lines = [header, col_head]
        for n_intervals in n_values:
            line = f"{n_intervals:>6}"
            for fam in families:
                row = cell.get((fam, n_intervals))
                if row is None:
                    line += f"  {'':>16} {'':>6}"
                else:
                    line += f"  {format_error(row.e_uniform):>16} {_format_rate(row.rate):>6}"
            lines.append(line)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@dataclass(frozen=True)
class InterpolationRow:
    """Interpolation errors for one (k, N), maximized over the epsilon sweep."""

    k: int
    N: int
    u_inf: float
    u_l2: float
    u_energy: float
    correction_energy: float


def interpolation_study(
    family: str,
    k: int,
    n_values: tuple[int, ...],
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
    problem: str = StudyConfig.problem,
) -> list[InterpolationRow]:
    """Measure interpolation errors of u - u^I and the layer correction.

    The sweep is a one-family, one-degree :class:`StudyConfig` at the degree's default
    mesh parameters, checked whole before any mesh.
    """
    config = StudyConfig((family,), (k,), N_list=n_values, epsilons=epsilons, problem=problem)
    return _interpolation_rows(problem, ((generate(spec), k) for spec, k in config.points()))


def _interpolation_rows(problem: str, points: Iterable[tuple[Mesh1D, int]]) -> list[InterpolationRow]:
    """One :class:`InterpolationRow` per (k, N) of the (mesh, k) ``points``: the max over epsilon."""
    worst: dict[tuple[int, int], list[float]] = {}
    for mesh, k in points:
        tri, corr = interpolate_point(problem, mesh, k)
        prev, values = worst.get((k, mesh.N), [0.0] * 4), (tri.e_inf, tri.e_l2, tri.e_energy, corr)
        # A non-finite value fails its point, and its row reads NaN whatever the point order.
        ok = all(map(math.isfinite, values + tuple(prev)))
        worst[k, mesh.N] = [max(w, v) if ok else math.nan for w, v in zip(prev, values)]
    return [InterpolationRow(k, n_intervals, *w) for (k, n_intervals), w in worst.items()]
