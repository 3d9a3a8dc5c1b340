"""Workloads of the layerfem benchmark: op lists, op runners and correctness gates.

One op is one (family, k, N, epsilon) point.  Each workload has

* ``ops``: the op list, in canonical order (the seed only permutes it);
* ``run_op(op)``: the timed call into the library's public API;
* ``reduce(results)``: timed work done once per pass on all results
  (``aggregate`` and ``emit`` for ``study``, nothing otherwise);
* ``check(ops, results, reduced)``: the untimed gate, returning the set of
  op indices whose result failed its check.

Tolerances (applied as |got - ref| <= max(rel * |ref|, floor)):

* published tables (``study``): 2% on e^N and 0.03 on the rate, relaxed to
  25% and 0.3 in the round-off regime e^N < 1e-8, as in the acceptance suite;
* per-op references (``solve-fine``, ``interp``): the same 2% / 25% split
  at 1e-8, plus the absolute floors ``NODAL_FLOOR`` and ``NORM_FLOORS`` for
  values that sit at round-off, where any change of summation order moves
  the last digits;
* interpolation rates (``interp``): the acceptance suite's criterion, i.e.
  the mean of the last three log2 ratios over N = 64..1024 within 0.25 of
  k + 1 (max norm) and k (energy norm), and >= sigma - 0.25 for the layer
  correction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from layerfem import femcore, mesh, problem, study

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PROBLEM = "layer-test"
FAMILIES = ("roos", "kopteva")
EPSILONS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)

ROUNDOFF_THRESHOLD = 1e-8
REL_TOL = 0.02
REL_TOL_ROUNDOFF = 0.25
RATE_TOL = 0.03
RATE_TOL_ROUNDOFF = 0.3
# Nodal errors at N >= 1024 are pure round-off for k >= 2 (1e-11..7e-11
# at the seed commit); another stable banded solver lands anywhere in that
# range, while a wrong solve is off by orders of magnitude.
NODAL_FLOOR = 1e-10
# Interpolation errors of u at k = 4, N = 1024 reach round-off (u_l2 ~ 1e-16,
# u_inf ~ 1e-13).  The correction has no cancellation (its exact part is zero
# and Gauss quadrature integrates it exactly), so it gets no floor.
NORM_FLOORS = {"u_inf": 1e-14, "u_l2": 1e-14, "u_energy": 1e-14, "correction_energy": 0.0}
INTERP_RATE_N = (64, 128, 256, 512, 1024)
INTERP_RATE_TOL = 0.25

Op = tuple[str, int, int, float]
_DEFAULTS = study.StudyConfig()


def op_key(op: Op) -> str:
    family, k, n, eps = op
    return f"{family}/k{k}/N{n}/eps{eps:.0e}"


def within(got: float, ref: float, floor: float = 0.0) -> bool:
    """Stated tolerance: 2% (25% below 1e-8) relative, or ``floor`` absolute."""
    if not math.isfinite(got):
        return False
    rel = REL_TOL if abs(ref) >= ROUNDOFF_THRESHOLD else REL_TOL_ROUNDOFF
    return abs(got - ref) <= max(rel * abs(ref), floor)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def _mesh_spec(op: Op) -> mesh.MeshSpec:
    family, k, n, eps = op
    return mesh.MeshSpec(
        family=mesh.MeshFamily(family),
        N=n,
        sigma=_DEFAULTS.sigma_for(k),
        epsilon=eps,
        c1=_DEFAULTS.c1_for(k),
    )


def _sweep_ops() -> tuple[Op, ...]:
    """The default study grid: N = 8..2048 for k <= 2 and 8..1024 for k >= 3."""
    return tuple(
        (family, k, n, eps)
        for family in FAMILIES
        for k in (1, 2, 3, 4)
        for n in _DEFAULTS.n_list_for(k)
        for eps in EPSILONS
    )


# --- study -----------------------------------------------------------------


def _study_op(op: Op) -> study.ConvergenceRecord:
    family, k, n, eps = op
    config = study.StudyConfig(
        families=(family,), k_list=(k,), N_list=(n,), epsilons=(eps,), problem=PROBLEM
    )
    return study.run_study(config).records[0]


def _study_reduce(results: list) -> tuple[list, str]:
    return study.aggregate(results), study.emit(results, "table")


def parse_table(text: str) -> dict[tuple[str, int, int], tuple[float, float | None]]:
    """Read the rendered aggregate table back into {(family, k, N): (e^N, r^N)}."""
    cells = {}
    for block in text.strip().split("\n\n"):
        lines = block.splitlines()
        k = int(lines[0].split()[2])
        families = [word[:-1] for word in lines[1].split() if word.endswith(":")]
        for line in lines[2:]:
            tokens = line.split()
            if len(tokens) != 1 + 2 * len(families):
                raise ValueError(f"malformed table row {line!r}")
            n = int(tokens[0])
            for i, family in enumerate(families):
                e_text, rate_text = tokens[1 + 2 * i], tokens[2 + 2 * i]
                rate = None if rate_text == "—" else float(rate_text)
                cells[(family, k, n)] = (float(e_text), rate)
    return cells


def table_failures(cells: dict, published: dict, covered: set) -> set[tuple[str, int, int]]:
    """Cells (family, k, N) that miss the published table, among those ``covered``.

    A covered cell is one whose every epsilon is in the op list; its rate is
    checked only when the 2N cell is covered too.
    """
    bad = set()
    for (family, k), rows in published.items():
        for n, e_ref, rate_ref in rows:
            key = (family, k, n)
            if key not in covered:
                continue
            if key not in cells:
                bad.add(key)
                continue
            e_got, rate_got = cells[key]
            roundoff = e_ref is not None and e_ref < ROUNDOFF_THRESHOLD
            if e_ref is not None and not within(e_got, e_ref):
                bad.add(key)
            if rate_ref is not None and (family, k, 2 * n) in covered:
                tol = RATE_TOL_ROUNDOFF if roundoff else RATE_TOL
                if rate_got is None or not abs(rate_got - rate_ref) <= tol:
                    bad.add(key)
    return bad


def _published() -> dict:
    raw = load_reference("published_tables.json")["tables"]
    out = {}
    for entry in raw:
        out[(entry["family"], entry["k"])] = [tuple(row) for row in entry["rows"]]
    return out


def _covered(ops) -> set[tuple[str, int, int]]:
    eps_by_cell: dict[tuple[str, int, int], set] = {}
    for family, k, n, eps in ops:
        eps_by_cell.setdefault((family, k, n), set()).add(eps)
    return {cell for cell, seen in eps_by_cell.items() if seen >= set(EPSILONS)}


def _study_check(ops, results, reduced) -> set[int]:
    rows, text = reduced
    bad = {
        i
        for i, rec in enumerate(results)
        if rec.error is not None
        or not all(
            math.isfinite(v) and v > 0.0 for v in (rec.e_inf, rec.e_l2, rec.e_energy)
        )
    }
    published = _published()
    covered = _covered(ops)
    try:
        text_cells = parse_table(text)
    except (ValueError, IndexError):
        text_cells = {}
    row_cells = {(r.family, r.k, r.N): (r.e_uniform, r.rate) for r in rows}
    bad_cells = table_failures(text_cells, published, covered) | table_failures(
        row_cells, published, covered
    )
    bad.update(i for i, op in enumerate(ops) if op[:3] in bad_cells)
    return bad


# --- solve-fine ------------------------------------------------------------


def _solve_fine_ops() -> tuple[Op, ...]:
    """N >= 1024 for k = 1..4: up to the study's top N of 2048 for k <= 2, and
    1536 for k >= 3 so that a pass has over 100 ops and stays near 6 s."""
    n_by_k = {1: (1024, 1536, 2048), 2: (1024, 1536, 2048), 3: (1024, 1536), 4: (1024, 1536)}
    return tuple(
        (family, k, n, eps)
        for family in FAMILIES
        for k in (1, 2, 3, 4)
        for n in n_by_k[k]
        for eps in EPSILONS
    )


def _solve_fine_op(op: Op):
    k, eps = op[1], op[3]
    bvp = problem.get_problem(PROBLEM, eps)
    grid = mesh.generate(_mesh_spec(op))
    system = femcore.assemble(bvp, grid, k)
    return bvp, grid, femcore.solve(system)


def nodal_error(op: Op, result) -> float:
    """max_m |U_m - u(x_m)| over the interior global nodes."""
    bvp, grid, interior = result
    x = femcore.global_nodes(grid, op[1])[1:-1]
    return float(np.max(np.abs(np.asarray(interior) - bvp.exact.u(x))))


def _solve_fine_check(ops, results, reduced) -> set[int]:
    ref = load_reference("solve_fine.json")["nodal_error"]
    return {
        i
        for i, (op, res) in enumerate(zip(ops, results))
        if not within(nodal_error(op, res), ref[op_key(op)], NODAL_FLOOR)
    }


# --- interp ----------------------------------------------------------------

INTERP_FIELDS = tuple(NORM_FLOORS)


def _interp_op(op: Op):
    family, k, n, eps = op
    return study.interpolation_study(family, k, (n,), (eps,), problem=PROBLEM)[0]


def _mean_rate(errors: list[float]) -> float:
    """Mean of the last three log2 ratios; NaN unless every error is positive."""
    if not all(e > 0.0 and math.isfinite(e) for e in errors):
        return math.nan
    ratios = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    return sum(ratios[-3:]) / len(ratios[-3:])


def interp_rate_failures(ops, results) -> set[tuple[str, int]]:
    """(family, k) groups whose interpolation rates miss the acceptance criterion.

    Only groups covering every epsilon at every N in ``INTERP_RATE_N`` are judged.
    """
    covered = _covered(ops)
    worst: dict[tuple[str, int, int], list[float]] = {}
    for op, row in zip(ops, results):
        cell = worst.setdefault(op[:3], [0.0] * len(INTERP_FIELDS))
        for j, name in enumerate(INTERP_FIELDS):
            cell[j] = max(cell[j], getattr(row, name))
    bad = set()
    for family, k in {op[:2] for op in ops}:
        cells = [(family, k, n) for n in INTERP_RATE_N]
        if not all(c in covered for c in cells):
            continue
        u_inf, _, u_energy, corr = zip(*(worst[c] for c in cells))
        sigma = _DEFAULTS.sigma_for(k)
        if (
            not abs(_mean_rate(list(u_inf)) - (k + 1)) <= INTERP_RATE_TOL
            or not abs(_mean_rate(list(u_energy)) - k) <= INTERP_RATE_TOL
            or not _mean_rate(list(corr)) >= sigma - INTERP_RATE_TOL
        ):
            bad.add((family, k))
    return bad


def _interp_check(ops, results, reduced) -> set[int]:
    ref = load_reference("interp.json")["rows"]
    bad = set()
    for i, (op, row) in enumerate(zip(ops, results)):
        expected = ref[op_key(op)]
        if not all(
            within(getattr(row, name), expected[name], floor)
            for name, floor in NORM_FLOORS.items()
        ):
            bad.add(i)
    bad_groups = interp_rate_failures(ops, results)
    bad.update(
        i for i, op in enumerate(ops) if op[:2] in bad_groups and op[2] in INTERP_RATE_N
    )
    return bad


# --- registry --------------------------------------------------------------


def _no_reduce(results: list) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    run_op: Callable[[Op], object]
    reduce: Callable[[list], object]
    check: Callable[[tuple, list, object], set[int]]


WORKLOADS = {
    "study": Workload(_sweep_ops(), _study_op, _study_reduce, _study_check),
    "solve-fine": Workload(_solve_fine_ops(), _solve_fine_op, _no_reduce, _solve_fine_check),
    "interp": Workload(_sweep_ops(), _interp_op, _no_reduce, _interp_check),
}
# The tiny op each workload finishes once before timing and in set-up runs.
WARMUP_OP: Op = ("roos", 1, 8, 1e-4)
