"""Acceptance suite.

Runs every exit criterion at its stated tolerance and prints one PASS/FAIL
line per criterion (visible with ``pytest -s`` or on failure):

  1. uniform-error table reproduction for k = 1, 2 (both graded families)
  2. uniform-error table reproduction for k = 3, 4 (round-off regime relaxed)
  3. fitted energy-norm convergence rate in [k - 0.1, k + 0.15]
  4. epsilon-uniformity: max/min energy error ratio <= 1.5 per (family, k, N)
  5. step-size bounds hold exactly on the full (N, epsilon, sigma) mesh grid
  6. interpolation error rates (max, energy, correction energy)
  7. independent oracle suites (assembly, condensed solve vs dense LU,
     Galerkin exactness, quadrature closed form)
  8. ||u^N - Pi u||_eps against the paper's corrected interpolant Pi u:
     rate >= k - 0.1 in every doubling, uniformly in eps
  9. the triangle inequality |e(u^N) - e(u^I)| <= ||u^N - u^I||_eps between
     the energy errors of the Galerkin solution and the interpolant

and checks the 408 default points bit for bit against ``bit_record.json`` and
the CLI's default outputs against their sha256.
"""

import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from layerfem import (
    Mesh1D,
    MeshFamily,
    MeshSpec,
    PiecewisePolynomial,
    StudyConfig,
    TwoPointBVP,
    aggregate,
    assemble,
    build_bundle,
    check_step_sizes,
    defaults_for,
    error_norms,
    galerkin_solve,
    generate,
    get_problem,
    interpolate_point,
    lagrange_interp,
    layer_test_problem,
    polynomial_energy_norm,
    run_study,
    solve,
)
from layerfem.cli import main
from layerfem.study import emit, interpolation_study, solve_point
from oracles import dense_matrix, dense_rhs, fitted_rate, writer

# Published uniform energy errors e^N and rates r^N per (N row).  A rate of
# None marks the final row; an error of None marks the known-typo cell that
# is excluded from the ground truth.
TABLE_K1 = [
    (8, 0.338, 1.02), (16, 0.167, 1.00), (32, 0.0834, 1.00), (64, 0.0417, 1.00),
    (128, 0.0208, 1.00), (256, 0.0104, 1.00), (512, 0.00521, 1.00),
    (1024, 0.00260, 1.00), (2048, 0.00130, None),
]
TABLE_K1_KOPTEVA = [(8, None, 1.02)] + TABLE_K1[1:]
TABLE_K2 = [
    (8, 0.103, 2.00), (16, 0.0257, 2.00), (32, 0.00642, 2.00), (64, 0.00160, 2.00),
    (128, 0.000401, 2.00), (256, 0.000100, 1.99), (512, 2.51e-05, 2.00),
    (1024, 6.27e-06, 2.00), (2048, 1.57e-06, None),
]
TABLE_K3 = [
    (8, 0.0301, 2.94), (16, 0.00393, 2.99), (32, 0.000496, 3.00), (64, 6.22e-05, 3.00),
    (128, 7.78e-06, 3.00), (256, 9.73e-07, 3.00), (512, 1.22e-07, 3.00),
    (1024, 1.52e-08, None),
]
TABLE_K4_ROOS = [
    (8, 0.00898, 3.88), (16, 0.000609, 3.97), (32, 3.88e-05, 3.99), (64, 2.44e-06, 4.00),
    (128, 1.53e-07, 4.00), (256, 9.54e-09, 4.00), (512, 5.96e-10, 3.84),
    (1024, 4.15e-11, None),
]
TABLE_K4_KOPTEVA = TABLE_K4_ROOS[:6] + [(512, 5.96e-10, 3.79), (1024, 4.30e-11, None)]

TABLE1 = {
    ("roos", 1): TABLE_K1,
    ("kopteva", 1): TABLE_K1_KOPTEVA,
    ("roos", 2): TABLE_K2,
    ("kopteva", 2): TABLE_K2,
}
TABLE2 = {
    ("roos", 3): TABLE_K3,
    ("kopteva", 3): TABLE_K3,
    ("roos", 4): TABLE_K4_ROOS,
    ("kopteva", 4): TABLE_K4_KOPTEVA,
}

ROUNDOFF_THRESHOLD = 1e-8
EPSILONS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
MESH_GRID_N = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)
MESH_GRID_SIGMA = (2.0, 3.0, 4.0, 5.0)


def _finish(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}{detail}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:10])


@pytest.fixture(scope="module")
def sweep():
    """One full sweep feeds criteria 1-4: both families, k = 1..4, all N, all eps."""
    start = time.perf_counter()
    result = run_study(StudyConfig())
    elapsed = time.perf_counter() - start
    assert not any(r.error for r in result.records)
    return result, elapsed


BIT_RECORD = Path(__file__).with_name("bit_record.json")
RECORD_FIELDS = ("e_inf", "e_l2", "e_energy", "correction_energy")


def _record_key(family, k, n_intervals, eps):
    return f"{family},{k},{n_intervals},{eps!r}"


def _minus(p: PiecewisePolynomial, q: PiecewisePolynomial) -> PiecewisePolynomial:
    return replace(p, coefficients=p.coefficients - q.coefficients)


@pytest.fixture(scope="module")
def interpolant_points():
    """At each default point, by ``_record_key``: ``interpolate_point``'s result
    for the interpolant u^I, and ||u^N - u^I||_eps for the Galerkin solution u^N."""
    config = StudyConfig()
    points = {}
    for spec, k in config.points():
        mesh = generate(spec)
        bvp = get_problem(config.problem, spec.epsilon)
        gap = _minus(galerkin_solve(bvp, mesh, k), lagrange_interp(bvp.exact.u, mesh, k))
        points[_record_key(spec.family.value, k, spec.N, spec.epsilon)] = (
            interpolate_point(config.problem, mesh, k), polynomial_energy_norm(gap, spec.epsilon)
        )
    return points


def test_bit_identity_record(sweep, interpolant_points):
    """The 408 default points keep the bits written by ``tools/bit_record.py``.

    The bits depend on numpy, its BLAS and the CPU, so a failure reports the
    numpy versions and the size of the moves: a tiny move on another platform
    is not by itself a regression.
    """
    record = json.loads(BIT_RECORD.read_text(encoding="utf-8"))
    now = {
        "galerkin": {_record_key(r.family, r.k, r.N, r.epsilon): (r.e_inf, r.e_l2, r.e_energy)
                     for r in sweep[0].records},
        "interpolant": {point: (tri.e_inf, tri.e_l2, tri.e_energy, corr)
                        for point, ((tri, corr), _) in interpolant_points.items()},
    }
    failures, moves, total = [], [], 0
    for part, values in now.items():
        if values.keys() != record[part].keys():
            failures.append(f"{part}: the points differ from the record's")
            continue
        for point, new in values.items():
            for name, value, ref in zip(RECORD_FIELDS, new, record[part][point]):
                total += 1
                if value.hex() != ref:
                    ref = float.fromhex(ref)
                    rel = abs(value - ref) / abs(ref) if ref else math.inf
                    moves.append((math.inf if math.isnan(rel) else rel, f"{part} {point} {name}"))
    if moves:
        largest, where = max(moves)
        failures.append(
            f"{len(moves)} of {total} values moved; largest relative move {largest:.3g} at "
            f"{where} (numpy {np.__version__}, record made with numpy {record['numpy']})"
        )
    _finish(f"bit identity ({total} values of {BIT_RECORD.name})", failures)


# sha256 of the CLI's default outputs.  A change that moves one of them updates its hash here.
OUTPUT_SHA256 = {
    "study --format csv": "b836434b7f86c3e2ba78485ee0c1a7dc72dbae31d342abc0730b6162aa56d23b",
    "study --format table": "b13fbfc8054b472e5c81cd580b3194aa856e90c94e58cb39eac62566e55b3d95",
    "verify": "8f5cfc3ffc393da4f49966b1a0b740583313ff128bfc1adc926cb16b4ba201d9",
    "verify --k 1 --k 2 --k 3 --k 4": "03853d5d5fc702b638c822faab7891809ca6ee597c11e16342460eeaf45a5bf2",
}


def test_cli_outputs_keep_their_sha256(sweep, capsys):
    """The outputs of ``study`` in both formats and of ``verify`` keep their bytes.

    ``study`` writes ``emit`` of the sweep's records, so those are hashed
    without a second sweep; ``verify`` runs through the CLI.  Like the bit
    record, the bytes depend on numpy, its BLAS and the CPU.
    """
    outputs = {f"study --format {fmt}": emit(sweep[0].records, fmt) for fmt in ("csv", "table")}
    for command in ("verify", "verify --k 1 --k 2 --k 3 --k 4"):
        assert main(command.split()) == 0
        outputs[command] = capsys.readouterr().out
    digests = {command: hashlib.sha256(text.encode("utf-8")).hexdigest() for command, text in outputs.items()}
    failures = [f"{c} now hashes to {d}" for c, d in digests.items() if d != OUTPUT_SHA256[c]]
    _finish(f"CLI output hashes (numpy {np.__version__})", failures)


def _check_table(result, table, e_tol, relaxed):
    aggregates = {(row.family, row.k, row.N): row for row in aggregate(result.records)}
    failures = []
    for (family, k), rows in table.items():
        for n_intervals, e_ref, rate_ref in rows:
            row = aggregates[(family, k, n_intervals)]
            if e_ref is not None:
                tol = e_tol if e_ref >= ROUNDOFF_THRESHOLD else relaxed[0]
                dev = abs(row.e_uniform - e_ref) / e_ref
                if dev > tol:
                    failures.append(
                        f"{family} k={k} N={n_intervals}: e={row.e_uniform:.4e} "
                        f"vs {e_ref:.3e} ({dev:.2%} > {tol:.0%})"
                    )
            if rate_ref is not None:
                tol = 0.03 if (e_ref is None or e_ref >= ROUNDOFF_THRESHOLD) else relaxed[1]
                if row.rate is None or abs(row.rate - rate_ref) > tol:
                    failures.append(
                        f"{family} k={k} N={n_intervals}: rate={row.rate} vs {rate_ref}"
                    )
    return failures


def test_criterion_1_low_degree_table(sweep):
    result, elapsed = sweep
    failures = _check_table(result, TABLE1, e_tol=0.02, relaxed=(0.02, 0.03))
    _finish(
        "criterion 1 (k=1,2 table, 2% / rate 0.03)",
        failures,
        f" [sweep {elapsed:.0f}s for all k]",
    )


def test_criterion_2_high_degree_table(sweep):
    result, _ = sweep
    failures = _check_table(result, TABLE2, e_tol=0.02, relaxed=(0.25, 0.3))
    _finish("criterion 2 (k=3,4 table, 2% / 25% below 1e-8)", failures)


def test_criterion_3_energy_rate_window(sweep):
    result, _ = sweep
    aggregates = {(row.family, row.k, row.N): row for row in aggregate(result.records)}
    failures = []
    for family in ("roos", "kopteva"):
        for k in (1, 2, 3, 4):
            errors = [aggregates[(family, k, n)].e_uniform for n in (64, 128, 256, 512)]
            rate = fitted_rate(errors, pairs=3)
            if not k - 0.1 <= rate <= k + 0.15:
                failures.append(f"{family} k={k}: fitted rate {rate:.3f}")
    _finish("criterion 3 (fitted rate in [k-0.1, k+0.15])", failures)


def test_energy_rates_above_the_tables_k_5_and_6():
    # The degree rule admits k up to 10, and the tables stop at k = 4.  For
    # k = 5 and 6 the uniform energy error, the max over eps, still falls at
    # rate k in every doubling of N = 16..128 (measured 4.95 / 4.99 / 5.00 and
    # 5.93 / 5.98 / 5.99, both families); past k = 6 round-off sets a floor.
    failures = []
    for family in (MeshFamily.ROOS, MeshFamily.KOPTEVA):
        for k in (5, 6):
            sigma, c1 = defaults_for(k)
            errors = []
            for n in (16, 32, 64, 128):
                specs = [MeshSpec(family=family, N=n, sigma=sigma, epsilon=eps, c1=c1)
                         for eps in (1e-4, 1e-6, 1e-9)]
                errors.append(max(solve_point("layer-test", generate(spec), k)[1].e_energy
                                  for spec in specs))
            rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            if not min(rates) >= k - 0.1:
                failures.append(f"{family.value} k={k}: rates {[round(r, 3) for r in rates]}")
    _finish("energy rates >= k - 0.1 for k = 5, 6 over N = 16..128", failures)


def test_criterion_4_epsilon_uniformity(sweep):
    result, _ = sweep
    groups = {}
    for rec in result.records:
        groups.setdefault((rec.family, rec.k, rec.N), []).append(rec.e_energy)
    failures = []
    for key, energies in groups.items():
        spread = max(energies) / min(energies)
        if spread > 1.5:
            failures.append(f"{key}: spread {spread:.3f}")
    _finish("criterion 4 (max/min over epsilon <= 1.5)", failures)


def test_criterion_5_step_size_bounds():
    failures = []
    for family in (MeshFamily.ROOS, MeshFamily.KOPTEVA):
        for sigma in MESH_GRID_SIGMA:
            for eps in EPSILONS:
                for n_intervals in MESH_GRID_N:
                    spec = MeshSpec(
                        family=family, N=n_intervals, sigma=sigma, epsilon=eps, c1=2.5
                    )
                    checks = check_step_sizes(generate(spec))
                    if not checks.all_bounds_hold:
                        failures.append(f"{family.value} sigma={sigma} eps={eps} N={n_intervals}")
    _finish("criterion 5 (step-size bounds, exact, full grid)", failures)


def test_criterion_6_interpolation_rates():
    failures = []
    n_values = (64, 128, 256, 512, 1024)
    for family in ("roos", "kopteva"):
        for k in (1, 2, 3, 4):
            sigma = k + 1.0
            rows = interpolation_study(family, k, n_values, EPSILONS)
            inf_rate = fitted_rate([r.u_inf for r in rows])
            energy_rate = fitted_rate([r.u_energy for r in rows])
            corr_rate = fitted_rate([r.correction_energy for r in rows])
            if abs(inf_rate - (k + 1)) > 0.25:
                failures.append(f"{family} k={k}: max-norm rate {inf_rate:.3f}")
            if abs(energy_rate - k) > 0.25:
                failures.append(f"{family} k={k}: energy rate {energy_rate:.3f}")
            if corr_rate < sigma - 0.25:
                failures.append(f"{family} k={k}: correction rate {corr_rate:.3f}")
    _finish("criterion 6 (interpolation rates)", failures)


def test_criterion_7_oracle_suites():
    failures = []

    # Assembly vs dense 20-point quadrature oracle, independent basis path.
    bvp = layer_test_problem(0.01)
    mesh = generate(MeshSpec(family=MeshFamily.ROOS, N=8, sigma=3.0, epsilon=0.01))
    k = 2
    dense = dense_matrix(assemble(bvp, mesh, k))
    oracle = _dense_oracle(bvp, mesh, k, q=20)
    gap = np.max(np.abs(dense - oracle)) / np.max(np.abs(oracle))
    if gap > 1e-12:
        failures.append(f"assembly oracle gap {gap:.2e}")

    # Condensed solve vs dense LU of the same assembled system, on random
    # meshes, for every degree.
    rng = np.random.default_rng(2024)
    n_elem = 24
    spec = MeshSpec(family=MeshFamily.UNIFORM, N=n_elem, sigma=1.0, epsilon=0.5)
    for k_solve in (1, 2, 3, 4):
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_elem - 1)), [1.0]])
        system = assemble(bvp, Mesh1D(nodes=nodes, spec=spec), k_solve)
        x = solve(system)
        x_ref = np.linalg.solve(dense_matrix(system), dense_rhs(system))
        lu_gap = np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref))
        if lu_gap > 1e-10:
            failures.append(f"condensed vs dense LU gap k={k_solve}: {lu_gap:.2e}")

    # Galerkin reproduces any degree-k polynomial solution to 1e-10 energy.
    for family in (MeshFamily.ROOS, MeshFamily.KOPTEVA, MeshFamily.UNIFORM):
        for k_poly in (2, 3, 4):
            eps = 1e-6
            p = Polynomial([0.0, 1.0]) * Polynomial([1.0, -1.0])
            if k_poly > 2:
                p = p * Polynomial([1.0] * (k_poly - 1))
            dp = p.deriv()
            f_poly = -eps * p.deriv(2) - Polynomial([3.0, -1.0]) * dp + p
            poly_bvp = TwoPointBVP(
                epsilon=eps,
                b=lambda x: 3.0 - np.asarray(x, dtype=float),
                c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                f=lambda x, fp=f_poly: fp(np.asarray(x, dtype=float)),
                b_prime=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
            )
            grid = generate(MeshSpec(family=family, N=16, sigma=2.0, epsilon=eps, c1=2.5))
            fem = galerkin_solve(poly_bvp, grid, k_poly)
            energy = error_norms(fem, writer(p, dp), eps).e_energy
            if energy > 1e-10:
                failures.append(f"exactness {family.value} k={k_poly}: {energy:.2e}")

    # Quadrature closed form: ||x(1-x)||_eps with eps = 1.
    v = lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float))
    dv = lambda x: 1.0 - 2.0 * np.asarray(x, dtype=float)
    grid = generate(MeshSpec(family=MeshFamily.UNIFORM, N=4, sigma=1.0, epsilon=0.5))
    zero = PiecewisePolynomial(mesh=grid, degree=2, coefficients=np.zeros(2 * grid.N + 1))
    energy = error_norms(zero, writer(v, dv), 1.0).e_energy
    target = math.sqrt(1.0 / 30.0 + 1.0 / 3.0)
    if abs(energy - target) / target > 1e-12:
        failures.append(f"quadrature closed form: {energy!r} vs {target!r}")

    _finish("criterion 7 (oracle suites)", failures)


def test_criterion_8_corrected_interpolant_rates():
    """The paper's argument bounds ||u^N - Pi u||_eps, with Pi u the corrected
    interpolant: its max over eps must decay at rate >= k - 0.1 in every
    doubling of N = 16..512, for roos down to eps = 1e-100.

    Observed, not claimed: with sigma = k + 1 the rates settle at 2.00 and 3.00
    for k = 1, 2 (order k + 1, supercloseness), but at 3.00 and 4.00 for
    k = 3, 4 (order k); k = 3 starts at 3.30.  The final rates are printed.
    """
    failures, observed = [], []
    n_values = (16, 32, 64, 128, 256, 512)
    for family in ("roos", "kopteva"):
        epsilons = (1e-4, 1e-6, 1e-8) + ((1e-40, 1e-100) if family == "roos" else ())
        for k in (1, 2, 3, 4):
            sigma, c1 = defaults_for(k)
            errors = []
            for n_intervals in n_values:
                gaps = []
                for eps in epsilons:
                    mesh = generate(MeshSpec(family, n_intervals, sigma, eps, c1))
                    bvp = layer_test_problem(eps)
                    pi_u = build_bundle(bvp.exact, mesh, k).corrected_interp
                    gaps.append(polynomial_energy_norm(_minus(galerkin_solve(bvp, mesh, k), pi_u), eps))
                errors.append(max(gaps))
            rates = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
            if not min(rates) >= k - 0.1:
                failures.append(f"{family} k={k}: rates {[round(r, 3) for r in rates]}")
            observed.append(f"{family} k={k} {rates[-1]:.2f}")
    _finish("criterion 8 (||u^N - Pi u|| rate >= k - 0.1)", failures,
            f" [rates at N = 512: {', '.join(observed)}]")


def test_criterion_9_triangle_inequality(sweep, interpolant_points):
    """|e_energy(u^N) - e_energy(u^I)| <= ||u^N - u^I||_eps at the 408 default
    points: the computed errors of two functions differ by no more than the
    exact energy norm of their difference (measured: at most ~0.25 of it)."""
    failures, worst = [], 0.0
    for rec in sweep[0].records:
        (tri, _), gap = interpolant_points[_record_key(rec.family, rec.k, rec.N, rec.epsilon)]
        ratio = abs(rec.e_energy - tri.e_energy) / gap
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            failures.append(f"{rec.family} k={rec.k} N={rec.N} eps={rec.epsilon}: ratio {ratio:.3g}")
    _finish("criterion 9 (triangle inequality, 408 points)", failures, f" [largest ratio {worst:.3f}]")


def _dense_oracle(bvp, mesh, k, q):
    pts, wts = np.polynomial.legendre.leggauss(q)
    pts, wts = 0.5 * (pts + 1.0), 0.5 * wts
    nodes = np.linspace(0.0, 1.0, k + 1)
    polys = []
    for j in range(k + 1):
        p = Polynomial.fromroots(np.delete(nodes, j))
        polys.append(p / p(nodes[j]))
    shp = np.array([p(pts) for p in polys])
    dshp = np.array([p.deriv()(pts) for p in polys])

    size = k * mesh.N + 1
    full = np.zeros((size, size))
    for e in range(mesh.N):
        h = mesh.steps[e]
        xq = mesh.nodes[e] + h * pts
        bq, cq = bvp.b(xq), bvp.c(xq)
        for a in range(k + 1):
            for bb in range(k + 1):
                full[e * k + a, e * k + bb] += (
                    bvp.epsilon / h * np.sum(wts * dshp[a] * dshp[bb])
                    - np.sum(wts * bq * shp[a] * dshp[bb])
                    + h * np.sum(wts * cq * shp[a] * shp[bb])
                )
    return full[1:-1, 1:-1]
