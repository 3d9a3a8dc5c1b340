"""Tests of the benchmark itself: tiny smoke runs and gates that can fail.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import tracing
from layerfem import femcore
from run import (
    CALIBRATION_REF_S,
    END_TO_END_UNITS,
    ROOT,
    PassResult,
    best_latencies,
    best_wall,
    permuted,
    run_pass,
)
from workloads import (
    INTERP_FIELDS,
    INTERP_RATE_N,
    NODAL_FLOOR,
    WORKLOADS,
    _covered,
    _published,
    interp_rate_failures,
    load_reference,
    op_key,
    within,
)

STUDY = WORKLOADS["study"]
SOLVE_FINE = WORKLOADS["solve-fine"]
INTERP = WORKLOADS["interp"]


def tiny(workload, k=1, n_values=(8, 16)):
    return [op for op in workload.ops if op[0] == "roos" and op[1] == k and op[2] in n_values]


def run_checked(workload, ops, results):
    reduced = workload.reduce(results)
    return workload.check(tuple(ops), results, reduced)


@pytest.mark.parametrize(
    "workload, ops",
    [
        (STUDY, tiny(STUDY)),
        (INTERP, tiny(INTERP)),
        (SOLVE_FINE, tiny(SOLVE_FINE, n_values=(1024,))[:2]),
    ],
    ids=["study", "interp", "solve-fine"],
)
def test_smoke_pass_is_correct(workload, ops):
    result = run_pass(workload, permuted(tuple(ops), seed=7, pass_index=0))
    assert result.failed == set() and result.errors == []
    assert len(result.latencies_s) == len(ops)
    assert result.wall_s >= sum(result.latencies_s.values())
    assert set(result.scales) == set(ops) and all(x > 0 for x in result.scales.values())


def test_op_times_are_scaled_by_the_kernel_around_them():
    ops = (("roos", 1, 8, 1e-4), ("roos", 1, 16, 1e-4))
    # The kernel ran twice as long around the first pass's ops.
    slow = PassResult(
        1.0, {ops[0]: 0.2, ops[1]: 0.4}, 0.1, 2 * CALIBRATION_REF_S, dict.fromkeys(ops, 0.5)
    )
    fast = PassResult(
        0.5, {ops[0]: 0.12, ops[1]: 0.18}, 0.06, CALIBRATION_REF_S, dict.fromkeys(ops, 1.0)
    )
    assert best_latencies([slow, fast], ops) == [0.1, 0.18]
    assert best_latencies([slow, fast], ops, scaled=False) == [0.12, 0.18]
    assert best_wall([slow, fast], ops) == pytest.approx(0.1 + 0.18 + 0.05)


def test_raising_op_and_unreadable_result_fail():
    ops = tiny(SOLVE_FINE, n_values=(1024,))[:2]
    flaky = dataclasses.replace(
        SOLVE_FINE, run_op=lambda op: 1 / 0 if op == ops[0] else SOLVE_FINE.run_op(op)
    )
    result = run_pass(flaky, ops)
    assert result.failed == {0} and "ZeroDivisionError" in result.errors[0]
    garbled = dataclasses.replace(SOLVE_FINE, run_op=lambda op: None)
    assert run_pass(garbled, ops).failed == {0, 1}


def test_study_gate_rejects_scaled_error():
    ops = tiny(STUDY)
    records = [STUDY.run_op(op) for op in ops]
    assert run_checked(STUDY, ops, records) == set()
    # Scale the epsilon-maximal record of the N = 8 cell: e^N moves by 10%.
    cell = [i for i, op in enumerate(ops) if op[2] == 8]
    worst = max(cell, key=lambda i: records[i].e_energy)
    records[worst] = dataclasses.replace(records[worst], e_energy=1.1 * records[worst].e_energy)
    assert run_checked(STUDY, ops, records) == set(cell)


def test_study_gate_rejects_rendered_table_and_failed_record():
    ops = tiny(STUDY)
    records = [STUDY.run_op(op) for op in ops]
    rows, text = STUDY.reduce(records)
    assert "0.338E+00" in text
    bad = STUDY.check(tuple(ops), records, (rows, text.replace("0.338E+00", "0.372E+00")))
    assert bad == {i for i, op in enumerate(ops) if op[2] == 8}

    nan = float("nan")
    records[3] = dataclasses.replace(records[3], e_inf=nan, e_l2=nan, e_energy=nan, error="x")
    assert 3 in STUDY.check(tuple(ops), records, STUDY.reduce(records))


def test_solve_fine_gate_rejects_scaled_nodal_error():
    op = tiny(SOLVE_FINE, n_values=(1024,))[0]
    bvp, grid, x = SOLVE_FINE.run_op(op)
    assert SOLVE_FINE.check((op,), [(bvp, grid, x)], None) == set()
    exact = bvp.exact.u(femcore.global_nodes(grid, op[1])[1:-1])
    scaled = exact + 1.1 * (x - exact)
    assert SOLVE_FINE.check((op,), [(bvp, grid, scaled)], None) == {0}


@pytest.mark.parametrize("field", INTERP_FIELDS)
def test_interp_gate_rejects_each_scaled_norm(field):
    ops = tiny(INTERP, n_values=(8,))[:1]
    row = INTERP.run_op(ops[0])
    assert INTERP.check(tuple(ops), [row], None) == set()
    scaled = dataclasses.replace(row, **{field: 1.1 * getattr(row, field)})
    assert INTERP.check(tuple(ops), [scaled], None) == {0}


def test_interp_rate_gate_rejects_broken_rate():
    ref = load_reference("interp.json")["rows"]
    rows = [SimpleNamespace(**ref[op_key(op)]) for op in INTERP.ops]
    assert interp_rate_failures(INTERP.ops, rows) == set()
    for i, op in enumerate(INTERP.ops):
        if op[:3] == ("roos", 2, INTERP_RATE_N[-1]):
            rows[i] = SimpleNamespace(**{**vars(rows[i]), "u_inf": 2.0 * rows[i].u_inf})
    assert interp_rate_failures(INTERP.ops, rows) == {("roos", 2)}


def test_tolerances():
    assert within(1.019, 1.0) and not within(1.1, 1.0)
    assert within(1.2e-9, 1e-9) and not within(1.3e-9, 1e-9)
    assert within(5e-11, 2e-11, NODAL_FLOOR) and not within(2e-10, 2e-11, NODAL_FLOOR)
    assert not within(math.nan, 1.0)


def test_references_cover_every_op():
    published = {(f, k, n) for (f, k), rows in _published().items() for n, _, _ in rows}
    assert published <= _covered(STUDY.ops)
    assert set(load_reference("solve_fine.json")["nodal_error"]) == {
        op_key(op) for op in SOLVE_FINE.ops
    }
    assert set(load_reference("interp.json")["rows"]) == {op_key(op) for op in INTERP.ops}
    assert len(STUDY.ops) == len(INTERP.ops) == 408 and len(SOLVE_FINE.ops) >= 100
    assert all(op[2] >= 1024 for op in SOLVE_FINE.ops)


def test_seed_only_permutes():
    ops = STUDY.ops
    assert permuted(ops, 1, 0) == permuted(ops, 1, 0)
    assert permuted(ops, 1, 0) != permuted(ops, 2, 0)
    assert sorted(permuted(ops, 3, 1)) == sorted(ops)


def test_traced_op_records_layer_spans_and_counts():
    op = ("roos", 2, 16, 1e-6)
    tracer = tracing.Tracer()
    original = femcore.solve
    restore = tracing.instrument(tracer)
    try:
        with tracer.span("op"):
            STUDY.run_op(op)
    finally:
        restore()
    assert femcore.solve is original
    self_time, calls = tracing.self_times(tracer.spans)
    for layer in ("problem", "mesh", "femcore.assemble", "femcore.solve", "norms"):
        assert calls[layer] == 1
    root = tracer.spans[0]
    assert math.isclose(sum(self_time.values()), root.end - root.start, rel_tol=1e-9)
    metrics = tracing.layer_metrics(tracer, wall_s=root.end - root.start)
    assert metrics["femcore.solve.dofs"] == metrics["femcore.assemble.dofs"] == 2 * 16 - 1
    assert metrics["norms.evals"] > 0 and metrics["interpolants.calls"] == 0
    assert np.isclose(metrics["norms.evals_per_elem"], metrics["norms.evals"] / 16)


def test_benchmark_json_names_what_run_reports():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    tracer = tracing.Tracer()
    reported = [*tracing.layer_metrics(tracer, wall_s=1.0), "trace.wall_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit_of(name) for name in reported
    }
