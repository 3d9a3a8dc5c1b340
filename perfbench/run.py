"""Run one workload of the layerfem benchmark and print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 50 --trace 0

Run from the repository root (the package is imported from ``src``).  The
process is a closed loop with one client and no extra threads: ops run one
after another, each pass over the whole op list in an order permuted by
``--seed``, until ``--seconds`` are used up.

``--trace 0`` reports the end-to-end metrics of untraced passes; set-up time
is measured in fresh interpreters.  After every op the pass times a fixed
calibration kernel (``calibrate``, outside the op's time); each op time is
scaled by ``CALIBRATION_REF_S`` over the median kernel time of the ops
around it, so that an op run while the machine is slower as a whole (on a
shared VM, for seconds to minutes at a time) is brought back to one
reference speed; set-up times are scaled the same way.  A change to layerfem
leaves the kernel alone and so shows in full.  An op's latency is then its
fastest scaled time over the run's passes: the op is deterministic, so the
spread between its repeats is interference from other work on the machine,
which only adds time.  ``wall_s`` sums these latencies and the fastest
reduction over the op list; ``op_p50_ms`` is their median.  ``op_p90_ms``
is the 90th percentile of all scaled op times of the untraced passes: at
the tail the fastest time hinges on a few large ops and swung more with the
machine's slow phases.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics from the traced ones, plus the
tracing overhead.  Every result is checked (see ``workloads``); the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the seed
and the environment, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Fresh interpreters timed for setup_s, after one untimed run that fills the
# bytecode cache.  An even count splits them evenly over two CPUs.
SETUP_RUNS = 8
SETUP_CODE = """\
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[2])})
t0 = time.perf_counter()
import layerfem, layerfem.cli
from workloads import WARMUP_OP, WORKLOADS
WORKLOADS[sys.argv[1]].run_op(WARMUP_OP)
elapsed = time.perf_counter() - t0
import statistics
from run import calibrate
print(elapsed, statistics.median(calibrate() for _ in range(41)))
"""


# Median time of ``calibrate`` on the machine the benchmark was tuned on (a
# shared 2-vCPU Intel Xeon VM, Python 3.11) in a quiet phase.  Scaled times
# read as seconds at that speed.
CALIBRATION_REF_S = 1.8e-4
# Kernel samples on each side of an op whose median gives its speed factor.
CALIBRATION_WINDOW = 10


def calibrate() -> float:
    """Seconds for a fixed loop of pure-Python integer arithmetic.

    It calls no layerfem code.  On a shared VM the run time of layerfem ops
    rises and falls with this loop nearly one for one, since both are bound
    by the interpreter; numpy vector kernels swing more.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    return time.perf_counter() - t0


@dataclass
class PassResult:
    wall_s: float
    latencies_s: dict[tuple, float]  # op -> seconds, as measured
    reduce_s: float
    calibration_s: float  # median kernel time of the pass
    scales: dict[tuple, float]  # op -> CALIBRATION_REF_S over the median kernel time around it
    failed: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    def scaled_s(self, op: tuple) -> float:
        """The op's time brought to the reference speed."""
        return self.latencies_s[op] * self.scales[op]

    @property
    def scaled_reduce_s(self) -> float:
        return self.reduce_s * CALIBRATION_REF_S / self.calibration_s


def permuted(ops: tuple, seed: int, pass_index: int) -> list:
    order = list(ops)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


def run_pass(workload, ops: list, tracer=None) -> PassResult:
    """Run ``ops`` in order, reduce, then check every result.

    The wall time covers the ops and the reduction, not the calibration
    kernel run after each op, nor the check.  An op that raises is recorded
    as failed and the pass goes on.
    """
    from workloads import op_key

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    results: list = [None] * len(ops)
    latencies = {}
    calibration = []
    raised: dict[int, str] = {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_key(op)
        t0 = time.perf_counter()
        try:
            with span("op"):
                results[i] = workload.run_op(op)
        except Exception as exc:  # counted in failed_frac; the pass continues
            raised[i] = f"{op_key(op)}: {type(exc).__name__}: {exc}"
        latencies[op] = time.perf_counter() - t0
        calibration.append(calibrate())
    if tracer is not None:
        tracer.op = None
    done = [i for i in range(len(ops)) if i not in raised]
    reduced = None
    pass_error = None
    t0 = time.perf_counter()
    try:
        reduced = workload.reduce([results[i] for i in done])
    except Exception as exc:  # fails every op of the pass
        pass_error = f"reduce: {type(exc).__name__}: {exc}"
    end = time.perf_counter()

    scales = {}
    for i, op in enumerate(ops):
        around = calibration[max(0, i - CALIBRATION_WINDOW) : i + CALIBRATION_WINDOW + 1]
        scales[op] = CALIBRATION_REF_S / statistics.median(around)
    result = PassResult(
        end - start - sum(calibration),
        latencies,
        end - t0,
        statistics.median(calibration),
        scales,
        set(raised),
        list(raised.values()),
    )
    if pass_error is None:
        try:
            bad = workload.check(tuple(ops[i] for i in done), [results[i] for i in done], reduced)
        except Exception as exc:  # a result the check cannot read fails the pass
            pass_error = f"check: {type(exc).__name__}: {exc}"
    if pass_error is not None:
        result.failed = set(range(len(ops)))
        result.errors.append(pass_error)
        return result
    for j in sorted(bad):
        result.failed.add(done[j])
        result.errors.append(f"{op_key(ops[done[j]])}: result outside its reference tolerance")
    return result


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """What a reader needs to attribute noise across runs."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(workload_name: str, cpus: list[int]) -> list[tuple[float, float]]:
    """Seconds for a fresh interpreter to import the package and finish one tiny op.

    Each sample comes with the median time of ``calibrate`` in the same
    interpreter, run after the timed part.  The interpreters take turns on
    ``cpus``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, workload_name, str(cpus[i % len(cpus)])],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, kernel = proc.stdout.split()[-2:]
        samples.append((float(elapsed), float(kernel)))
    return samples[1:]


def best_latencies(passes: list[PassResult], ops: tuple, scaled: bool = True) -> list[float]:
    """Each op's fastest time over ``passes``: scaled, or as measured."""
    if scaled:
        return [min(p.scaled_s(op) for p in passes) for op in ops]
    return [min(p.latencies_s[op] for p in passes) for op in ops]


def best_wall(passes: list[PassResult], ops: tuple, scaled: bool = True) -> float:
    """Wall time of the op list from each op's and the reduction's fastest time."""
    reduce_s = min(p.scaled_reduce_s if scaled else p.reduce_s for p in passes)
    return sum(best_latencies(passes, ops, scaled)) + reduce_s


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "solve-fine", "interp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "layerfem" / "__init__.py").is_file():
        print(f"perfbench: no layerfem package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env_record = environment()

    import tracing
    from workloads import WARMUP_OP, WORKLOADS, op_key

    workload = WORKLOADS[args.workload]
    # On a shared VM one CPU can run slower than another for minutes at a
    # time; taking turns on each usable CPU keeps which one the process
    # happened to land on from deciding the result of a run.
    cpus = sorted(os.sched_getaffinity(0))
    setup = [] if args.trace else measure_setup(args.workload, cpus)

    # Let lazy set-up finish before timing: one tiny op and one reduction.
    workload.reduce([workload.run_op(WARMUP_OP)])

    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, tracing.Tracer]] = []
    deadline = time.perf_counter() + args.seconds
    pass_index = 0
    while True:
        # Traced runs alternate untraced and traced passes; both kinds take
        # turns on the CPUs so that the tracing overhead compares like with like.
        turn = pass_index // 2 if args.trace else pass_index
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        order = permuted(workload.ops, args.seed, pass_index)
        if args.trace and pass_index % 2 == 1:
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
            try:
                traced.append((run_pass(workload, order, tracer), tracer))
            finally:
                restore()
        else:
            untraced.append(run_pass(workload, order))
        pass_index += 1
        typical = statistics.median(p.wall_s for p in untraced + [t[0] for t in traced])
        if deadline - time.perf_counter() < 0.5 * typical and (traced or not args.trace):
            break

    passes = untraced + [t[0] for t in traced]
    attempted = len(workload.ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    wall_s = best_wall(untraced, workload.ops)
    if args.trace:
        traced_wall = best_wall([t[0] for t in traced], workload.ops)
        values = tracing.median_metrics(
            [tracing.layer_metrics(tracer, p.wall_s) for p, tracer in traced]
        )
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {name: (value, tracing.unit_of(name)) for name, value in values.items()}
    else:
        best = best_latencies(untraced, workload.ops)
        values = {
            "setup_s": statistics.median(t * CALIBRATION_REF_S / k for t, k in setup),
            "wall_s": wall_s,
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_p90_ms": 1e3 * _percentile(
                [p.scaled_s(op) for p in untraced for op in p.latencies_s], 90
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"ops/pass={len(workload.ops)} untraced passes={len(untraced)} "
        f"traced passes={len(traced)} setup samples={len(setup)}"
    )
    print("env " + json.dumps(env_record, sort_keys=True))
    if args.trace:
        last_pass, last_tracer = traced[-1]
        print(f"self time of the last traced pass ({last_pass.wall_s:.3f} s):")
        print(tracing.self_time_table(last_tracer.spans, last_pass.wall_s))
        print(f"{'wall_s (untraced)':<28} {wall_s:.6g} s")
    raw_wall = best_wall(untraced, workload.ops, scaled=False)
    print(
        f"{'wall_s as measured':<28} {raw_wall:.6g} s (kernel time per pass: "
        + " ".join(f"{p.calibration_s:.3g}" for p in untraced)
        + f" s, reference {CALIBRATION_REF_S:g} s)"
    )
    if setup:
        print(f"{'setup_s as measured':<28} {statistics.median(t for t, _ in setup):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(f"{'failed_frac':<28} {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
    for err in [e for p in passes for e in p.errors][:20]:
        print(f"FAILED {err}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record,
        "failed_frac": failed / attempted,
        "errors": [e for p in passes for e in p.errors],
        "setup_samples_s": [t for t, _ in setup],
        "setup_calibration_s": [k for _, k in setup],
        "untraced_walls_s": [p.wall_s for p in untraced],
        "traced_walls_s": [t[0].wall_s for t in traced],
        "calibration_ref_s": CALIBRATION_REF_S,
        "untraced_calibration_s": [p.calibration_s for p in untraced],
        "traced_calibration_s": [t[0].calibration_s for t in traced],
        "untraced_op_latencies_s": {
            op_key(op): [p.latencies_s[op] for p in untraced] for op in workload.ops
        },
        "untraced_op_scales": {
            op_key(op): [p.scales[op] for p in untraced] for op in workload.ops
        },
        **result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for _, tracer in traced:
                for span in tracer.spans:
                    fh.write(json.dumps(span._asdict()) + "\n")
    print(f"record written to {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
