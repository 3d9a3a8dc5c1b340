"""Regenerate the per-op references of the ``solve-fine`` and ``interp`` workloads.

Run from the repository root, against the commit whose results are to become
the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference/solve_fine.json`` (nodal error per op) and
``perfbench/reference/interp.json`` (interpolation norms per op).  The
published tables in ``published_tables.json`` are not generated.
"""

from __future__ import annotations

import json
import subprocess
import sys

from workloads import INTERP_FIELDS, REFERENCE_DIR, WORKLOADS, nodal_error, op_key


def _source_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _write(name: str, doc: dict) -> None:
    with open(REFERENCE_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    commit = _source_commit()
    solve_fine = WORKLOADS["solve-fine"]
    _write(
        "solve_fine.json",
        {
            "description": "max_m |U_m - u(x_m)| over interior global nodes per op",
            "source_commit": commit,
            "nodal_error": {
                op_key(op): nodal_error(op, solve_fine.run_op(op)) for op in solve_fine.ops
            },
        },
    )
    interp = WORKLOADS["interp"]
    rows = {}
    for op in interp.ops:
        row = interp.run_op(op)
        rows[op_key(op)] = {name: getattr(row, name) for name in INTERP_FIELDS}
    _write(
        "interp.json",
        {
            "description": "single-point interpolation_study rows per op",
            "source_commit": commit,
            "rows": rows,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
