"""Write the bit-identity record of the default sweep: ``tests/bit_record.json``.

Run from the repository root, against the commit whose results are to become
the record:

    PYTHONPATH=src python tools/bit_record.py [OUT]

For each of the 408 points of ``StudyConfig()``, keyed ``family,k,N,epsilon``,
the record holds as hex floats

* ``galerkin``: (e_inf, e_l2, e_energy) of the Galerkin solution (``run_study``);
* ``interpolant``: (e_inf, e_l2, e_energy, correction_energy) of the Lagrange
  interpolant and the layer correction (a one-point ``interpolation_study``).

It also stores the numpy version, because the bits depend on numpy, its BLAS
and the CPU's SIMD ``exp``/``log``: a mismatch on another platform is not by
itself a regression.  ``tests/test_acceptance.py`` compares the current code
against the record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from layerfem.study import StudyConfig, interpolation_study, run_study

RECORD = Path(__file__).resolve().parent.parent / "tests" / "bit_record.json"


def record_key(family: str, k: int, n_intervals: int, eps: float) -> str:
    return f"{family},{k},{n_intervals},{eps!r}"


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else RECORD
    config = StudyConfig()
    galerkin = {
        record_key(r.family, r.k, r.N, r.epsilon): [r.e_inf.hex(), r.e_l2.hex(), r.e_energy.hex()]
        for r in run_study(config).records
    }
    interpolant = {}
    for spec, k in config.points():
        family = spec.family.value
        row = interpolation_study(family, k, (spec.N,), (spec.epsilon,), config.problem,
                                  spec.sigma, spec.c1)[0]
        values = (row.u_inf, row.u_l2, row.u_energy, row.correction_energy)
        interpolant[record_key(family, k, spec.N, spec.epsilon)] = [v.hex() for v in values]
    head = {
        "description": "hex-float error norms of the 408 default StudyConfig points",
        "numpy": np.__version__,
    }
    # JSON with one point per line, so a diff of two records reads point by point.
    text = json.dumps(head)[:-1]
    for name, part in (("galerkin", galerkin), ("interpolant", interpolant)):
        rows = ",\n".join(f"{json.dumps(key)}: {json.dumps(part[key])}" for key in sorted(part))
        text += f',\n"{name}": {{\n{rows}\n}}'
    out.write_text(text + "}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
