"""Regenerate the committed reference values for the paper's RAID-5 models.

    PYTHONPATH=src python3 perfbench/make_reference.py UA 20

writes ``perfbench/reference/UA-G20.json``: TRR and MRR of the model at
the paper's six time points. The values come from standard randomization
(SR), a method that shares no code with RRL's truncation, transform or
inversion, at ``EPS_REF`` — far tighter than the paper's 1e-12. Both
measures ride one fused ``d_n`` sweep. SR only multiplies and adds
non-negative numbers, so rounding perturbs every quantity by a relative
amount that grows at most linearly with the steps taken: each step's
entries are sums of at most ``k`` products, ``k`` the largest row count
of ``P``. Each value's stated error is ``EPS_REF`` plus
``|value| · steps · (k + 2) · u``. At t = 1e5 the sweep is millions of
steps long: one file takes about 2 minutes for G=20 and a quarter of
an hour for G=40 on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from repro.markov.base import SolveCell
from repro.markov.rewards import Measure
from repro.markov.standard import StandardRandomizationSolver
from repro.models.raid5 import (
    Raid5Params,
    build_raid5_availability,
    build_raid5_reliability,
)
from workloads import PAPER_TIMES, REFERENCE_DIR

EPS_REF = 1e-14
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def make(kind: str, groups: int) -> dict:
    """Reference record for one paper model (``kind`` is UA or UR)."""
    build = {"UA": build_raid5_availability,
             "UR": build_raid5_reliability}[kind]
    model, rewards, _ = build(Raid5Params(groups=groups, spare_disks=3,
                                          spare_controllers=1))
    k = int(np.diff(model.uniformize()[0].transition_matrix.tocsr().indptr)
            .max())
    cells = [SolveCell(rewards=rewards, measure=m, times=PAPER_TIMES,
                       eps=EPS_REF) for m in (Measure.TRR, Measure.MRR)]
    start = time.perf_counter()
    solutions = StandardRandomizationSolver().solve_fused(model, cells)
    seconds = time.perf_counter() - start
    record = {"kind": kind, "groups": groups, "times": list(PAPER_TIMES),
              "method": "SR", "eps_ref": EPS_REF,
              "solve_seconds": round(seconds, 1)}
    for sol in solutions:
        values = [float(v) for v in sol.values]
        steps = [int(n) for n in sol.steps]
        record[sol.measure.value] = {
            "values": values,
            "steps": steps,
            "err": [EPS_REF + abs(v) * n * (k + 2) * UNIT_ROUNDOFF
                    for v, n in zip(values, steps)],
        }
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("UA", "UR"):
        print("usage: make_reference.py {UA|UR} GROUPS", file=sys.stderr)
        return 2
    kind, groups = argv[0], int(argv[1])
    record = make(kind, groups)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{kind}-G{groups}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path} in {record['solve_seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
