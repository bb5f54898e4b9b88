#!/usr/bin/env python
"""Run the paper's evaluation grid through the fused parallel batch stack.

Default: the paper's exact grid (G ∈ {20, 40}, t up to 10⁵ h) compiled by
the fusion planner (duplicate solves coalesce, unfused cells share one
kernel per worker) and fanned over an execution backend (``--backend``:
process pool by default, or inline serial). ``--quick``
switches to a seconds-scale smoke grid for CI; ``--no-fuse`` disables
the planner (one task per cell, the PR-1 execution shape); ``--verify``
re-runs the measure columns unfused-pooled, serial and on both
backends, asserts all in-process executions produce
bit-identical tables (neither the batch decomposition, the fusion plan,
nor the execution backend may ever change a number), and additionally
proves the service path: the grid's solve cells are pushed through an
on-disk ``JobQueue`` — killed halfway and resumed from the journal — and
every collected outcome must match serial in-process execution bit for
bit.

Native BLAS/OpenMP thread pools are pinned to one thread before numpy
loads. Pool workers inherit the pin, so N workers use N cores instead of
N × (BLAS threads), and serial and pooled runs use the same BLAS thread
count — which keeps ``--verify`` bit-identical.

Examples
--------
    python scripts/run_paper_grid.py                 # paper grid, fused+pooled
    python scripts/run_paper_grid.py --workers 8
    python scripts/run_paper_grid.py --quick --verify
    python scripts/run_paper_grid.py --no-fuse --serial --json out.json
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.analysis.experiments import (  # noqa: E402
    ExperimentConfig,
    GridResult,
    grid_solve_requests,
    run_grid,
)
from repro.batch.backends import BACKEND_NAMES  # noqa: E402
from repro.batch.runner import available_cpus  # noqa: E402
from repro.models import build_raid5_availability  # noqa: E402
from repro.service import JobQueue, SolveService  # noqa: E402


def _default_workers() -> int:
    # The grid has O(10) column tasks; ≥ 2 keeps the pooled path exercised
    # even on small machines, more than 8 buys nothing.
    return max(2, min(8, available_cpus()))


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    workers = 1 if args.serial else args.workers
    # Normalize the backend to a concrete name so the verify axis can
    # dedup "same execution" configurations by field equality.
    backend = args.backend or "processes"
    if args.quick:
        return ExperimentConfig.quick(workers=workers, fuse=args.fuse,
                                      memoize=args.memoize,
                                      backend=backend)
    return ExperimentConfig.paper(workers=workers, fuse=args.fuse,
                                  memoize=args.memoize, backend=backend)


def _assert_grids_equal(reference: GridResult, other: GridResult,
                        label: str) -> None:
    """Bit-identical comparison of the measure columns of two runs."""
    if other.table1.columns != reference.table1.columns:
        raise AssertionError(f"Table 1 differs between {label} runs")
    if other.table2.columns != reference.table2.columns:
        raise AssertionError(f"Table 2 differs between {label} runs")
    for g, vals in reference.ur_values.items():
        if other.ur_values[g] != vals:
            raise AssertionError(f"UR values differ for G={g} ({label})")


def verify_service_queue(config: ExperimentConfig) -> None:
    """Assert on-disk queue execution (with a kill/resume cycle) ==
    serial in-process execution, bit for bit.

    The grid's solve cells are submitted to a temporary
    :class:`JobQueue`, half are executed, the queue object is dropped
    (the "kill" — only the journal survives), a fresh queue resumes from
    the journal and finishes, and every collected outcome is compared
    bitwise against the same requests solved in-process.

    The in-process reference deliberately uses the *same* planner policy
    as the queue run, which isolates exactly the layer under test (the
    protocol/journal/resume machinery) and avoids re-solving the whole
    grid unfused — ``verify_executions`` has already established
    fused == unfused == serial at the grid level, so the chain closes:
    queue == in-process(policy) == serial unfused.
    """
    requests = grid_solve_requests(config)
    reference = SolveService(workers=1, fuse=config.fuse,
                             memoize=config.memoize).solve(requests)
    with tempfile.TemporaryDirectory(prefix="repro-queue-") as tmp:
        queue = JobQueue(tmp)
        queue.submit(requests)
        # First half, one fsync per job, then "kill" the process state.
        queue.run(SolveService(workers=config.workers,
                               backend=config.backend, fuse=config.fuse,
                               memoize=config.memoize),
                  limit=len(requests) // 2, checkpoint=1)
        del queue
        resumed = JobQueue.resume(tmp)
        n_pending = len(resumed.pending())
        resumed.run(SolveService(workers=config.workers,
                                 backend=config.backend,
                                 fuse=config.fuse,
                                 memoize=config.memoize))
        outcomes = resumed.collect()
    if len(outcomes) != len(requests):
        raise AssertionError(
            f"queue returned {len(outcomes)} outcomes for "
            f"{len(requests)} requests")
    for got, ref in zip(outcomes, reference):
        if not (got.ok and ref.ok):
            raise AssertionError(
                f"cell {ref.key!r} failed: queue={got.error!r} "
                f"serial={ref.error!r}")
        if got.key != ref.key \
                or not np.array_equal(got.value.values, ref.value.values) \
                or not np.array_equal(got.value.steps, ref.value.steps):
            raise AssertionError(
                f"queue outcome differs from serial in-process for "
                f"cell {ref.key!r}")
    print(f"verify: on-disk queue (kill after "
          f"{len(requests) - n_pending}/{len(requests)} jobs, resumed "
          "from journal) vs serial in-process — bit-identical, OK",
          flush=True)


def verify_executions(config: ExperimentConfig, result: GridResult) -> None:
    """Assert fused == unfused == serial — and memoized == unmemoized,
    and serial == processes — bit for bit, plus that the
    service/queue path (including a kill/resume cycle) reproduces the
    serial run exactly.

    Alternate configurations equal to the main run (or to each other —
    e.g. under ``--serial`` the "unfused" and "serial unfused" runs are
    the same thing) are executed only once.
    """
    this = "fused" if config.fuse else "unfused"
    this += ", memoized" if config.memoize else ", unmemoized"
    this += ", serial" if config.workers == 1 else \
        f", pooled ({config.backend})"
    pool = "serial" if config.workers == 1 else "pooled"
    candidates = [
        (f"{this} vs unfused {pool}",
         dataclasses.replace(config, fuse=False)),
        (f"{this} vs unmemoized {pool}",
         dataclasses.replace(config, memoize=False)),
    ]
    if config.workers > 1:
        # The backend axis: the same pooled grid on both execution
        # backends. With workers=1 each backend degrades to the
        # identical inline loop, so there is nothing to compare.
        candidates += [
            (f"{this} vs {name} backend",
             dataclasses.replace(config, backend=name))
            for name in BACKEND_NAMES
        ]
    candidates.append(
        (f"{this} vs serial unfused unmemoized",
         dataclasses.replace(config, workers=1, fuse=False,
                             memoize=False)))
    ran: list[ExperimentConfig] = []
    for label, alt_config in candidates:
        if alt_config == config or alt_config in ran:
            continue
        ran.append(alt_config)
        alt = run_grid(alt_config, include_timings=False)
        _assert_grids_equal(result, alt, label)
        print(f"verify: {label} — bit-identical, OK", flush=True)
    if not ran:
        print("verify: in-process runs need no comparison — the run is "
              "already serial and unfused", flush=True)
    verify_service_queue(config)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale smoke grid (CI)")
    parser.add_argument("--workers", type=int, default=_default_workers(),
                        help="process-pool size (default: min(8, CPUs), "
                             "at least 2)")
    parser.add_argument("--serial", action="store_true",
                        help="force inline execution (workers=1)")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help="execution backend: serial runs inline, "
                             "processes fans out to isolated workers "
                             "(default: processes)")
    parser.add_argument("--fuse", dest="fuse", action="store_true",
                        default=True,
                        help="compile cells through the fusion planner "
                             "(default)")
    parser.add_argument("--no-fuse", dest="fuse", action="store_false",
                        help="one task per cell, no coalescing/fusion")
    parser.add_argument("--no-memoize", dest="memoize",
                        action="store_false", default=True,
                        help="disable the per-worker RR/RRL schedule-"
                             "transformation cache")
    parser.add_argument("--no-timings", action="store_true",
                        help="skip the Figure 3/4 timing sweeps")
    parser.add_argument("--verify", action="store_true",
                        help="re-run the measure columns unfused and "
                             "serially; assert all runs are bit-identical")
    parser.add_argument("--json", metavar="PATH",
                        help="dump the full grid result as JSON")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    config = make_config(args)
    mode = "serial" if config.workers == 1 \
        else f"{config.workers} workers on {config.backend}"
    mode += ", fused" if config.fuse else ", unfused"
    mode += ", memoized" if config.memoize else ", unmemoized"
    print(f"== paper grid ({'quick' if args.quick else 'paper'} scale, "
          f"{mode}) ==", flush=True)
    if not args.no_timings and config.workers > 1:
        print(f"note: {config.workers} workers — the Figure 3/4 cells are "
              "timed while other columns share the machine, so the "
              "seconds include pool contention; use --serial for "
              "paper-comparable timings (measure values and step counts "
              "are unaffected)", flush=True)
    print("== models ==", flush=True)
    for g in config.groups:
        m, _, _ = build_raid5_availability(config.params_for(g))
        print(f"G={g}: states={m.n_states} transitions={m.n_transitions} "
              f"Lambda={m.max_output_rate:.4f}", flush=True)

    t0 = time.time()
    result = run_grid(config, include_timings=not args.no_timings)
    elapsed = time.time() - t0
    if result.plan_summary:
        print(f"== plan ==\n{result.plan_summary}", flush=True)
    print(result.render(), flush=True)
    print(f"\nTOTAL {elapsed:.1f}s ({mode})", flush=True)

    if args.verify:
        verify_executions(config, result)
    if args.json:
        payload = result.to_dict()
        payload["elapsed_seconds"] = elapsed
        payload["workers"] = config.workers
        payload["backend"] = config.backend
        payload["fused"] = config.fuse
        payload["memoized"] = config.memoize
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
