#!/usr/bin/env python
"""Run the paper's evaluation grid through the fused parallel batch stack.

Default: the paper's exact grid (G ∈ {20, 40}, t up to 10⁵ h) compiled by
the fusion planner (duplicate solves coalesce, unfused cells share one
kernel per worker) and fanned over a process pool (``--workers``), or run
inline with ``--serial``. ``--quick`` switches to a seconds-scale smoke
grid for CI. ``--verify`` asserts that neither the planner nor the pool
ever changes a number: every solve cell of the grid, solved through the
configured service, must equal its direct registry solve (values, steps
and abscissa counts, bit for bit); pooled runs are re-run inline and
their grids compared; and the grid's solve cells are pushed through an
on-disk ``JobQueue`` — killed halfway and resumed from the journal —
whose collected outcomes must equal the direct solves too.

Native BLAS/OpenMP thread pools are pinned to one thread before numpy
loads. Pool workers inherit the pin, so N workers use N cores instead of
N × (BLAS threads), and serial and pooled runs use the same BLAS thread
count — which keeps ``--verify`` bit-identical.

Examples
--------
    python scripts/run_paper_grid.py                 # paper grid, pooled
    python scripts/run_paper_grid.py --workers 8
    python scripts/run_paper_grid.py --quick --verify
    python scripts/run_paper_grid.py --serial --json out.json
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
from repro.analysis.runner import solve  # noqa: E402
from repro.batch.runner import available_cpus  # noqa: E402
from repro.models import build_raid5_availability  # noqa: E402
from repro.service import JobQueue  # noqa: E402
from repro.solvers.registry import get_spec  # noqa: E402


def _default_workers() -> int:
    # The grid has O(10) column tasks; ≥ 2 keeps the pooled path exercised
    # even on small machines, more than 8 buys nothing.
    return max(2, min(8, available_cpus()))


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    workers = 1 if args.serial else args.workers
    if args.quick:
        return ExperimentConfig.quick(workers=workers)
    return ExperimentConfig.paper(workers=workers)


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
        if other.ur_abscissae[g] != reference.ur_abscissae[g]:
            raise AssertionError(
                f"UR abscissa counts differ for G={g} ({label})")


def _direct_solve(request):
    """The registry's solver on the request's freshly built model (with
    a kernel of its own): no schedule cache, no plan."""
    model, rewards = request.resolve()
    return solve(model, rewards, request.measure, list(request.times),
                 request.eps, method=request.method,
                 **request.solver_kwargs)


def _abscissae(solution) -> list[int]:
    """RRL's abscissa counts (an array in process, a list once a queue
    has journaled the solution); empty for other methods."""
    return [int(a) for a in solution.stats.get("n_abscissae", ())]


def _assert_outcomes_equal(outcomes, requests, reference,
                           label: str) -> None:
    """Every outcome equals its direct solve: values, steps and abscissa
    counts, bit for bit."""
    if len(outcomes) != len(requests):
        raise AssertionError(f"{label} returned {len(outcomes)} outcomes "
                             f"for {len(requests)} requests")
    for got, req, ref in zip(outcomes, requests, reference):
        if not got.ok:
            raise AssertionError(
                f"cell {req.key!r} failed ({label}): {got.error}")
        sol = got.value
        if got.key != req.key \
                or not np.array_equal(sol.values, ref.values) \
                or not np.array_equal(sol.steps, ref.steps) \
                or _abscissae(sol) != _abscissae(ref):
            raise AssertionError(
                f"{label} differs from the direct solve for cell "
                f"{req.key!r}")


def _assert_grid_matches(result: GridResult, requests, reference) -> None:
    """The main run's measured cells (the RRL/RSD step columns, the UR
    values and abscissa counts) equal the direct solves."""
    for req, ref in zip(requests, reference):
        if req.key[0] == "ur":
            g = req.key[1]
            same = result.ur_values[g] == [float(v) for v in ref.values] \
                and result.ur_abscissae[g] == _abscissae(ref)
        else:
            _, kind, g, column = req.key
            table = result.table1 if kind == "UA" else result.table2
            label = f"G={g} {get_spec(column).table_label}"
            same = table.columns[label] == [int(s) for s in ref.steps]
        if not same:
            raise AssertionError(
                f"the grid differs from the direct solve for cell "
                f"{req.key!r}")


def verify_service_queue(config: ExperimentConfig, requests,
                         reference) -> None:
    """Assert on-disk queue execution (with a kill/resume cycle) == the
    direct solves, bit for bit.

    The grid's solve cells are submitted to a temporary
    :class:`JobQueue`, half are executed, the queue object is dropped
    (the "kill" — only the journal survives), a fresh queue resumes from
    the journal and finishes, and every collected outcome is compared
    with its direct solve.
    """
    with tempfile.TemporaryDirectory(prefix="repro-queue-") as tmp:
        queue = JobQueue(tmp)
        queue.submit(requests)
        # First half, one fsync per job, then "kill" the process state.
        queue.run(config.service(), limit=len(requests) // 2,
                  checkpoint=1)
        del queue
        resumed = JobQueue.resume(tmp)
        n_pending = len(resumed.pending())
        resumed.run(config.service())
        outcomes = resumed.collect()
    _assert_outcomes_equal(outcomes, requests, reference, "on-disk queue")
    print(f"verify: on-disk queue (kill after "
          f"{len(requests) - n_pending}/{len(requests)} jobs, resumed "
          "from journal) vs direct solves — bit-identical, OK",
          flush=True)


def verify_executions(config: ExperimentConfig, result: GridResult) -> None:
    """Assert planned == direct, pooled == inline and queue == direct,
    bit for bit.

    The reference is each grid solve cell's direct registry solve. The
    main run's tables and UR sweep, and the cells solved again through
    ``config.service()`` (values included), must match it; pooled runs
    re-run the grid inline (``workers=1``) and compare it with the main
    run; the queue axis runs the cells through a killed and resumed
    :class:`JobQueue`.
    """
    requests = grid_solve_requests(config)
    reference = [_direct_solve(req) for req in requests]
    pool = "inline" if config.workers == 1 else \
        f"pooled ({config.workers} workers)"
    _assert_grid_matches(result, requests, reference)
    _assert_outcomes_equal(config.service().solve(requests), requests,
                           reference, f"planned {pool}")
    print(f"verify: planned {pool} grid and its {len(requests)} solve "
          "cells vs direct solves — bit-identical, OK", flush=True)
    if config.workers > 1:
        # The pool axis: the same grid inline. An inline main run has
        # nothing to compare against.
        inline = run_grid(dataclasses.replace(config, workers=1),
                          include_timings=False)
        label = f"{pool} vs inline"
        _assert_grids_equal(result, inline, label)
        print(f"verify: {label} — bit-identical, OK", flush=True)
    verify_service_queue(config, requests, reference)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale smoke grid (CI)")
    parser.add_argument("--workers", type=int, default=_default_workers(),
                        help="process-pool size (default: min(8, CPUs), "
                             "at least 2)")
    parser.add_argument("--serial", action="store_true",
                        help="force inline execution (workers=1)")
    parser.add_argument("--no-timings", action="store_true",
                        help="skip the Figure 3/4 timing sweeps")
    parser.add_argument("--verify", action="store_true",
                        help="assert planned == direct solves, pooled "
                             "== inline and a killed/resumed queue agree "
                             "bit for bit")
    parser.add_argument("--json", metavar="PATH",
                        help="dump the full grid result as JSON")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    config = make_config(args)
    mode = "serial" if config.workers == 1 \
        else f"{config.workers} workers"
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
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
