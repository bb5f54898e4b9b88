"""Command-line interface: queue RAID and scenario workloads from a
shell, and list the registered solvers. The paper's tables and figures
are reproduced by ``scripts/run_paper_grid.py``; a one-off solve of a
live model is ``repro.analysis.runner.solve``.

Examples
--------
List the registered solvers and their capabilities::

    python -m repro solvers list

Run the quick grid through the resumable on-disk job queue (a killed
``run`` resumes from the journal with bit-identical results)::

    python -m repro batch submit --queue ./q --quick
    python -m repro batch run --queue ./q --workers 4
    python -m repro batch status --queue ./q
    python -m repro batch collect --queue ./q --json results.json

Journal a generated scenario sweep instead of the grid::

    python -m repro batch submit --queue ./qs \
        --scenarios birth_death block --methods SR RSD --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.analysis.experiments import (
    ExperimentConfig,
    grid_solve_requests,
)
from repro.analysis.reporting import format_table
from repro.solvers import registry

__all__ = ["main", "build_parser"]


def _cmd_solvers_list(args: argparse.Namespace) -> int:
    """``repro solvers list`` — the registry, end to end: every row is a
    live :class:`~repro.solvers.registry.SolverSpec`."""
    rows = []
    for spec in registry.specs():
        caps = ", ".join(flag.replace("_", "-")
                         for flag in spec.capabilities()) or "-"
        rows.append([spec.name, caps, spec.summary])
    print(format_table(
        f"{len(rows)} registered solvers "
        "(capabilities drive planner fusion/caching/memoization)",
        ["method", "capabilities", "summary"], rows))
    return 0


# -- queue-backed batch execution ------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (rejected at parse time, so bad
    values never reach the queue/runner as raw ValueErrors)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _batch_config_from(args: argparse.Namespace) -> ExperimentConfig:
    if args.quick:
        return ExperimentConfig.quick()
    if args.paper:
        return ExperimentConfig.paper(sr_step_budget=args.sr_budget)
    kwargs = {}
    if args.groups:
        kwargs["groups"] = tuple(args.groups)
    if args.times:
        kwargs["times"] = tuple(args.times)
    return ExperimentConfig(sr_step_budget=args.sr_budget, **kwargs)


def _cmd_batch_submit(args: argparse.Namespace) -> int:
    from repro.service import JobQueue

    if args.scenarios:
        from repro.batch.scenarios import (
            generate_scenarios,
            scenario_requests,
        )
        scenarios = generate_scenarios(families=args.scenarios,
                                       seed=args.seed)
        requests = scenario_requests(scenarios,
                                     methods=tuple(args.methods))
        what = (f"scenario sweep ({', '.join(args.scenarios)}, "
                f"methods {', '.join(args.methods)})")
    else:
        config = _batch_config_from(args)
        requests = grid_solve_requests(config)
        what = (f"grid solve cells (G={list(config.groups)}, "
                f"{len(config.times)} horizons)")
    queue = JobQueue(args.queue)
    ids = queue.submit(requests)
    print(f"submitted {len(ids)} jobs [{what}] to {queue.path}")
    return 0


def _cmd_batch_run(args: argparse.Namespace) -> int:
    from repro.service import JobQueue, SolveService

    queue = JobQueue.resume(args.queue)
    service = SolveService(workers=args.workers)
    processed = queue.run(service, limit=args.limit,
                          checkpoint=args.checkpoint)
    failed = sum(1 for _, o in processed if not o.ok)
    status = queue.status()
    print(f"processed {len(processed)} jobs ({failed} failed); "
          f"{status['pending']} still pending in {queue.path}")
    return 0 if failed == 0 else 1


def _cmd_batch_status(args: argparse.Namespace) -> int:
    from repro.service import JobQueue

    status = JobQueue.resume(args.queue).status()
    print(f"{status['path']}: {status['submitted']} submitted, "
          f"{status['completed']} completed ({status['failed']} failed), "
          f"{status['pending']} pending")
    return 0


def _cmd_batch_collect(args: argparse.Namespace) -> int:
    from repro.service import JobQueue
    from repro.service.protocol import outcome_to_dict

    queue = JobQueue.resume(args.queue)
    outcomes = queue.collect(require_complete=not args.partial)
    rows = []
    for out in outcomes:
        if out.ok and hasattr(out.value, "values"):
            summary = " ".join(f"{v:.6e}" for v in out.value.values)
        elif out.ok:
            summary = repr(out.value)
        else:
            summary = f"{out.error_type}: {out.error}"
        rows.append([repr(out.key), "ok" if out.ok else "FAILED", summary])
    print(format_table(f"{len(outcomes)} outcomes from {queue.path}",
                       ["key", "status", "result"], rows))
    if args.json:
        payload = {"queue": str(queue.path),
                   "outcomes": [outcome_to_dict(o) for o in outcomes]}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerative randomization with Laplace transform "
                    "inversion — paper reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "batch",
        help="queue-backed batch execution through SolveService",
        description="Submit solve cells to a resumable on-disk job "
                    "queue, execute them through the SolveService "
                    "facade, and collect the journaled outcomes. A "
                    "killed run resumes from the journal with "
                    "bit-identical results.")
    batch_sub = p.add_subparsers(dest="batch_command", required=True)

    pb = batch_sub.add_parser("submit",
                              help="journal grid or scenario solve cells")
    pb.add_argument("--queue", required=True, metavar="DIR",
                    help="queue directory (created if missing)")
    pb.add_argument("--quick", action="store_true",
                    help="submit the seconds-scale smoke grid")
    pb.add_argument("--paper", action="store_true",
                    help="use the paper's exact grid (G=20/40, t<=1e5 h)")
    pb.add_argument("--groups", type=int, nargs="+",
                    help="parity-group counts G (default: 5 10)")
    pb.add_argument("--times", type=float, nargs="+",
                    help="horizons in hours (default: 1..1e4, decades)")
    pb.add_argument("--sr-budget", type=int, default=2_000_000,
                    help="skip SR/RR cells beyond this many inner steps")
    pb.add_argument("--scenarios", nargs="+", metavar="FAMILY",
                    help="submit a generated scenario sweep instead of "
                         "the paper grid")
    pb.add_argument("--methods", nargs="+", default=["RRL"],
                    metavar="METHOD",
                    help="methods for --scenarios sweeps (default: RRL)")
    pb.add_argument("--seed", type=int, default=0,
                    help="seed for --scenarios generation")
    pb.set_defaults(func=_cmd_batch_submit)

    pb = batch_sub.add_parser("run", help="execute pending jobs")
    pb.add_argument("--queue", required=True, metavar="DIR")
    pb.add_argument("--workers", type=_positive_int, default=1,
                    help="pool size (default: 1, inline)")
    pb.add_argument("--limit", type=int, default=None,
                    help="process at most this many pending jobs")
    pb.add_argument("--checkpoint", type=_positive_int, default=8,
                    help="jobs per fsynced journal batch (default: 8)")
    pb.set_defaults(func=_cmd_batch_run)

    pb = batch_sub.add_parser("status", help="queue counts")
    pb.add_argument("--queue", required=True, metavar="DIR")
    pb.set_defaults(func=_cmd_batch_status)

    pb = batch_sub.add_parser("collect",
                              help="print (and optionally dump) outcomes")
    pb.add_argument("--queue", required=True, metavar="DIR")
    pb.add_argument("--partial", action="store_true",
                    help="allow collecting while jobs are still pending")
    pb.add_argument("--json", metavar="PATH",
                    help="dump wire-format outcomes as JSON")
    pb.set_defaults(func=_cmd_batch_collect)

    p = sub.add_parser(
        "solvers",
        help="inspect the capability-declaring solver registry")
    solvers_sub = p.add_subparsers(dest="solvers_command", required=True)
    ps = solvers_sub.add_parser(
        "list",
        help="list registered solvers, their capabilities and summaries")
    ps.set_defaults(func=_cmd_solvers_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (``python -m repro ...``)."""
    from repro.exceptions import ProtocolError, QueueError, UnknownMethodError

    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return args.func(args)
    except (ProtocolError, QueueError, UnknownMethodError) as exc:
        # Operational errors of the queue-backed commands (missing
        # journal, incomplete queue, bad wire payload, a method tag the
        # registry does not know) are runtime failures, not usage
        # mistakes: report them plainly on stderr with an ordinary
        # failure code — no usage banner, no traceback, and
        # distinguishable from argparse's exit status 2.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
