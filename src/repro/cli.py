"""Command-line interface: solve, diagnose and queue RAID workloads from
a shell. The paper's tables and figures are reproduced by
``scripts/run_paper_grid.py``.

Examples
--------
Solve the RAID unreliability at three horizons with RRL::

    python -m repro solve --model raid-ur --groups 20 \
        --times 1e3 1e4 1e5 --method RRL --eps 1e-12

Rank regenerative-state candidates for the availability model::

    python -m repro diagnose --groups 10

List the registered solvers and their capabilities::

    python -m repro solvers list

Run the quick grid through the resumable on-disk job queue (a killed
``run`` resumes from the journal with bit-identical results)::

    python -m repro batch submit --queue ./q --quick
    python -m repro batch run --queue ./q --workers 4
    python -m repro batch status --queue ./q
    python -m repro batch collect --queue ./q --json results.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

import numpy as np

from repro.analysis.convergence import compare_regenerative_states
from repro.analysis.experiments import (
    ExperimentConfig,
    grid_solve_requests,
)
from repro.analysis.reporting import format_table
from repro.analysis.runner import solve
from repro.solvers import registry
from repro.markov.mttf import mean_time_to_absorption
from repro.markov.rewards import Measure
from repro.models import (
    Raid5Params,
    build_raid5_availability,
    build_raid5_reliability,
)

__all__ = ["main", "build_parser"]


def _build_model(kind: str, groups: int):
    params = Raid5Params(groups=groups)
    if kind == "raid-ua":
        model, rewards, _ = build_raid5_availability(params)
    elif kind == "raid-ur":
        model, rewards, _ = build_raid5_reliability(params)
    else:
        raise SystemExit(f"unknown model {kind!r}")
    return model, rewards


def _cmd_solve(args: argparse.Namespace) -> int:
    model, rewards = _build_model(args.model, args.groups)
    measure = Measure.TRR if args.measure == "trr" else Measure.MRR
    sol = solve(model, rewards, measure, args.times, eps=args.eps,
                method=args.method)
    rows = [[f"{t:g}", f"{v:.10e}", int(s)]
            for t, v, s in zip(sol.times, sol.values, sol.steps)]
    print(format_table(
        f"{args.measure.upper()} of {args.model} (G={args.groups}) via "
        f"{sol.method}, eps={args.eps:g}",
        ["t (h)", "value", "steps"], rows))
    return 0


def _cmd_mttf(args: argparse.Namespace) -> int:
    model, _ = _build_model("raid-ur", args.groups)
    at = mean_time_to_absorption(model)
    print(f"RAID-5 G={args.groups}: MTTF = {at.mean:.6g} h, "
          f"std = {np.sqrt(at.variance):.6g} h, cv² = {at.cv2:.4f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import cross_validate
    model, rewards = _build_model(args.model, args.groups)
    report = cross_validate(model, rewards, Measure.TRR, args.times,
                            eps=args.eps)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_diagnose(args: argparse.Namespace) -> int:
    model, _ = _build_model("raid-ua", args.groups)
    ranked = compare_regenerative_states(model)
    rows = []
    for state, fit in ranked[: args.top]:
        label = model.labels[state] if model.labels else state
        rows.append([state, str(label), f"{fit.rate:.6f}",
                     "yes" if fit.exhausted else "no"])
    print(format_table(
        f"Regenerative-state candidates for RAID-5 G={args.groups} "
        "(smaller decay = smaller K)",
        ["index", "state", "a(k) decay", "exhausted"], rows))
    return 0


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

    p = sub.add_parser("solve", help="solve a RAID measure directly")
    p.add_argument("--model", choices=["raid-ua", "raid-ur"],
                   default="raid-ur")
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--measure", choices=["trr", "mrr"], default="trr")
    p.add_argument("--method", choices=registry.known_methods(),
                   default="RRL")
    p.add_argument("--times", type=float, nargs="+",
                   default=[1.0, 100.0, 10000.0])
    p.add_argument("--eps", type=float, default=1e-12)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mttf", help="mean time to failure of the RAID model")
    p.add_argument("--groups", type=int, default=10)
    p.set_defaults(func=_cmd_mttf)

    p = sub.add_parser("diagnose",
                       help="rank regenerative-state candidates")
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=_cmd_diagnose)

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

    p = sub.add_parser("validate",
                       help="cross-method agreement check on a RAID model")
    p.add_argument("--model", choices=["raid-ua", "raid-ur"],
                   default="raid-ur")
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--times", type=float, nargs="+", default=[1.0, 100.0])
    p.add_argument("--eps", type=float, default=1e-10)
    p.set_defaults(func=_cmd_validate)
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
