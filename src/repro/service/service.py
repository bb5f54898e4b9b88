"""``SolveService`` — the one front door for executing solve workloads.

Per-solver ``solve(...)`` and :func:`repro.analysis.runner.solve` serve
one ad-hoc solve of a live model. Everything batch-shaped goes through
``SolveService``: it owns the planner (coalescing + fusion), the pool
shape its tasks run on (:func:`~repro.batch.runner.run_tasks`: inline,
or ``workers`` processes with per-task deadlines, and with it the
per-worker model-cache behaviour), and the scatter bookkeeping that
maps task results back onto requests — so ``analysis``, the CLI and
the scripts never touch planner or runner internals.

The facade adds no numerics of its own: every solution is bit-for-bit
identical to calling the registry's solver directly on the request's
model (pinned by ``tests/batch/test_planner.py``), which is what makes
it safe for every consumer to route through it unconditionally.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.batch.planner import ExecutionPlan, plan_requests, SolveRequest
from repro.batch.runner import BatchOutcome, BatchTask, run_tasks
from repro.markov.base import TransientSolution

__all__ = ["SolveService", "ServiceResult"]


@dataclass
class ServiceResult:
    """Everything one :meth:`SolveService.execute` fan-out produced.

    ``outcomes`` holds one :class:`~repro.batch.runner.BatchOutcome` per
    submitted request, in submission order, however the plan coalesced or
    fused the work; ``task_outcomes`` holds one outcome per passthrough
    task, in task order.
    """

    outcomes: list[BatchOutcome]
    task_outcomes: list[BatchOutcome]
    plan: ExecutionPlan

    @property
    def all_outcomes(self) -> list[BatchOutcome]:
        """Request outcomes followed by passthrough-task outcomes."""
        return self.outcomes + self.task_outcomes

    def solutions(self) -> list[TransientSolution]:
        """Unwrapped per-request values (raises on the first failure)."""
        return [o.unwrap() for o in self.outcomes]


class SolveService:
    """Facade wrapping planner → pool → scatter behind one call.

    Parameters
    ----------
    workers:
        Pool size. The default ``workers=1`` runs everything inline in
        the calling process; larger values fan the tasks over that many
        worker processes. Both give bit-identical numbers.
    task_timeout:
        Soft per-task seconds budget for pooled runs, anchored at
        submission and scaled by each task's ``weight`` (see
        :func:`~repro.batch.runner.run_tasks`); ``None`` disables
        deadlines. Inline runs are never interrupted.
    backend:
        ``"serial"`` forces inline execution whatever ``workers`` says;
        ``"processes"`` or ``None`` means a pool of ``workers``.
    """

    def __init__(self,
                 *,
                 workers: int = 1,
                 task_timeout: float | None = None,
                 backend: str | None = None) -> None:
        if backend not in (None, "serial", "processes"):
            raise ValueError(f"unknown backend {backend!r} "
                             "(known: serial, processes)")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if task_timeout is not None and task_timeout <= 0.0:
            raise ValueError("task_timeout must be positive")
        self._workers = 1 if backend == "serial" else workers
        self._task_timeout = task_timeout

    @property
    def workers(self) -> int:
        """Effective pool size (1 = inline)."""
        return self._workers

    def plan(self, requests: Iterable[SolveRequest]) -> ExecutionPlan:
        """Compile requests through the planner (without executing —
        useful for cost inspection and ``plan.summary()``)."""
        return plan_requests(requests, workers=self._workers)

    def execute(self,
                requests: Iterable[SolveRequest],
                tasks: Sequence[BatchTask] = ()) -> ServiceResult:
        """Run a mixed workload in one pool fan-out.

        ``requests`` are compiled by the planner; ``tasks`` are opaque
        passthroughs (analytic columns, timing cells) appended to the
        same :func:`~repro.batch.runner.run_tasks` call so the whole
        workload shares the worker pool.
        """
        requests = list(requests)
        tasks = list(tasks)
        plan = plan_requests(requests, workers=self._workers)
        outcomes = run_tasks(plan.tasks + tasks, workers=self._workers,
                             task_timeout=self._task_timeout)
        return ServiceResult(
            outcomes=plan.scatter(outcomes[:plan.n_tasks]),
            task_outcomes=outcomes[plan.n_tasks:],
            plan=plan)

    def solve(self, requests: Iterable[SolveRequest]) -> list[BatchOutcome]:
        """One outcome per request, in submission order."""
        return self.execute(requests).outcomes

    def solve_one(self, request: SolveRequest) -> TransientSolution:
        """Execute a single request and unwrap its solution."""
        return self.solve([request])[0].unwrap()
