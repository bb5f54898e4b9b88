"""``SolveService`` — the one front door for executing solve workloads.

Per-solver ``solve(...)`` and :func:`repro.analysis.runner.solve` serve
one ad-hoc solve of a live model. Everything batch-shaped goes through
``SolveService``: it owns the planner (coalescing + fusion), the
:class:`~repro.batch.runner.BatchRunner` pool it executes on (and with it
the per-worker kernel-cache behaviour), and the scatter bookkeeping that
maps task results back onto requests — so ``analysis``,
``batch.scenarios``, the CLI and the scripts never touch planner or
runner internals.

The facade adds no numerics of its own: every solution is bit-for-bit
identical to calling the registry's solver directly on the request's
model (pinned by ``tests/batch/test_planner.py``), which is what makes
it safe for every consumer to route through it unconditionally.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.batch.backends import Backend
from repro.batch.planner import ExecutionPlan, plan_requests, SolveRequest
from repro.batch.runner import BatchOutcome, BatchRunner, BatchTask
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
    """Facade wrapping planner → runner → scatter behind one call.

    Parameters
    ----------
    workers:
        Pool size, forwarded to the internally-built
        :class:`~repro.batch.runner.BatchRunner` (ignored when ``runner``
        is given). The default ``workers=1`` runs everything inline with
        identical numbers. Other pool settings (deadlines) go in
        through ``backend=ProcessBackend(...)`` or ``runner``.
    backend:
        Execution strategy (``"serial"`` / ``"processes"``, a
        :class:`~repro.batch.backends.Backend` instance, which then owns
        its pool shape, or ``None`` for processes), forwarded to the
        runner. Both backends produce bit-identical outcomes — see
        :mod:`repro.batch.backends`.
    runner:
        A pre-built runner to execute on instead (e.g. one shared across
        several services).
    """

    def __init__(self,
                 *,
                 workers: int = 1,
                 backend: "Backend | str | None" = None,
                 runner: BatchRunner | None = None) -> None:
        if runner is None:
            # A ready backend owns its pool shape unless workers is set.
            shaped = isinstance(backend, Backend) and workers == 1
            runner = BatchRunner(max_workers=None if shaped else workers,
                                 backend=backend)
        self._runner = runner

    @property
    def runner(self) -> BatchRunner:
        """The runner this service executes on."""
        return self._runner

    @property
    def backend(self) -> Backend:
        """The execution backend the underlying runner fans out on."""
        return self._runner.backend

    def plan(self, requests: Iterable[SolveRequest]) -> ExecutionPlan:
        """Compile requests through the planner (without executing —
        useful for cost inspection and ``plan.summary()``)."""
        return plan_requests(requests)

    def execute(self,
                requests: Iterable[SolveRequest],
                tasks: Sequence[BatchTask] = ()) -> ServiceResult:
        """Run a mixed workload in one pool fan-out.

        ``requests`` are compiled by the planner; ``tasks`` are opaque
        passthroughs (analytic columns, timing cells) appended to the
        same :meth:`~repro.batch.runner.BatchRunner.run` call so the
        whole workload shares the worker pool.
        """
        requests = list(requests)
        tasks = list(tasks)
        plan = plan_requests(requests)
        outcomes = self._runner.run(plan.tasks + tasks)
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
