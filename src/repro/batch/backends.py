"""Execution backends for the batch layer.

Two strategies run a list of :class:`~repro.batch.runner.BatchTask`
objects, and they produce bit-identical outcomes:

* :class:`SerialBackend` — an inline loop in the calling process. No
  parallelism, no deadline enforcement, zero overhead; the reference
  semantics.
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` fan-out. Each
  worker is an isolated interpreter with its own cold caches (the
  planner's model/kernel LRU, the Fox–Glynn windows and the RR/RRL
  :class:`~repro.core.schedule_cache.ScheduleCache`), so it pays pool
  boot, pickle/IPC per task and one warm-up per worker. In exchange it
  gets real parallelism on every part of a solve, and an expired task's
  worker is genuinely abandoned.

Both make the same guarantees: submission-order results, structured
failure capture (a raising task yields a failed
:class:`~repro.batch.runner.BatchOutcome`, never a poisoned run), and
per-task deadline accounting measured from submission. The process
backend degrades to the inline loop with ``max_workers=1`` or a single
task, so callers can route everything through one code path
unconditionally.

Selection: ``BatchRunner(backend=...)``, ``SolveService(backend=...)``,
``ExperimentConfig.backend`` or the CLI's ``--backend
{serial,processes}``. ``None`` means processes.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.batch.runner import BatchOutcome, BatchTask

__all__ = [
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "BACKEND_NAMES",
    "resolve_backend",
]

#: The registered backend spellings, in documentation order.
BACKEND_NAMES: tuple[str, ...] = ("serial", "processes")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, >= 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class Backend(ABC):
    """One execution strategy for a list of
    :class:`~repro.batch.runner.BatchTask` objects.

    Implementations own their pool shape (worker count, deadlines) and
    must uphold the runner's contract: outcomes come back in submission
    order, task exceptions become failed outcomes, and — for backends
    that enforce deadlines — a task missing its budget is
    reported as ``error_type="TimeoutError"`` without blocking the run
    on the hung worker.
    """

    #: Registry spelling (``"serial"`` / ``"processes"``).
    name: str = "backend"

    @property
    @abstractmethod
    def max_workers(self) -> int:
        """Degree of parallelism this backend fans out to."""

    @abstractmethod
    def run(self, tasks: Sequence["BatchTask"]) -> list["BatchOutcome"]:
        """Execute every task; outcomes in submission order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(Backend):
    """Inline execution in the calling process.

    The reference semantics: no pool, no pickling, no deadline
    enforcement (an inline task cannot be abandoned). The process
    backend must produce bit-identical outcomes to this one.
    """

    name = "serial"

    @property
    def max_workers(self) -> int:
        return 1

    def run(self, tasks: Sequence["BatchTask"]) -> list["BatchOutcome"]:
        from repro.batch.runner import _run_one

        return [_run_one(t) for t in tasks]


class ProcessBackend(Backend):
    """``ProcessPoolExecutor`` fan-out, one task per future, with
    deadlines.

    Workers start under the platform's default start method. Tasks must
    be picklable: module-level functions plus plain-data arguments.
    """

    name = "processes"

    def __init__(self,
                 max_workers: int | None = None,
                 task_timeout: float | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if task_timeout is not None and task_timeout <= 0.0:
            raise ValueError("task_timeout must be positive")
        self._max_workers = max_workers or available_cpus()
        self._task_timeout = task_timeout

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def task_timeout(self) -> float | None:
        return self._task_timeout

    def run(self, tasks: Sequence["BatchTask"]) -> list["BatchOutcome"]:
        from repro.batch.runner import _run_one

        tasks = list(tasks)
        if not tasks:
            return []
        if self._max_workers == 1 or len(tasks) == 1:
            # Degenerate fan-out: the pool would add only boot and
            # pickling overhead. Inline keeps identical numbers.
            return [_run_one(t) for t in tasks]
        return self._run_pool(tasks)

    def _run_pool(self, tasks: list["BatchTask"]) -> list["BatchOutcome"]:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout

        from repro.batch.runner import BatchOutcome, _run_one

        outcomes: list[BatchOutcome] = []
        timed_out = False
        pool = ProcessPoolExecutor(max_workers=self._max_workers)
        try:
            futures = [pool.submit(_run_one, task) for task in tasks]
            # Deadlines are anchored at submission time: every task must
            # deliver within its own budget of wall-clock from *now*,
            # however long earlier tasks took to collect.
            submitted = time.monotonic()
            for task, future in zip(tasks, futures):
                budget = remaining = None
                if self._task_timeout is not None:
                    budget = self._task_timeout * max(1, task.weight)
                    remaining = max(0.0,
                                    budget - (time.monotonic() - submitted))
                try:
                    outcomes.append(future.result(timeout=remaining))
                except FuturesTimeout:
                    timed_out = True
                    future.cancel()
                    outcomes.append(
                        BatchOutcome(key=task.key, ok=False,
                                     error_type="TimeoutError",
                                     error=f"no result within {budget:.3g}s "
                                           "of submission (task deadline)"))
                except Exception as exc:  # BrokenProcessPool and friends;
                    # KeyboardInterrupt must abort the whole run instead.
                    outcomes.append(
                        BatchOutcome(key=task.key, ok=False,
                                     error_type=type(exc).__name__,
                                     error=str(exc)))
        finally:
            # After a timeout, do NOT wait for the hung worker — run()'s
            # deadline contract beats a clean join. The abandoned worker
            # survives until its task finishes (documented best-effort).
            pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
        return outcomes


def resolve_backend(backend: "Backend | str | None",
                    *,
                    max_workers: int | None = None,
                    task_timeout: float | None = None) -> Backend:
    """Turn a backend spec into a live :class:`Backend`.

    ``backend`` may be a ready instance (returned as-is — it owns its
    own pool shape), a name from :data:`BACKEND_NAMES`, or ``None``
    meaning processes.
    """
    if isinstance(backend, Backend):
        # A ready instance owns its pool shape: silently dropping the
        # caller's explicit max_workers/task_timeout would disable the
        # very behaviour the call visibly requested.
        conflicts = [label for label, clash in (
            (f"max_workers={max_workers}", max_workers is not None),
            (f"task_timeout={task_timeout}", task_timeout is not None),
        ) if clash]
        if conflicts:
            raise ValueError(
                f"a ready {type(backend).__name__} instance owns its own "
                f"pool shape; configure it at construction instead of "
                f"passing {', '.join(conflicts)} alongside it")
        return backend
    name = "processes" if backend is None else str(backend).strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {backend!r} "
            f"(known: {', '.join(BACKEND_NAMES)})")
    if name == "serial":
        return SerialBackend()
    return ProcessBackend(max_workers=max_workers,
                          task_timeout=task_timeout)
