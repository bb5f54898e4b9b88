"""Parallel batch execution of experiment tasks.

The paper's evaluation — and any serious sweep built on top of it — is a
grid of independent ``(model, measure, ε, t, method)`` cells.
:func:`run_tasks` runs such cells inline or on a process pool with:

* **structured failure capture** — a task raising (e.g.
  :class:`~repro.exceptions.TruncationError` for an over-budget SR cell)
  produces a :class:`BatchOutcome` carrying the exception type, message
  and formatted traceback instead of poisoning the whole run;
* **per-task timeouts** — a pooled task that exceeds ``task_timeout`` ×
  (its weight) is recorded as timed out (best-effort: a running worker
  cannot be interrupted mid-task, so the deadline is enforced at
  collection time);
* **deterministic ordering** — results always come back in submission
  order, whatever order the workers finished in.

Pooled tasks must be picklable: module-level functions plus plain-data
arguments (every in-tree model/reward/measure object pickles cleanly).
Each pool worker is an isolated interpreter with its own cold caches
(the planner's model LRU, the Fox–Glynn windows and the RR/RRL
:class:`~repro.core.schedule_cache.ScheduleCache`). With ``workers=1``
(or a single task) the tasks run inline in the calling process, with
identical numbers and no deadline enforcement, so callers can route
*everything* through :func:`run_tasks` unconditionally. Applications
set the pool shape on :class:`~repro.service.service.SolveService`.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["BatchTask", "BatchOutcome", "BatchExecutionError", "run_tasks",
           "available_cpus"]


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, >= 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class BatchExecutionError(RuntimeError):
    """Raised by :meth:`BatchOutcome.unwrap` on a failed task."""


@dataclass(frozen=True)
class BatchTask:
    """One unit of work: ``fn(*args)`` under identity ``key``."""

    fn: Callable[..., Any]
    args: tuple = ()
    key: Any = None
    weight: int = 1
    """Logical cells this task covers. A fused task doing the work of
    ``N`` cells sets ``weight=N`` so per-task timeout budgets scale with
    the work actually submitted, not the task count."""


@dataclass
class BatchOutcome:
    """Result (or structured failure) of one :class:`BatchTask`.

    ``error_type`` holds the exception class name (``"TruncationError"``,
    ``"TimeoutError"``, ``"BrokenProcessPool"``, ...) so callers can
    pattern-match expected failures without importing worker internals.
    """

    key: Any
    ok: bool
    value: Any = None
    error_type: str | None = None
    error: str | None = None
    traceback: str | None = None
    duration: float = 0.0
    worker_pid: int | None = None

    def unwrap(self) -> Any:
        """Return ``value`` or raise with the captured failure context."""
        if self.ok:
            return self.value
        raise BatchExecutionError(
            f"task {self.key!r} failed with {self.error_type}: {self.error}"
            + (f"\n{self.traceback}" if self.traceback else ""))


def _run_one(task: BatchTask) -> BatchOutcome:
    """Execute one task, converting any exception into a failure outcome."""
    start = time.perf_counter()
    try:
        value = task.fn(*task.args)
    except Exception as exc:  # KeyboardInterrupt/SystemExit must propagate
        return BatchOutcome(
            key=task.key, ok=False,
            error_type=type(exc).__name__, error=str(exc),
            traceback=_traceback.format_exc(),
            duration=time.perf_counter() - start,
            worker_pid=os.getpid())
    return BatchOutcome(key=task.key, ok=True, value=value,
                        duration=time.perf_counter() - start,
                        worker_pid=os.getpid())


def run_tasks(tasks: Sequence[BatchTask], *,
              workers: int = 1,
              task_timeout: float | None = None) -> list[BatchOutcome]:
    """Execute every task; outcomes come back in submission order.

    With ``workers == 1`` or a single task the tasks run inline (the
    pool would add only boot and pickling overhead). Otherwise a
    ``ProcessPoolExecutor`` of ``workers`` processes gets one future per
    task.

    ``task_timeout`` is a soft per-task seconds budget, enforced on the
    pool only. A task is given ``task_timeout * max(1, task.weight)``
    measured from the moment the batch is *submitted* (not from when its
    result is collected — deadlines anchored at collection would let a
    slow early task silently grant every later task extra wall-clock).
    Time spent queued behind other tasks — and pool startup itself,
    which under the ``spawn`` start method includes booting interpreters
    — counts: a task still queued when its deadline passes is reported
    timed out even though it never ran, and once one task expires every
    later same-deadline task that has not finished expires with it. Size
    the timeout for the whole fan-out, not just one task's compute. On
    expiry the task is recorded as failed with
    ``error_type="TimeoutError"`` and the call returns without joining
    the hung worker (an orphaned process runs its current task to
    completion or dies with the interpreter — a running task cannot be
    interrupted from outside). ``None`` disables deadlines. Inline runs
    are never interrupted.
    """
    tasks = list(tasks)
    if workers == 1 or len(tasks) <= 1:
        return [_run_one(t) for t in tasks]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout

    outcomes: list[BatchOutcome] = []
    timed_out = False
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_run_one, task) for task in tasks]
        # Deadlines are anchored at submission time: every task must
        # deliver within its own budget of wall-clock from *now*,
        # however long earlier tasks took to collect.
        submitted = time.monotonic()
        for task, future in zip(tasks, futures):
            budget = remaining = None
            if task_timeout is not None:
                budget = task_timeout * max(1, task.weight)
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
        # After a timeout, do NOT wait for the hung worker — the
        # deadline contract beats a clean join. The abandoned worker
        # survives until its task finishes (documented best-effort).
        pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
    return outcomes
