"""Parallel batch execution of experiment tasks.

The paper's evaluation — and any serious sweep built on top of it — is a
grid of independent ``(model, measure, ε, t, method)`` cells. The
:class:`BatchRunner` runs such cells on an execution backend
(:mod:`repro.batch.backends`: inline serial or a process pool) with:

* **structured failure capture** — a task raising (e.g.
  :class:`~repro.exceptions.TruncationError` for an over-budget SR cell)
  produces a :class:`BatchOutcome` carrying the exception type, message
  and formatted traceback instead of poisoning the whole run;
* **per-task timeouts** — a task that exceeds ``task_timeout`` × (its
  weight) is recorded as timed out (best-effort: a running worker cannot
  be interrupted mid-task, so the deadline is enforced at collection
  time);
* **deterministic ordering** — results always come back in submission
  order, whatever order the workers finished in.

Tasks submitted to the process backend must be picklable: module-level
functions plus plain-data arguments (every in-tree model/reward/measure
object pickles cleanly); the serial backend accepts anything callable.
With ``max_workers=1`` (or a single task) the process backend degrades to
an inline loop with identical semantics minus timeout enforcement, so
library code can route *everything* through it unconditionally.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.batch.backends import (
    Backend,
    available_cpus,
    resolve_backend,
)

__all__ = ["BatchTask", "BatchOutcome", "BatchExecutionError", "BatchRunner",
           "available_cpus"]


class BatchExecutionError(RuntimeError):
    """Raised by :meth:`BatchOutcome.unwrap` on a failed task."""


@dataclass(frozen=True)
class BatchTask:
    """One unit of work: ``fn(*args, **kwargs)`` under identity ``key``."""

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
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
        value = task.fn(*task.args, **task.kwargs)
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


class BatchRunner:
    """Fan :class:`BatchTask` lists over an execution backend.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the CPUs available to this process. With
        ``max_workers=1`` everything runs inline (no pool), which is
        also the fallback when only one task is submitted.
    task_timeout:
        Soft per-task seconds budget, enforced by the process backend. A
        task is given ``task_timeout * max(1, task.weight)`` measured
        from the moment the batch is *submitted* (not from when its
        result is collected — deadlines anchored at collection would let
        a slow early task silently grant every later task extra
        wall-clock). Time spent queued behind other tasks — and pool
        startup itself, which under the ``spawn`` start method includes
        booting interpreters — counts: a task still queued when its deadline
        passes is reported timed out even though it never ran, and once
        one task expires every later same-deadline task that has not
        finished expires with it. Size the timeout for the whole fan-out,
        not just one task's compute. On expiry the task is recorded as
        failed with ``error_type="TimeoutError"`` and :meth:`run` returns
        without joining the hung worker (an orphaned process runs its
        current task to completion or dies with the interpreter — a
        running task cannot be interrupted from outside). ``None``
        disables deadlines. Inline runs are never interrupted.
    backend:
        Execution strategy: ``"serial"``, ``"processes"``, a ready
        :class:`~repro.batch.backends.Backend` instance (which then owns
        its own pool shape), or ``None`` for processes. See
        :mod:`repro.batch.backends` for the trade-offs.
    """

    def __init__(self,
                 max_workers: int | None = None,
                 task_timeout: float | None = None,
                 backend: Backend | str | None = None) -> None:
        self._backend = resolve_backend(backend,
                                        max_workers=max_workers,
                                        task_timeout=task_timeout)

    @property
    def max_workers(self) -> int:
        """Effective pool size."""
        return self._backend.max_workers

    @property
    def backend(self) -> Backend:
        """The execution backend this runner fans out on."""
        return self._backend

    # -- public API --------------------------------------------------------

    def run(self, tasks: Sequence[BatchTask]) -> list[BatchOutcome]:
        """Execute every task; outcomes come back in submission order."""
        tasks = list(tasks)
        if not tasks:
            return []
        return self._backend.run(tasks)
