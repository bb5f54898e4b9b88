"""Unit tests for the BatchRunner: failure capture, determinism,
timeouts and the inline fallback."""

import multiprocessing
import time

import pytest

from repro.batch.runner import (
    BatchExecutionError,
    BatchOutcome,
    BatchRunner,
    BatchTask,
)
from repro.exceptions import TruncationError


# Worker functions must be module-level so the pool can pickle them.
def _square(x):
    return x * x


def _fail(kind):
    if kind == "truncation":
        raise TruncationError("over budget")
    raise ValueError(f"bad kind {kind}")


def _slow_square(x):
    # Later tasks finish *sooner*: exposes any completion-order leakage.
    time.sleep(max(0.0, 0.3 - 0.05 * x))
    return x * x


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


class TestInline:
    def test_single_worker_runs_inline(self):
        runner = BatchRunner(max_workers=1)
        outs = runner.run([BatchTask(fn=_square, args=(i,), key=i)
                           for i in range(5)])
        assert [o.value for o in outs] == [0, 1, 4, 9, 16]
        assert all(o.ok for o in outs)
        assert all(o.duration >= 0.0 for o in outs)

    def test_single_task_avoids_pool(self):
        # Even with workers > 1 a single task should not pay pool startup.
        runner = BatchRunner(max_workers=4)
        start = time.perf_counter()
        outs = runner.run([BatchTask(fn=_square, args=(3,), key="only")])
        assert outs[0].value == 9
        assert time.perf_counter() - start < 0.5

    def test_empty_task_list(self):
        assert BatchRunner(max_workers=2).run([]) == []

    def test_failure_capture_inline(self):
        outs = BatchRunner(max_workers=1).run(
            [BatchTask(fn=_fail, args=("truncation",), key="t"),
             BatchTask(fn=_square, args=(2,), key="ok"),
             BatchTask(fn=_fail, args=("other",), key="v")])
        assert [o.ok for o in outs] == [False, True, False]
        assert outs[0].error_type == "TruncationError"
        assert "over budget" in outs[0].error
        assert "TruncationError" in outs[0].traceback
        assert outs[2].error_type == "ValueError"
        # A failure never aborts the batch: the middle task succeeded.
        assert outs[1].value == 4

    def test_unwrap(self):
        ok = BatchOutcome(key="k", ok=True, value=42)
        assert ok.unwrap() == 42
        bad = BatchOutcome(key="k", ok=False, error_type="ValueError",
                           error="nope")
        with pytest.raises(BatchExecutionError, match="ValueError: nope"):
            bad.unwrap()


class TestPool:
    def test_deterministic_ordering(self):
        runner = BatchRunner(max_workers=2)
        tasks = [BatchTask(fn=_slow_square, args=(i,), key=i)
                 for i in range(6)]
        outs = runner.run(tasks)
        # Input order, not completion order.
        assert [o.key for o in outs] == list(range(6))
        assert [o.value for o in outs] == [i * i for i in range(6)]

    def test_worker_failure_capture(self):
        runner = BatchRunner(max_workers=2)
        outs = runner.run(
            [BatchTask(fn=_fail, args=("truncation",), key="boom"),
             BatchTask(fn=_square, args=(5,), key="fine")])
        assert outs[0].ok is False
        assert outs[0].error_type == "TruncationError"
        assert outs[0].worker_pid is not None
        assert outs[1].value == 25

    def test_task_timeout_recorded(self):
        runner = BatchRunner(max_workers=2, task_timeout=0.2)
        start = time.perf_counter()
        outs = runner.run(
            [BatchTask(fn=_sleepy, args=(1.5,), key="slow"),
             BatchTask(fn=_square, args=(2,), key="fast")])
        elapsed = time.perf_counter() - start
        assert outs[0].ok is False
        assert outs[0].error_type == "TimeoutError"
        assert outs[1].ok is True and outs[1].value == 4
        # run() must honour its deadline rather than joining the hung
        # worker (1.5s sleep): it abandons the pool after the timeout.
        assert elapsed < 1.2, f"run() blocked {elapsed:.2f}s on a timeout"

    def test_chunk_deadline_measured_from_submission(self):
        # Regression: deadlines used to start when *collection* of a
        # task started, so a slow (but in-budget) early task granted
        # every later task that much extra wall-clock. Four 0.8s tasks
        # on two workers with a 1.2s budget: the first pair finishes at
        # ~0.8s (in budget), the second pair at ~1.6s after submission
        # and must be recorded as timed out — under collection-anchored
        # deadlines it would have sailed through with ~0.8s of slack.
        # Forked workers keep pool startup (which also counts against
        # the budget) far below the timing margins here; platforms whose
        # default start method is not fork would need much coarser sleeps.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs the fork start method for tight timings")
        runner = BatchRunner(max_workers=2, task_timeout=1.2)
        start = time.perf_counter()
        outs = runner.run([BatchTask(fn=_sleepy, args=(0.8,), key=i)
                           for i in range(4)])
        elapsed = time.perf_counter() - start
        assert [o.ok for o in outs] == [True, True, False, False]
        assert outs[2].error_type == "TimeoutError"
        assert "submission" in outs[2].error
        # The deadline is honoured in wall-clock too: the run must not
        # wait out the second pair's full sleep.
        assert elapsed < 1.55, f"run() blocked {elapsed:.2f}s past deadline"

    def test_task_weight_scales_timeout_budget(self):
        # A fused task doing N cells' worth of work declares weight=N;
        # its budget must be task_timeout * N, not * 1.
        runner = BatchRunner(max_workers=2, task_timeout=0.25)
        heavy = BatchTask(fn=_sleepy, args=(0.6,), key="w", weight=4)
        light = BatchTask(fn=_sleepy, args=(1.2,), key="l")  # weight 1
        outs = runner.run([heavy, light])
        assert outs[0].ok is True       # 0.6s < 0.25 * 4: weight honoured
        assert outs[1].ok is False      # 1.2s > 0.25 * 1
        assert outs[1].error_type == "TimeoutError"


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchRunner(max_workers=0)
        with pytest.raises(ValueError):
            BatchRunner(task_timeout=0.0)

    def test_default_workers_positive(self):
        assert BatchRunner().max_workers >= 1
