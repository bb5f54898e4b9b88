"""``run_tasks`` and the pool shape ``SolveService`` holds.

The pool is the one layer allowed to vary *how* work runs while
changing *nothing* about what comes back: for every registered solver on
every scenario family, inline == pooled must be bit-identical, failure
capture must match, results come back in submission order, and the pool
must enforce submission-anchored deadlines.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.batch.kernel import kernel_build_count
from repro.batch.planner import SolveRequest
from repro.batch.runner import (
    BatchExecutionError,
    BatchOutcome,
    BatchTask,
    available_cpus,
    run_tasks,
)
from repro.batch.scenarios import Scenario, generate_scenarios
from repro.cache import clear_caches
from repro.exceptions import TruncationError
from repro.markov.rewards import Measure
from repro.service import SolveService
from repro.solvers import registry

EPS = 1e-8

#: One scenario per generator family (deterministic), the inline-vs-pool
#: equivalent of the cross-solver matrix.
FAMILY_SCENARIOS = (
    generate_scenarios(families=("raid5",), times=(1.0, 50.0), eps=EPS)[:1]
    + generate_scenarios(families=("multiprocessor",),
                         times=(1.0, 50.0), eps=EPS)[:1]
    # Same draws as the cross-solver matrix: known-good for every method.
    + [s for s in generate_scenarios(families=("birth_death", "block"),
                                     seed=5, random_count=2,
                                     times=(0.5, 5.0), eps=EPS)
       if s.name in ("bd-0-n21", "block-0-2x4")]
)

_SMALL_BD = Scenario(name="pool-bd", family="birth_death",
                     params={"n": 40, "birth": 1.0, "death": 1.4},
                     measure=Measure.TRR, times=(0.5,), eps=1e-6)

_MEMO_BD = Scenario(name="pool-bd-memo", family="birth_death",
                    params={"n": 400, "birth": 1.0, "death": 1.5},
                    measure=Measure.TRR, times=(10.0,), eps=1e-8)


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


def _die():
    os._exit(1)  # the worker process vanishes mid-task


def _conformance_requests() -> list[SolveRequest]:
    """Every registered solver × every scenario family (where legal)."""
    requests = []
    for scenario in FAMILY_SCENARIOS:
        model, _ = scenario.build()
        irreducible = model.is_irreducible()
        for method in registry.known_methods():
            if method == "RSD" and not irreducible:
                continue  # steady-state detection needs an irreducible chain
            requests.append(SolveRequest(
                scenario=scenario, measure=scenario.measure,
                times=scenario.times, eps=scenario.eps, method=method,
                key=(scenario.name, method)))
    return requests


class TestInlineEqualsPool:
    def test_bit_identical_for_every_solver(self):
        requests = _conformance_requests()
        # Sanity: the matrix really covers every registered solver.
        assert {m for _, m in (r.key for r in requests)} \
            == set(registry.known_methods())

        reference = None
        for workers in (1, 2):
            clear_caches()
            outcomes = SolveService(workers=workers).solve(requests)
            assert [o.key for o in outcomes] == [r.key for r in requests]
            sols = {}
            for out in outcomes:
                assert out.ok, (workers, out.key, out.error)
                sols[out.key] = out.value
            if reference is None:
                reference = sols
                continue
            for key, sol in sols.items():
                ref = reference[key]
                assert np.array_equal(sol.values, ref.values), \
                    (workers, key)
                assert np.array_equal(sol.steps, ref.steps), (workers, key)
                assert sol.method == ref.method
                assert sol.stats["rate"] == ref.stats["rate"]

    def test_failure_capture_identical(self):
        # One cell fails in-solver (SR over its step cap), one succeeds:
        # inline and pooled runs must capture the same structured failure
        # without letting it poison the healthy cell.
        requests = [
            SolveRequest(scenario=_MEMO_BD, measure=Measure.TRR,
                         times=(50.0,), eps=1e-10, method="SR",
                         solver_kwargs={"max_steps": 5}, key="overflow"),
            SolveRequest(scenario=_SMALL_BD, measure=Measure.TRR,
                         times=_SMALL_BD.times, eps=_SMALL_BD.eps,
                         method="SR", key="fine"),
        ]
        captured = {}
        for workers in (1, 2):
            clear_caches()
            bad, good = SolveService(workers=workers).solve(requests)
            assert not bad.ok and bad.error_type == "TruncationError"
            assert "max_steps" in bad.error
            assert good.ok
            captured[workers] = (bad.error, good.value.values.tobytes())
        assert len(set(captured.values())) == 1, captured

    def test_pool_pays_per_worker_and_matches_inline(self):
        """Process workers each warm a private cache: at most one
        schedule build per worker (visible through the per-cell stats),
        none in the parent — and the numbers still match the inline run
        bit for bit."""
        requests = [SolveRequest(scenario=_MEMO_BD, measure=Measure.TRR,
                                 times=(10.0 * (i + 1),), eps=1e-8,
                                 method="RRL", key=i)
                    for i in range(6)]
        clear_caches()
        inline = SolveService(workers=1).solve(requests)

        clear_caches()
        builds_before = kernel_build_count()
        pooled = SolveService(workers=2).solve(requests)
        assert kernel_build_count() - builds_before == 0  # parent idle
        assert all(o.ok for o in pooled)
        builds = sum(1 for o in pooled
                     if not o.value.stats["schedule_cache_hit"])
        assert 1 <= builds <= 2, builds
        for a, b in zip(pooled, inline):
            assert np.array_equal(a.value.values, b.value.values)
            assert np.array_equal(a.value.steps, b.value.steps)


class TestInline:
    def test_single_worker_runs_inline(self):
        outs = run_tasks([BatchTask(fn=_square, args=(i,), key=i)
                          for i in range(5)])
        assert [o.value for o in outs] == [0, 1, 4, 9, 16]
        assert all(o.ok for o in outs)
        assert all(o.duration >= 0.0 for o in outs)
        assert {o.worker_pid for o in outs} == {os.getpid()}

    def test_single_task_avoids_pool(self):
        # Even with workers > 1 a single task should not pay pool startup.
        start = time.perf_counter()
        outs = run_tasks([BatchTask(fn=_square, args=(3,), key="only")],
                         workers=4)
        assert outs[0].value == 9
        assert outs[0].worker_pid == os.getpid()
        assert time.perf_counter() - start < 0.5

    def test_empty_task_list(self):
        assert run_tasks([], workers=2) == []

    def test_failure_capture(self):
        outs = run_tasks(
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

    def test_never_interrupts(self):
        outs = run_tasks(
            [BatchTask(fn=_sleepy, args=(0.15,), key="inline")],
            workers=1, task_timeout=0.05)
        assert outs[0].ok is True  # inline runs are never interrupted

    def test_unwrap(self):
        ok = BatchOutcome(key="k", ok=True, value=42)
        assert ok.unwrap() == 42
        bad = BatchOutcome(key="k", ok=False, error_type="ValueError",
                           error="nope")
        with pytest.raises(BatchExecutionError, match="ValueError: nope"):
            bad.unwrap()


class TestPool:
    def test_deterministic_ordering(self):
        tasks = [BatchTask(fn=_slow_square, args=(i,), key=i)
                 for i in range(6)]
        outs = run_tasks(tasks, workers=2)
        # Input order, not completion order.
        assert [o.key for o in outs] == list(range(6))
        assert [o.value for o in outs] == [i * i for i in range(6)]

    def test_worker_failure_capture(self):
        outs = run_tasks(
            [BatchTask(fn=_fail, args=("truncation",), key="boom"),
             BatchTask(fn=_square, args=(5,), key="fine")], workers=2)
        assert outs[0].ok is False
        assert outs[0].error_type == "TruncationError"
        assert outs[0].worker_pid is not None
        assert outs[1].value == 25

    def test_dead_worker_is_a_failed_outcome(self):
        # A worker that dies breaks the pool: its task (and any still
        # pending) come back as failed outcomes, not as an exception.
        outs = run_tasks([BatchTask(fn=_die, key="dies"),
                          BatchTask(fn=_sleepy, args=(0.2,), key="other")],
                         workers=2)
        assert [o.key for o in outs] == ["dies", "other"]
        assert outs[0].ok is False
        assert outs[0].error_type == "BrokenProcessPool"

    def test_task_timeout_recorded(self):
        start = time.perf_counter()
        outs = run_tasks(
            [BatchTask(fn=_sleepy, args=(1.5,), key="slow"),
             BatchTask(fn=_square, args=(2,), key="fast")],
            workers=2, task_timeout=0.2)
        elapsed = time.perf_counter() - start
        assert outs[0].ok is False
        assert outs[0].error_type == "TimeoutError"
        assert "submission" in outs[0].error
        assert outs[1].ok is True and outs[1].value == 4
        # The deadline contract beats a clean join: run_tasks must not
        # wait out the hung worker's full sleep.
        assert elapsed < 1.2, f"run_tasks blocked {elapsed:.2f}s"

    def test_deadline_measured_from_submission(self):
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
        start = time.perf_counter()
        outs = run_tasks([BatchTask(fn=_sleepy, args=(0.8,), key=i)
                          for i in range(4)], workers=2, task_timeout=1.2)
        elapsed = time.perf_counter() - start
        assert [o.ok for o in outs] == [True, True, False, False]
        assert outs[2].error_type == "TimeoutError"
        assert "submission" in outs[2].error
        # The deadline is honoured in wall-clock too: the call must not
        # wait out the second pair's full sleep.
        assert elapsed < 1.55, f"run_tasks blocked {elapsed:.2f}s"

    def test_task_weight_scales_timeout_budget(self):
        # A fused task doing N cells' worth of work declares weight=N;
        # its budget must be task_timeout * N, not * 1.
        heavy = BatchTask(fn=_sleepy, args=(0.6,), key="w", weight=4)
        light = BatchTask(fn=_sleepy, args=(1.2,), key="l")  # weight 1
        outs = run_tasks([heavy, light], workers=2, task_timeout=0.25)
        assert outs[0].ok is True       # 0.6s < 0.25 * 4: weight honoured
        assert outs[1].ok is False      # 1.2s > 0.25 * 1
        assert outs[1].error_type == "TimeoutError"

    def test_service_task_timeout_reaches_the_pool(self):
        service = SolveService(workers=2, task_timeout=0.2)
        result = service.execute(
            [], [BatchTask(fn=_sleepy, args=(1.5,), key="slow"),
                 BatchTask(fn=_square, args=(2,), key="fast")])
        slow, fast = result.task_outcomes
        assert slow.error_type == "TimeoutError"
        assert fast.ok and fast.value == 4


class TestPoolShape:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="workers"):
            SolveService(workers=0)
        with pytest.raises(ValueError, match="task_timeout"):
            SolveService(task_timeout=0.0)

    def test_defaults(self):
        assert available_cpus() >= 1
        assert SolveService().workers == 1

    def test_backend_names(self):
        assert SolveService(workers=3, backend="serial").workers == 1
        assert SolveService(workers=3, backend="processes").workers == 3
        assert SolveService(workers=3).workers == 3

    def test_service_rejects_unknown_backend(self):
        for name in ("threads", "fibers"):
            with pytest.raises(ValueError, match="known: serial, processes"):
                SolveService(workers=2, backend=name)

    def test_serial_spellings_run_inline(self):
        # The spellings the benchmark uses: a serial service and a serial
        # paper configuration both run their tasks in this process.
        from repro.analysis.experiments import ExperimentConfig

        config = ExperimentConfig.paper(workers=4, backend="serial")
        requests = _conformance_requests()[:2]
        for service in (SolveService(backend="serial"), config.service()):
            assert service.workers == 1
            outs = service.solve(requests)
            assert all(o.ok for o in outs)
            assert {o.worker_pid for o in outs} == {os.getpid()}

    def test_removed_names_fail(self):
        import repro
        import repro.batch

        for module in (repro, repro.batch):
            for name in ("BatchRunner", "Backend", "SerialBackend",
                         "ProcessBackend"):
                with pytest.raises(AttributeError):
                    getattr(module, name)
        with pytest.raises(ImportError):
            from repro import BatchRunner  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.batch.backends  # noqa: F401
        with pytest.raises(TypeError):
            SolveService(runner=object())
