"""Backend conformance matrix.

The execution backend is the one layer allowed to vary *how* work runs
while changing *nothing* about what comes back: for every registered
solver on every scenario family, serial == processes must be
bit-identical, failure capture must match, and the process pool must
enforce submission-anchored deadlines.
"""

import time

import numpy as np
import pytest

from repro.batch.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.batch.kernel import kernel_build_count
from repro.batch.planner import SolveRequest
from repro.batch.runner import BatchRunner, BatchTask
from repro.batch.scenarios import Scenario, generate_scenarios
from repro.cache import clear_caches
from repro.markov.rewards import Measure
from repro.service import SolveService
from repro.solvers import registry

EPS = 1e-8

#: One scenario per generator family (deterministic), the cross-backend
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

_SMALL_BD = Scenario(name="backend-bd", family="birth_death",
                     params={"n": 40, "birth": 1.0, "death": 1.4},
                     measure=Measure.TRR, times=(0.5,), eps=1e-6)

_MEMO_BD = Scenario(name="backend-bd-memo", family="birth_death",
                    params={"n": 400, "birth": 1.0, "death": 1.5},
                    measure=Measure.TRR, times=(10.0,), eps=1e-8)


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


def _service(backend: str) -> SolveService:
    workers = 1 if backend == "serial" else 2
    return SolveService(workers=workers, backend=backend)


class TestConformanceMatrix:
    def test_all_backends_bit_identical_for_every_solver(self):
        requests = _conformance_requests()
        # Sanity: the matrix really covers every registered solver.
        assert {m for _, m in (r.key for r in requests)} \
            == set(registry.known_methods())

        reference = None
        for backend in BACKEND_NAMES:
            clear_caches()
            outcomes = _service(backend).solve(requests)
            assert [o.key for o in outcomes] == [r.key for r in requests]
            sols = {}
            for out in outcomes:
                assert out.ok, (backend, out.key, out.error)
                sols[out.key] = out.value
            if reference is None:
                reference = sols
                continue
            for key, sol in sols.items():
                ref = reference[key]
                assert np.array_equal(sol.values, ref.values), \
                    (backend, key)
                assert np.array_equal(sol.steps, ref.steps), (backend, key)
                assert sol.method == ref.method
                assert sol.stats["rate"] == ref.stats["rate"]

    def test_failure_capture_identical_across_backends(self):
        # One cell fails in-solver (SR over its step cap), one succeeds:
        # every backend must capture the same structured failure without
        # letting it poison the healthy cell.
        requests = [
            SolveRequest(scenario=_MEMO_BD, measure=Measure.TRR,
                         times=(50.0,), eps=1e-10, method="SR",
                         solver_kwargs={"max_steps": 5}, key="overflow"),
            SolveRequest(scenario=_SMALL_BD, measure=Measure.TRR,
                         times=_SMALL_BD.times, eps=_SMALL_BD.eps,
                         method="SR", key="fine"),
        ]
        captured = {}
        for backend in BACKEND_NAMES:
            clear_caches()
            bad, good = _service(backend).solve(requests)
            assert not bad.ok and bad.error_type == "TruncationError"
            assert "max_steps" in bad.error
            assert good.ok
            captured[backend] = (bad.error, good.value.values.tobytes())
        assert len(set(captured.values())) == 1, captured


def _sleep_return(seconds):
    time.sleep(seconds)
    return seconds


class TestDeadlineSemantics:
    def test_process_backend_enforces_submission_deadlines(self):
        runner = BatchRunner(max_workers=2, task_timeout=0.2,
                             backend="processes")
        start = time.perf_counter()
        outs = runner.run(
            [BatchTask(fn=_sleep_return, args=(1.5,), key="slow"),
             BatchTask(fn=_sleep_return, args=(0.01,), key="fast")])
        elapsed = time.perf_counter() - start
        assert outs[0].ok is False
        assert outs[0].error_type == "TimeoutError"
        assert "submission" in outs[0].error
        assert outs[1].ok is True and outs[1].value == 0.01
        # The deadline contract beats a clean join: run() must not wait
        # out the hung worker's full sleep.
        assert elapsed < 1.2, f"processes blocked {elapsed:.2f}s"

    def test_serial_backend_never_interrupts(self):
        runner = BatchRunner(max_workers=1, task_timeout=0.05,
                             backend="serial")
        outs = runner.run(
            [BatchTask(fn=_sleep_return, args=(0.15,), key="inline")])
        assert outs[0].ok is True  # inline runs are never interrupted


class TestCacheTopology:
    def _memo_requests(self, n=6):
        return [SolveRequest(scenario=_MEMO_BD, measure=Measure.TRR,
                             times=(10.0 * (i + 1),), eps=1e-8,
                             method="RRL", key=i)
                for i in range(n)]

    def test_processes_pay_per_worker_and_match_serial(self):
        """Process workers each warm a private cache: at most one
        schedule build per worker (visible through the per-cell stats),
        none in the parent — and the numbers still match the serial run
        bit for bit."""
        requests = self._memo_requests()
        clear_caches()
        serial = SolveService(workers=1, backend="serial").solve(requests)

        clear_caches()
        builds_before = kernel_build_count()
        pooled = SolveService(workers=2, backend="processes").solve(requests)
        assert kernel_build_count() - builds_before == 0  # parent idle
        assert all(o.ok for o in pooled)
        builds = sum(1 for o in pooled
                     if not o.value.stats["schedule_cache_hit"])
        assert 1 <= builds <= 2, builds
        for a, b in zip(pooled, serial):
            assert np.array_equal(a.value.values, b.value.values)
            assert np.array_equal(a.value.steps, b.value.steps)


class TestBackendResolution:
    def test_names_and_instances(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("processes"), ProcessBackend)
        assert isinstance(resolve_backend(None), ProcessBackend)
        backend = ProcessBackend(max_workers=3)
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fibers")

    def test_threads_backend_is_gone(self):
        with pytest.raises(ValueError, match="known: serial, processes"):
            BatchRunner(backend="threads")
        assert BACKEND_NAMES == ("serial", "processes")

    def test_service_rejects_threads_backend(self):
        with pytest.raises(ValueError, match="known: serial, processes"):
            SolveService(workers=2, backend="threads").solve(
                _conformance_requests()[:1])

    def test_instance_rejects_conflicting_pool_shape(self):
        # A ready instance owns its pool shape: explicit shape args
        # alongside it must error rather than be silently dropped.
        with pytest.raises(ValueError, match="owns its own pool shape"):
            resolve_backend(ProcessBackend(), max_workers=4)
        with pytest.raises(ValueError, match="task_timeout"):
            BatchRunner(task_timeout=30.0, backend=ProcessBackend())
        with pytest.raises(ValueError, match="max_workers"):
            BatchRunner(max_workers=4, backend=SerialBackend())
