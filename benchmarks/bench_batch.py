"""Batch engine — serial vs pooled execution, fused vs unfused planning.

The acceptance bars for the batch subsystem: the pooled run must produce
*identical* numbers to the inline run (the task decomposition never
changes a value), and on multi-core hardware the wall-clock must drop;
the fusion planner must cut kernel constructions to one per (model,
worker) and beat per-cell execution on a shared-model grid, again with
bit-identical numbers. Pool speedup is only asserted when the machine
actually has spare cores and the serial run is long enough for the
comparison to be meaningful — pool startup costs a few hundred ms.

Run:  pytest benchmarks/bench_batch.py --benchmark-only -q -s
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from benchmarks.conftest import CONFIG
from repro.analysis.experiments import run_grid
from repro.analysis.runner import get_solver
from repro.batch.kernel import kernel_build_count
from repro.batch.planner import SolveRequest, plan_requests
from repro.batch.runner import BatchRunner, available_cpus as _cpus
from repro.batch.scenarios import (
    Scenario,
    generate_scenarios,
    scenario_tasks,
)
from repro.cache import cache_stats, clear_caches
from repro.markov.rewards import Measure, RewardStructure
from repro.service import JobQueue, SolveService

#: Measure-only grid (timing figures excluded: timing cells measured on a
#: contended pool would not be comparable anyway).
_GRID_CFG = dataclasses.replace(CONFIG, workers=1)


@pytest.fixture(scope="module")
def serial_grid():
    t0 = time.perf_counter()
    result = run_grid(_GRID_CFG, include_timings=False)
    return result, time.perf_counter() - t0


def test_grid_serial(benchmark, serial_grid):
    """Baseline: the measure grid inline (workers=1)."""
    result, _ = benchmark.pedantic(
        lambda: (run_grid(_GRID_CFG, include_timings=False), 0.0),
        rounds=1, iterations=1)
    assert result.table1.columns == serial_grid[0].table1.columns


def test_grid_pooled_matches_serial(benchmark, serial_grid):
    """Pooled run: identical numbers, lower wall-clock when cores allow."""
    serial_result, serial_seconds = serial_grid
    cfg = dataclasses.replace(_GRID_CFG, workers=max(2, min(4, _cpus())))

    t0 = time.perf_counter()
    pooled = benchmark.pedantic(
        lambda: run_grid(cfg, include_timings=False),
        rounds=1, iterations=1)
    pooled_seconds = time.perf_counter() - t0

    assert pooled.table1.columns == serial_result.table1.columns
    assert pooled.table2.columns == serial_result.table2.columns
    assert pooled.ur_values == serial_result.ur_values
    if _cpus() >= 2 and serial_seconds > 3.0:
        assert pooled_seconds < serial_seconds, (
            f"pooled {pooled_seconds:.2f}s not faster than serial "
            f"{serial_seconds:.2f}s on a {_cpus()}-core machine")


def _shared_model_requests(n_cells: int = 8) -> list[SolveRequest]:
    """A scenario grid that is wide in cells but has ONE model: the shape
    the fusion planner exists for. Cells vary rewards and eps."""
    n = 3000
    scenario = Scenario(name="bd-shared", family="birth_death",
                       params={"n": n, "birth": 1.0, "death": 1.6},
                       times=(100.0, 400.0), eps=1e-10)
    rng = np.random.default_rng(17)
    requests = []
    for i in range(n_cells):
        rewards = RewardStructure(rng.random(n))
        requests.append(SolveRequest(
            scenario=scenario, measure=Measure.TRR, times=scenario.times,
            eps=scenario.eps * 10.0 ** -(i % 3), method="SR",
            rewards=rewards, key=i))
    return requests


def test_shared_model_fused_vs_unfused(benchmark):
    """The fusion acceptance case: on a shared-model SR grid the planner
    must (a) build the kernel once per (model, worker) instead of once
    per cell, (b) keep every number bit-identical, and (c) cut
    wall-clock by sharing one stepping sweep across all cells."""
    requests = _shared_model_requests()
    inline = BatchRunner(max_workers=1)

    # PR-1 shape: every cell builds its own kernel.
    naive_sols = []
    clear_caches()
    builds_before = kernel_build_count()
    t0 = time.perf_counter()
    for req in requests:
        model, rewards = req.resolve()
        naive_sols.append(get_solver(req.method).solve(
            model, rewards, req.measure, list(req.times), req.eps))
    naive_seconds = time.perf_counter() - t0
    naive_builds = kernel_build_count() - builds_before
    assert naive_builds == len(requests)

    # Planned but unfused: the worker cache makes it one build total,
    # but every cell still pays its own stepping sweep.
    clear_caches()
    builds_before = kernel_build_count()
    t0 = time.perf_counter()
    unfused = SolveService(runner=inline, fuse=False).solve(requests)
    unfused_seconds = time.perf_counter() - t0
    assert kernel_build_count() - builds_before == 1

    # Fused: one build, one shared sweep.
    clear_caches()
    builds_before = kernel_build_count()
    t0 = time.perf_counter()
    fused = benchmark.pedantic(
        lambda: SolveService(runner=inline, fuse=True).solve(requests),
        rounds=1, iterations=1)
    fused_seconds = time.perf_counter() - t0
    assert kernel_build_count() - builds_before == 1

    for a, b, solo in zip(fused, unfused, naive_sols):
        assert a.ok and b.ok
        assert np.array_equal(a.value.values, b.value.values)
        assert np.array_equal(a.value.values, solo.values)
    print(f"\nshared-model grid ({len(requests)} cells): "
          f"naive {naive_seconds:.2f}s ({naive_builds} kernel builds), "
          f"unfused {unfused_seconds:.2f}s (1 build), "
          f"fused {fused_seconds:.2f}s (1 build)")
    # The fused run does strictly less work (one matvec sweep instead of
    # one per cell), so the comparison is meaningful even at sub-second
    # scale; skip only when the whole grid is too fast to time at all.
    if unfused_seconds > 0.05:
        assert fused_seconds < unfused_seconds, (
            f"fused {fused_seconds:.2f}s not faster than unfused "
            f"{unfused_seconds:.2f}s on a shared-model grid")


def _regenerative_grid_requests(n_cells: int = 10) -> list[SolveRequest]:
    """An RR/RRL grid that is wide in cells but has ONE model: the shape
    schedule memoization exists for. Cells vary horizon, eps and
    solution-phase knobs — everything the memo is allowed to vary."""
    n = 2500
    scenario = Scenario(name="bd-regen", family="birth_death",
                        params={"n": n, "birth": 1.0, "death": 1.5},
                        times=(100.0,), eps=1e-10)
    requests = []
    for i in range(n_cells):
        t = 60.0 * (i + 1)
        method = "RR" if i == n_cells - 1 else "RRL"
        kwargs = {"t_factor": 4.0} if i % 3 == 2 else {}
        requests.append(SolveRequest(
            scenario=scenario, measure=Measure.TRR, times=(t,),
            eps=1e-10 * 10.0 ** -(i % 2), method=method,
            solver_kwargs=kwargs, key=i))
    return requests


def schedule_memoization_measurements(n_cells: int = 10) -> dict:
    """Cold-vs-warm measurement of the RR/RRL schedule memo (used by the
    benchmark below and by CI's stats artifact).

    Returns wall-clock seconds, cache-hit statistics and the per-cell
    ``TransientSolution.stats`` cache fields; asserts cold == warm bit
    for bit before reporting anything.
    """
    requests = _regenerative_grid_requests(n_cells)
    predicted_builds = plan_requests(requests).schedule_builds()
    inline = BatchRunner(max_workers=1)

    # Cold: every cell rebuilds its K+L transformation.
    clear_caches()
    t0 = time.perf_counter()
    cold = SolveService(runner=inline, memoize=False).solve(requests)
    cold_seconds = time.perf_counter() - t0
    assert cache_stats()["schedules"]["misses"] == 0

    # Warm: the first cell builds, every later cell extends the shared
    # transformation.
    clear_caches()
    t0 = time.perf_counter()
    warm = SolveService(runner=inline, memoize=True).solve(requests)
    warm_seconds = time.perf_counter() - t0
    cache_info = cache_stats()["schedules"]

    for a, b in zip(warm, cold):
        assert a.ok and b.ok, (a.error, b.error)
        assert np.array_equal(a.value.values, b.value.values)
        assert np.array_equal(a.value.steps, b.value.steps)
    cells = [{"key": o.key,
              "method": o.value.method,
              "schedule_cache_hit": o.value.stats["schedule_cache_hit"],
              "transformation_steps": int(
                  o.value.stats["transformation_steps"]),
              "transformation_steps_reused": int(
                  o.value.stats["transformation_steps_reused"])}
             for o in warm]
    # The plan's fingerprint-hook prediction must match what the cache
    # actually built.
    assert cache_info["misses"] == predicted_builds
    return {"n_cells": len(requests),
            "predicted_builds": predicted_builds,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cache": cache_info,
            "cells": cells,
            "bit_identical": True}


def test_rr_schedule_memoization(benchmark):
    """The memoization acceptance case: on a shared-model RR/RRL grid the
    planner must (a) build the schedule transformation once per worker
    instead of once per cell, (b) keep every number bit-identical, and
    (c) cut wall-clock by not re-stepping the K+L phase per cell."""
    result = benchmark.pedantic(
        lambda: schedule_memoization_measurements(), rounds=1,
        iterations=1)

    cache = result["cache"]
    assert cache["misses"] == 1, cache
    assert cache["hits"] == result["n_cells"] - 1, cache
    hits = [c["schedule_cache_hit"] for c in result["cells"]]
    assert hits == [False] + [True] * (result["n_cells"] - 1)
    # Warm cells only ever *extend*: total charged steps across the grid
    # equal one build to the deepest horizon, not a per-cell rebuild.
    charged = sum(c["transformation_steps"] for c in result["cells"])
    deepest = max(c["transformation_steps"]
                  + c["transformation_steps_reused"]
                  for c in result["cells"])
    assert charged == deepest

    print(f"\nschedule memo ({result['n_cells']} RR/RRL cells, one "
          f"model): cold {result['cold_seconds']:.2f}s "
          f"(per-cell K+L), warm {result['warm_seconds']:.2f}s "
          f"({cache['misses']} build + {cache['hits']} hits)")
    # The warm run does strictly less work (one K+L stepping pass instead
    # of one per cell); only skip the comparison when the grid is too
    # fast to time at all.
    if result["cold_seconds"] > 0.05:
        assert result["warm_seconds"] < result["cold_seconds"], (
            f"memoized {result['warm_seconds']:.2f}s not faster than "
            f"unmemoized {result['cold_seconds']:.2f}s on a shared-model "
            "RR/RRL grid")


def test_service_facade_overhead(benchmark):
    """The service acceptance case: routing a grid through the
    ``SolveService`` facade (and even through the on-disk ``JobQueue``)
    must keep every number bit-identical to the direct plan → run →
    scatter plumbing, and the facade itself must add only negligible
    overhead — it is bookkeeping, not numerics."""
    requests = _shared_model_requests()
    inline = BatchRunner(max_workers=1)

    clear_caches()
    t0 = time.perf_counter()
    plan = plan_requests(requests, fuse=True)
    direct = plan.scatter(inline.run(plan.tasks))
    direct_seconds = time.perf_counter() - t0

    clear_caches()
    t0 = time.perf_counter()
    via_service = benchmark.pedantic(
        lambda: SolveService(runner=inline, fuse=True).solve(requests),
        rounds=1, iterations=1)
    service_seconds = time.perf_counter() - t0

    import tempfile
    clear_caches()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-queue-") as tmp:
        queue = JobQueue(tmp)
        queue.submit(requests)
        queue.run(SolveService(runner=inline, fuse=True))
        via_queue = queue.collect()
    queue_seconds = time.perf_counter() - t0

    for a, b, c in zip(via_service, direct, via_queue):
        assert a.ok and b.ok and c.ok
        assert np.array_equal(a.value.values, b.value.values)
        assert np.array_equal(a.value.values, c.value.values)
    overhead = service_seconds - direct_seconds
    print(f"\nservice overhead ({len(requests)} cells): direct "
          f"{direct_seconds:.3f}s, facade {service_seconds:.3f}s "
          f"(overhead {overhead * 1e3:+.1f}ms), journaled queue "
          f"{queue_seconds:.3f}s (serialization + fsync)")
    # The facade adds planner bookkeeping only; anything near a 50%
    # blowup on a multi-second grid means it started doing real work.
    if direct_seconds > 1.0:
        assert service_seconds < 1.5 * direct_seconds, (
            f"facade {service_seconds:.2f}s vs direct "
            f"{direct_seconds:.2f}s: overhead is no longer negligible")


def test_scenario_sweep_pooled(benchmark):
    """Fan a generated scenario sweep over the pool; outcomes stay
    deterministic and identical to inline execution."""
    scenarios = generate_scenarios(families=("birth_death", "block"),
                                   random_count=3, times=(1.0, 10.0),
                                   eps=1e-8)
    tasks = scenario_tasks(scenarios, methods=("RRL",))

    inline = BatchRunner(max_workers=1).run(tasks)
    pooled = benchmark.pedantic(
        lambda: BatchRunner(max_workers=max(2, min(4, _cpus())),
                            chunk_size=2).run(tasks),
        rounds=1, iterations=1)

    assert [o.key for o in pooled] == [o.key for o in inline]
    for a, b in zip(inline, pooled):
        assert a.ok and b.ok, (a.error, b.error)
        assert list(a.value.values) == list(b.value.values)
