"""The program names the benchmark under ``perfbench/`` reads.

A cold benchmark pass empties the caches by calling
``perfbench/workloads.py``'s ``_CACHE_CLEARERS`` by name, and the traced
pass reads ``perfbench/layers.py``'s ``CACHE_INFO`` by name; both skip a
name that is missing without a word. These tests fail instead, and check
that the clearers leave no registered cache warm.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.batch.planner import SolveRequest
from repro.batch.scenarios import Scenario
from repro.cache import cache_stats, clear_caches
from repro.markov.rewards import Measure
from repro.service import SolveService

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
layers = _load("layers")


def _hook(module, name):
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module,name", workloads._CACHE_CLEARERS)
def test_cache_clearer_exists(module, name):
    assert callable(_hook(module, name))


@pytest.mark.parametrize("prefix", sorted(layers.CACHE_INFO))
def test_cache_info_hook_reads(prefix):
    module, name, hits, misses = layers.CACHE_INFO[prefix]
    info = _hook(module, name)()
    if hits is None:
        assert isinstance(info, int)
    else:
        assert isinstance(info[hits], int) and isinstance(info[misses], int)


def test_read_caches_finds_every_metric():
    values, absent = layers.read_caches()
    assert absent == []
    assert {"cache.model_misses", "cache.schedule_misses",
            "cache.fox_glynn_misses", "cache.poisson_tail_misses",
            "cache.kernel_builds"} <= set(values)


def test_clearers_leave_every_registered_cache_cold():
    clear_caches()
    scenario = Scenario(name="hooks-bd", family="birth_death",
                        params={"n": 6, "birth": 0.5, "death": 1.5},
                        times=(0.5, 2.0), eps=1e-8)
    requests = [SolveRequest(scenario=scenario, measure=measure,
                             times=scenario.times, eps=scenario.eps,
                             method=method, key=(method, measure.name))
                for method in ("SR", "RSD", "RRL")
                for measure in (Measure.TRR, Measure.MRR)]
    assert all(o.ok for o in SolveService().solve(requests))
    stats = cache_stats()
    assert set(stats) == {"models", "schedules", "fox_glynn",
                          "poisson_tail"}
    assert all(info["size"] > 0 for info in stats.values()), stats
    workloads.clear_caches()
    assert all(info["size"] == 0 for info in cache_stats().values()), \
        cache_stats()


def test_make_reference_sr_solve_fused_is_solve_shared():
    # ``perfbench/make_reference.py`` builds its references through
    # ``StandardRandomizationSolver().solve_fused(model, cells)``.
    from repro.markov.base import SolveCell
    from repro.markov.standard import StandardRandomizationSolver
    from repro.markov.sweep import solve_shared

    model, rewards = Scenario(
        name="ref-bd", family="birth_death",
        params={"n": 6, "birth": 0.5, "death": 1.5}).build()
    cells = [SolveCell(rewards=rewards, measure=m, times=(1.0, 10.0),
                       eps=1e-12) for m in (Measure.TRR, Measure.MRR)]
    solver = StandardRandomizationSolver()
    fused = solver.solve_fused(model, cells)
    shared = solve_shared(model, [(solver, cell) for cell in cells])
    for got, want in zip(fused, shared):
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.steps, want.steps)
        assert got.stats == want.stats
