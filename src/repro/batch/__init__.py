"""Batch execution subsystem: shared stepping kernel, scenario generator,
fusion planner and parallel experiment runner.

Four layers, each usable on its own:

* :mod:`repro.batch.kernel` — the shared uniformized-stepping kernel every
  randomization solver routes its DTMC matrix–vector work through, plus a
  process-wide LRU cache of Fox–Glynn windows keyed on ``(Λt, ε)``;
* :mod:`repro.batch.scenarios` — a parametric scenario generator producing
  picklable ``(model family, measure, ε, t)`` grid cells far beyond the
  paper's two models;
* :mod:`repro.batch.planner` — the model-fused execution planner turning
  declarative :class:`~repro.batch.planner.SolveRequest` cells into
  coalesced, model-grouped, stack-fused batch tasks with a per-worker
  model cache;
* :mod:`repro.batch.runner` — :func:`~repro.batch.runner.run_tasks`,
  running tasks inline or on a process pool with per-task timeouts,
  structured failure capture and deterministic result ordering.

These are the substrate layers; application code should normally enter
through :class:`repro.service.service.SolveService` (the canonical
facade wrapping planner → pool → scatter, and the one holder of the
pool shape) rather than wiring the planner and runner together by hand.

The package ``__init__`` resolves attributes lazily: the kernel is imported
*by* the solver modules (``repro.markov.standard`` etc.), so eagerly
importing the scenario generator here — which pulls in ``repro.models`` and
transitively the solver package — would create an import cycle.
"""

from __future__ import annotations

from typing import Any

# The solvers of ``repro.markov`` import ``repro.batch.kernel``, and the
# kernel imports ``repro.markov.poisson``. Load the solver package first,
# so that a program whose first import is a ``repro.batch`` module (or
# one that imports it, such as ``repro.core``) does not enter that cycle
# from the kernel's side. ``import repro`` alone loads neither.
import repro.markov  # noqa: E402,F401

__all__ = [
    "UniformizationKernel",
    "shared_fox_glynn",
    "fox_glynn_cache_info",
    "fox_glynn_cache_clear",
    "shared_poisson_tail",
    "poisson_tail_cache_info",
    "poisson_tail_cache_clear",
    "kernel_build_count",
    "run_tasks",
    "BatchTask",
    "BatchOutcome",
    "Scenario",
    "generate_scenarios",
    "scenario_families",
    "scenario_requests",
    "SolveRequest",
    "ExecutionPlan",
    "plan_requests",
]

_EXPORTS = {
    "UniformizationKernel": "repro.batch.kernel",
    "shared_fox_glynn": "repro.batch.kernel",
    "fox_glynn_cache_info": "repro.batch.kernel",
    "fox_glynn_cache_clear": "repro.batch.kernel",
    "shared_poisson_tail": "repro.batch.kernel",
    "poisson_tail_cache_info": "repro.batch.kernel",
    "poisson_tail_cache_clear": "repro.batch.kernel",
    "kernel_build_count": "repro.batch.kernel",
    "run_tasks": "repro.batch.runner",
    "BatchTask": "repro.batch.runner",
    "BatchOutcome": "repro.batch.runner",
    "Scenario": "repro.batch.scenarios",
    "generate_scenarios": "repro.batch.scenarios",
    "scenario_families": "repro.batch.scenarios",
    "scenario_requests": "repro.batch.scenarios",
    "SolveRequest": "repro.batch.planner",
    "ExecutionPlan": "repro.batch.planner",
    "plan_requests": "repro.batch.planner",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
