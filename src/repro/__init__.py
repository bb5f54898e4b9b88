"""repro — Transient analysis of dependability/performability Markov models
by regenerative randomization with Laplace transform inversion.

Reproduction of: J. A. Carrasco, "Transient Analysis of Dependability/
Performability Models by Regenerative Randomization with Laplace Transform
Inversion", IPDPS 2000 Workshops, LNCS 1800, pp. 1226–1235.

Quickstart
----------
>>> import numpy as np
>>> from repro import CTMC, RewardStructure, TRR, RRLSolver
>>> q = [[-1.0, 1.0], [10.0, -10.0]]            # 2-state repairable system
>>> model = CTMC(np.array(q))
>>> rewards = RewardStructure.indicator(2, [1])  # unavailability
>>> sol = RRLSolver().solve(model, rewards, TRR, [100.0], eps=1e-10)
>>> round(sol.values[0], 6)                      # ≈ 1/11 at steady state
0.090909

Public API
----------
* Substrate: :class:`CTMC`, :class:`DTMC`, :class:`RewardStructure`,
  measures :data:`TRR` / :data:`MRR`.
* Solvers (all share ``solve(model, rewards, measure, times, eps)``):
  :class:`RRLSolver` (the paper's method),
  :class:`RegenerativeRandomizationSolver` (original RR),
  :class:`StandardRandomizationSolver` (SR),
  :class:`SteadyStateDetectionSolver` (RSD).
* Models: :mod:`repro.models` (parametric RAID-5 generator and a library
  of small analytical chains).
* Experiments: :mod:`repro.analysis` (the table/figure harness).
* Batch substrate: :mod:`repro.batch` (shared uniformization kernel,
  parametric scenario generator, model-fused execution planner,
  inline or pooled task execution).
* **Service (canonical batch API)**: :mod:`repro.service` —
  :class:`SolveService` (the one entry point wrapping planner → pool →
  scatter, and the one holder of the pool shape), a versioned JSON wire
  protocol for scenario-backed
  :class:`SolveRequest`/:class:`BatchOutcome`/:class:`TransientSolution`
  (:mod:`repro.service.protocol`, ``schema_version``-checked,
  bit-exact), and :class:`JobQueue`, a resumable on-disk job queue whose
  journal a killed run replays with bit-identical results.
* Caches: :func:`cache_stats` and :func:`clear_caches` report and empty
  this process's caches (:mod:`repro.cache`).
"""

from typing import Any

#: Where each export lives, in the order the package loads them.
_EXPORTS = {
    **dict.fromkeys(
        ("ConvergenceError", "InversionError", "MeasureError", "ModelError",
         "ProtocolError", "QueueError", "ReproError",
         "TruncationError", "UnknownMethodError"), "repro.exceptions"),
    **dict.fromkeys(
        ("CTMC", "DTMC", "MRR", "TRR", "Measure",
         "RewardStructure", "StandardRandomizationSolver",
         "SteadyStateDetectionSolver"), "repro.markov"),
    "TransientSolution": "repro.markov.base",
    **dict.fromkeys(
        ("BoundedSolution", "RegenerativeRandomizationSolver",
         "RRLSolver", "ScheduleCache"), "repro.core"),
    "SolverSpec": "repro.solvers.registry",
    "UniformizationKernel": "repro.batch.kernel",
    "SolveRequest": "repro.batch.planner",
    **dict.fromkeys(("BatchOutcome", "BatchTask"), "repro.batch.runner"),
    **dict.fromkeys(("Scenario", "generate_scenarios"),
                    "repro.batch.scenarios"),
    **dict.fromkeys(("JobQueue", "ServiceResult", "SolveService"),
                    "repro.service"),
    **dict.fromkeys(("cache_stats", "clear_caches"), "repro.cache"),
}


def __getattr__(name: str) -> Any:
    """Load the exports on first use.

    ``import repro`` itself imports no numpy, so ``python -m repro`` can
    pin native thread pools before numpy loads. The first export asked
    for loads them all, as an eager import would: every process-wide
    cache reports in :func:`cache_stats`.
    """
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    for export, module in _EXPORTS.items():
        globals()[export] = getattr(importlib.import_module(module), export)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "15.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "ModelError", "MeasureError", "ConvergenceError",
    "TruncationError", "InversionError", "ProtocolError", "QueueError",
    "UnknownMethodError",
    # substrate
    "CTMC", "DTMC", "RewardStructure", "Measure", "TRR", "MRR",
    "TransientSolution",
    # solvers + the solver table's spec
    "RRLSolver", "RegenerativeRandomizationSolver",
    "StandardRandomizationSolver", "SteadyStateDetectionSolver",
    "BoundedSolution", "SolverSpec", "ScheduleCache",
    # batch subsystem
    "UniformizationKernel", "BatchTask", "BatchOutcome",
    "Scenario", "generate_scenarios", "SolveRequest",
    # service layer (canonical batch API)
    "SolveService", "ServiceResult", "JobQueue",
    # process-wide caches
    "cache_stats", "clear_caches",
]
