"""Batch execution subsystem: shared stepping kernel, scenario generator,
fusion planner and parallel experiment runner.

Four layers, each usable on its own and imported by its module path:

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
"""

# The solvers of ``repro.markov`` import ``repro.batch.kernel``, and the
# kernel imports ``repro.markov.poisson``. Load the solver package first,
# so that a program whose first import is a ``repro.batch`` module (or
# one that imports it, such as ``repro.core``) does not enter that cycle
# from the kernel's side. ``import repro`` alone loads neither.
import repro.markov  # noqa: F401
