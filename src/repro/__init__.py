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
         "ProtocolError", "QueueError", "RegistryError", "ReproError",
         "TruncationError", "UnknownMethodError"), "repro.exceptions"),
    **dict.fromkeys(
        ("CTMC", "DTMC", "MRR", "TRR", "Measure",
         "RewardStructure", "StandardRandomizationSolver",
         "SteadyStateDetectionSolver"), "repro.markov"),
    "TransientSolution": "repro.markov.base",
    **dict.fromkeys(
        ("BoundedSolution", "RegenerativeRandomizationSolver",
         "RRLBoundsSolver", "RRLSolver", "ScheduleCache"), "repro.core"),
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
    for loads them all, as an eager import would: every solver is
    registered and every process-wide cache reports in
    :func:`cache_stats`.
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


# 13.0.0: a cell is a scenario and a model owns its kernel.
# ``CTMC.kernel()`` builds the default-rate kernel once, through
# ``UniformizationKernel.from_model``, and keeps it; SR, RSD, RR, RRL,
# ``PiSweep``, ``prepare`` and ``ScheduleCache`` ask the model for it,
# and a pinned ``rate`` builds a fresh one per solve. Breaking: the
# ``kernel=`` parameter of every solver's ``solve`` (and of
# ``solve_shared``, ``ScheduleBuilder.for_model``, ``prepare`` and
# ``ScheduleCache.key_for``/``setup_for``), the kernel slot of
# ``solve_stacked`` lanes and ``prepare_twins`` members, ``PiSweep``'s
# constructor argument, ``repro.batch.ensure_model_kernel``,
# ``SolveRequest(model=, rewards=)`` (a request names its model by its
# ``scenario`` alone), ``rewards_to_dict``/``rewards_from_dict``,
# ``SteadyStateDetectionSolver.solve_fused`` and RSD's
# ``check_irreducible`` are gone; ``from_model`` returns the kernel
# alone (it carries ``dtmc`` and ``rate``). Request records keep schema
# version 1 with ``"model"`` and ``"rewards"`` null; a record with
# either set raises ``ProtocolError``. Every number is bit-identical.
#
# 12.0.0: twin schedules. The RR/RRL cells of a scenario's variants
# (``Scenario.variant_key``) run as one planner task, and exact twin
# setups (a chain that makes states of its base absorbing, checked by
# ``repro.core._setup.link_twins``) step on one walk: the paper grid's
# UR schedules ride its UA products, 24,799 -> 15,689 full products,
# every number bit-identical. ``JobQueue.submit`` and ``run`` hold an
# exclusive ``flock`` on the journal; a second writer gets
# ``QueueError``. Breaking: ``ExecutionPlan.fused`` is
# ``ExecutionPlan.kinds`` (``"walk"``, ``"twins"`` or ``"single"`` per
# task); ``CTMC.reachable_from``, ``CTMC.restricted_to`` and
# ``repro.laplace.error_control.aliasing_error_bounded`` /
# ``aliasing_error_cumulative`` are gone (no workload reached them).
#
# 11.0.0: one wire form, one CTMC construction path, one front door.
# Breaking: model-backed requests have no wire form (``ctmc_to_dict``,
# ``ctmc_from_dict`` and the ``"model"`` record field are gone;
# ``request_to_dict`` of a live-model request and ``request_from_dict``
# of a record with a ``"model"`` payload raise ``ProtocolError``, so
# journal a ``Scenario``); so are the generic ``to_dict``/``from_dict``/
# ``dumps``/``loads`` of ``repro.service`` and its protocol module,
# ``CTMC(fix_diagonal=)`` and its validate-only mode (the diagonal is
# always the negated off-diagonal row sums), the ``solve``, ``mttf``,
# ``validate`` and ``diagnose`` commands of ``python -m repro`` (call
# ``repro.analysis.runner.solve``, ``mean_time_to_absorption``,
# ``cross_validate`` and ``compare_regenerative_states``), column-stack
# products in ``UniformizationKernel.step``/``step_rate`` (and the
# ``csr_matvecs`` call behind them), ``repro.laplace.invert`` (name
# ``invert_bounded`` or ``invert_cumulative``) and
# ``repro.batch.solve_scenarios`` (it was
# ``SolveService().solve(scenario_requests(...))``). Model-backed
# requests still solve in process. Every number is bit-identical.
#
# 10.0.0: four solvers, each within its ε. Breaking: multistep
# randomization (``MultistepRandomizationSolver``, the ``MS`` tag) and
# the ODE baseline (``OdeSolver``, the ``ODE`` tag, which carried no ε
# guarantee) are gone, and with them ``SolverSpec.kernel_aware`` and
# ``SolverSpec.measures``, the registry's ``MEASURES`` and
# ``SolverSpec.require_measure``, ``UnsupportedMeasureError``,
# ``cross_validate``'s ``ode_slack``, the "measures" column of
# ``repro solvers list``, ``damping_for_cumulative_taylor`` in
# ``repro.laplace`` and ``UniformizationKernel.from_dtmc`` /
# ``UniformizationKernel.propagate``. Every solver computes TRR and MRR
# and accepts an injected kernel. Every number is bit-identical.
#
# 9.1.0: the paper's RAID-5 chains are built from array rules instead
# of a per-state Python generator, bit-identical to it; the private
# ``repro.models.raid5._transitions`` is gone (its successor is the test
# oracle ``tests/models/raid5_oracle.py``).
#
# 9.0.0: one pool shape. Breaking: ``BatchRunner`` and the execution
# backends (``repro.batch.backends``: ``Backend``, ``SerialBackend``,
# ``ProcessBackend``, ``resolve_backend``, ``BACKEND_NAMES``) are gone,
# as are ``SolveService(runner=)`` and its ``runner``/``backend``
# properties, ``--backend`` on ``repro batch run`` and
# ``scripts/run_paper_grid.py`` and the latter's JSON ``backend`` key,
# the plan-time schedule prediction (``ExecutionPlan.schedule_builds``,
# ``SolverSpec.schedule_fingerprint``,
# ``regenerative_schedule_fingerprint``) and the registry helpers
# ``methods_with``, ``stack_fusable_methods``, ``kernel_aware_methods``
# and ``schedule_memoizable_methods``. ``SolveService(workers=,
# task_timeout=)`` holds the pool shape and runs
# ``repro.batch.runner.run_tasks``; ``backend`` stays as a name
# (``"serial"`` forces inline). Kernels built by ``from_model`` no
# longer keep ``Qᵀ``. Every number is bit-identical.
#
# 8.0.0: one batch execution path. Breaking: the planner's ``fuse`` and
# ``memoize`` switches are gone from ``plan_requests``, ``run_request``,
# ``ExecutionPlan``, ``SolveService``, ``ExperimentConfig``,
# ``solve_scenarios`` and both CLIs; so are the un-planned scenario
# fan-out (``scenario_tasks``, ``solve_scenario``,
# ``build_scenario_model``), the per-table wrappers of
# ``repro.analysis`` (``run_table1|2``, ``run_figure3|4``,
# ``run_steps_table``, ``run_timing_table``, ``run_ur_values``; the
# tables come from ``run_grid``) and ``BatchRunner.map`` /
# ``BatchRunner.backend_name``. Every number is bit-identical.
#
# 7.0.0: one path to the paper's tables. Breaking: the Gaver–Stehfest
# inverter and its two ``repro.laplace`` exports, the process pool's
# chunking knob (on ``BatchRunner``, ``ProcessBackend`` and
# ``resolve_backend``; the pool submits one task per future) and the
# ``repro table1|table2|figure3|figure4`` subcommands are gone; the
# tables come from ``scripts/run_paper_grid.py``. Every number is
# bit-identical.
#
# 6.0.0: adaptive uniformization is gone. SR does its job within ε and
# faster on every in-tree workload. Breaking: its solver class and its
# ``AU`` method tag are removed. ``SolverSpec.measures`` declares the
# measures a method supports (MS is TRR only), and ``SolveRequest``
# rejects an unsupported pair with ``UnsupportedMeasureError``. Every
# other number is bit-identical.
#
# 5.1.0: the planner packs the SR and RSD cells of up to 8 models into
# one task, whose models walk ``π_n`` side by side in blocks of levels
# (``repro.markov.sweep.solve_stacked``, ``UniformizationKernel.stack``);
# ``import repro`` loads its exports on first use, so ``python -m repro``
# pins native thread pools before numpy loads. Every number is
# bit-identical.
#
# 5.0.0: one ``repro.cache.BoundedCache`` behind every process-wide
# cache, with ``cache_stats()`` and ``clear_caches()``. Breaking: the
# kernel's ``fox_glynn_cache_info``/``poisson_tail_cache_info`` return
# dicts, not ``functools`` ``CacheInfo``; ``ExperimentConfig``'s
# chunking knob and ``SolveService``'s chunking and ``task_timeout``
# knobs are gone (shape a pool on ``BatchRunner`` or ``ProcessBackend``).
# Every number is bit-identical.
#
# 4.0.0: SR and RSD cells of one model share one ``π_n`` sweep
# (``repro.markov.sweep``). Breaking: ``UniformizationKernel``'s
# ``reward_sequence(s)`` are gone. Every number is bit-identical.
#
# 3.0.0: one inline path and one process pool. Breaking: the thread
# backend, the environment-variable backend default, the start-method
# options, the planner-level execute/solve helpers and method-set
# aliases, and the analysis runner's registry mapping are gone. Batch
# work goes through ``SolveService``; capability queries go to
# ``repro.solvers.registry``. Every number is bit-identical.
#
# 2.2.0: execution became a pluggable backend layer
# (``repro.batch.backends``) selected on BatchRunner, SolveService,
# ExperimentConfig and the CLI.
#
# 2.1.0: the capability-declaring solver registry
# (``repro.solvers.registry``) became the one dispatch authority — every
# solver self-registers a SolverSpec, and the runner, planner, protocol
# and CLI resolve method tags through it — and RR/RRL gained cross-cell
# schedule-transformation memoization (``ScheduleCache``).
__version__ = "13.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "ModelError", "MeasureError", "ConvergenceError",
    "TruncationError", "InversionError", "ProtocolError", "QueueError",
    "UnknownMethodError", "RegistryError",
    # substrate
    "CTMC", "DTMC", "RewardStructure", "Measure", "TRR", "MRR",
    "TransientSolution",
    # solvers + registry
    "RRLSolver", "RegenerativeRandomizationSolver",
    "StandardRandomizationSolver", "SteadyStateDetectionSolver",
    "RRLBoundsSolver", "BoundedSolution", "SolverSpec", "ScheduleCache",
    # batch subsystem
    "UniformizationKernel", "BatchTask", "BatchOutcome",
    "Scenario", "generate_scenarios", "SolveRequest",
    # service layer (canonical batch API)
    "SolveService", "ServiceResult", "JobQueue",
    # process-wide caches
    "cache_stats", "clear_caches",
]
