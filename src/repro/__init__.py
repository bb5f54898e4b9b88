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
  :class:`SteadyStateDetectionSolver` (RSD),
  :class:`AdaptiveUniformizationSolver` (AU),
  :class:`OdeSolver` (cross-check).
* Models: :mod:`repro.models` (parametric RAID-5 generator and a library
  of small analytical chains).
* Experiments: :mod:`repro.analysis` (the table/figure harness).
* Batch substrate: :mod:`repro.batch` (shared uniformization kernel,
  parametric scenario generator, model-fused execution planner,
  parallel :class:`BatchRunner`).
* **Service (canonical batch API)**: :mod:`repro.service` —
  :class:`SolveService` (the one entry point wrapping planner → runner →
  scatter), a versioned JSON wire protocol for
  :class:`SolveRequest`/:class:`BatchOutcome`/:class:`TransientSolution`
  (:mod:`repro.service.protocol`, ``schema_version``-checked,
  bit-exact), and :class:`JobQueue`, a resumable on-disk job queue whose
  journal a killed run replays with bit-identical results.
"""

from repro.exceptions import (
    ConvergenceError,
    InversionError,
    MeasureError,
    ModelError,
    ProtocolError,
    QueueError,
    RegistryError,
    ReproError,
    TruncationError,
    UnknownMethodError,
)
from repro.markov import (
    CTMC,
    DTMC,
    MRR,
    TRR,
    AdaptiveUniformizationSolver,
    Measure,
    MultistepRandomizationSolver,
    OdeSolver,
    RewardStructure,
    StandardRandomizationSolver,
    SteadyStateDetectionSolver,
)
from repro.markov.base import TransientSolution
from repro.core import (
    BoundedSolution,
    RegenerativeRandomizationSolver,
    RRLBoundsSolver,
    RRLSolver,
    ScheduleCache,
)
from repro.solvers.registry import SolverSpec
from repro.batch.backends import (
    Backend,
    ProcessBackend,
    SerialBackend,
)
from repro.batch.kernel import UniformizationKernel
from repro.batch.planner import SolveRequest
from repro.batch.runner import BatchOutcome, BatchRunner, BatchTask
from repro.batch.scenarios import Scenario, generate_scenarios
from repro.service import JobQueue, ServiceResult, SolveService

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
__version__ = "4.0.0"

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
    "AdaptiveUniformizationSolver", "OdeSolver",
    "MultistepRandomizationSolver", "RRLBoundsSolver", "BoundedSolution",
    "SolverSpec", "ScheduleCache",
    # batch subsystem
    "UniformizationKernel", "BatchRunner", "BatchTask", "BatchOutcome",
    "Backend", "SerialBackend", "ProcessBackend",
    "Scenario", "generate_scenarios", "SolveRequest",
    # service layer (canonical batch API)
    "SolveService", "ServiceResult", "JobQueue",
]
