"""The paper's contribution: regenerative randomization (RR) and its
Laplace-transform-inversion variant (RRL).

Pipeline
--------
1. :mod:`repro.core.schedules` steps the randomized DTMC and records the
   regenerative schedules ``a(k), c(k), q_k, v_k^i`` (and the primed
   counterparts for initial distributions not concentrated on ``r``);
2. :mod:`repro.core.truncation` selects the truncation points ``K`` and
   ``L`` for a target time and error budget;
3. either
   * :mod:`repro.core.vkl` materializes the truncated transformed chain
     ``V_{K,L}`` and :mod:`repro.core.rr_solver` solves it by standard
     randomization (**RR**, the original method), or
   * :mod:`repro.core.transforms` evaluates the closed-form Laplace
     transform of ``TRR^a_{K,L}`` / ``C_{K,L}`` and
     :mod:`repro.core.rrl_solver` inverts it numerically (**RRL**, the
     paper's new variant), or
   * ``RRLSolver.solve_bounds`` inverts it and the transform of the
     truncation state's probability into certified lower and upper bounds
     (:class:`~repro.core.rrl_solver.BoundedSolution`).

Steps 2 and 3 are one loop, :func:`repro.core.rrl_solver.solve_per_t`,
which RR, RRL and the bounds share; each supplies only its per-``t``
evaluation of step 3.
"""

from repro.core.schedules import RegenerativeSchedule, ScheduleBuilder
from repro.core.schedule_cache import (
    ScheduleCache,
    process_schedule_cache,
    process_schedule_cache_clear,
    process_schedule_cache_info,
)
from repro.core.truncation import select_truncation, truncation_error_bound
from repro.core.transforms import VklTransform
from repro.core.vkl import build_vkl
from repro.core.rr_solver import RegenerativeRandomizationSolver
from repro.core.rrl_solver import BoundedSolution, RRLSolver

__all__ = [
    "RegenerativeSchedule",
    "ScheduleBuilder",
    "ScheduleCache",
    "process_schedule_cache",
    "process_schedule_cache_clear",
    "process_schedule_cache_info",
    "select_truncation",
    "truncation_error_bound",
    "VklTransform",
    "build_vkl",
    "RegenerativeRandomizationSolver",
    "RRLSolver",
    "BoundedSolution",
]
