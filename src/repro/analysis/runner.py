"""One-call front door: ``solve(model, rewards, measure, times, method=...)``.

Method tags (``"RRL"``, ``"RR"``, ``"SR"``, ``"RSD"``) resolve through
the solver table (:mod:`repro.solvers.registry`), so this module
carries no import ladder.

This stays the right call for *one ad-hoc solve of a live model*. For
anything batch-shaped — grids, sweeps, queued work — the canonical API is
:class:`repro.service.service.SolveService` with declarative
:class:`~repro.batch.planner.SolveRequest` cells: same numbers, plus
coalescing, fusion, kernel caching, schedule memoization and a
serializable wire form.
"""

from __future__ import annotations

import numpy as np

from repro.markov.base import TransientSolution, TransientSolver
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.solvers import registry

__all__ = ["get_solver", "solve"]


def get_solver(method: str, **kwargs) -> TransientSolver:
    """Instantiate a solver by its method tag (case-insensitive).

    Raises :class:`~repro.exceptions.UnknownMethodError` (a
    :class:`ValueError`) for an unknown tag, with the known-method list
    in the message.
    """
    return registry.get_solver(method, **kwargs)


def solve(model: CTMC,
          rewards: RewardStructure,
          measure: Measure,
          times: np.ndarray | list[float] | float,
          eps: float = 1e-12,
          method: str = "RRL",
          **solver_kwargs) -> TransientSolution:
    """Compute a transient measure with the chosen method.

    Parameters
    ----------
    model, rewards, measure, times, eps:
        As for the individual solvers; ``times`` may be a scalar.
    method:
        Any tag in :func:`repro.solvers.registry.known_methods` (default
        the paper's ``"RRL"``).
    solver_kwargs:
        Forwarded to the solver constructor (e.g. ``regenerative=...``).
    """
    # np.ndim handles every scalar spelling uniformly — python floats,
    # np.float64 *and* 0-d arrays (np.isscalar(np.array(1.0)) is False,
    # np.isscalar(np.float64(1.0)) is True: not a robust test).
    if np.ndim(times) == 0:
        times = [float(times)]  # type: ignore[arg-type]
    elif len(times) == 0:
        raise ValueError("times must contain at least one time point")
    return get_solver(method, **solver_kwargs).solve(model, rewards, measure,
                                                     times, eps)
