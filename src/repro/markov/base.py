"""Common result container and interface for transient solvers.

Every registered solver — SR, RSD and the paper's RR/RRL — exposes::

    solve(model, rewards, measure, times, eps) -> TransientSolution

and computes both measures (TRR and MRR) within the total error ``eps``,
so the experiment harness and the planner can swap methods freely. All
four start from the model's randomized chain ``P = I + Q/Λ``, whose
stepping kernel the model owns (:meth:`CTMC.kernel
<repro.markov.ctmc.CTMC.kernel>`): every solve of one model instance at
the default rate steps one kernel. Work statistics (step counts,
abscissa counts, wall time) ride along in the solution, because the
paper's evaluation compares exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure

__all__ = ["SolveCell", "TransientSolution", "TransientSolver"]


@dataclass(frozen=True)
class SolveCell:
    """One fusable unit of work against an already-built model.

    The solver-layer currency of the fusion planner
    (:mod:`repro.batch.planner`): SR and RSD cells sharing a model share
    one uniformization kernel and one ``π_n`` sweep
    (:func:`repro.markov.sweep.solve_shared`). Deliberately minimal — a
    cell is everything ``solve`` takes *except* the model.
    """

    rewards: RewardStructure
    measure: Measure
    times: tuple[float, ...]
    eps: float = 1e-12


@dataclass
class TransientSolution:
    """Result of a transient analysis run.

    Attributes
    ----------
    times:
        The evaluation time points, in the order requested.
    values:
        Measure values, one per time point.
    measure:
        Which measure (:class:`~repro.markov.rewards.Measure`) was computed.
    eps:
        Error budget the values honour (total, as in the paper).
    steps:
        Number of DTMC steps charged to each time point. For randomization
        methods this is the dominant cost and is what the paper's
        Tables 1–2 report.
    method:
        Short method tag (``"SR"``, ``"RSD"``, ``"RR"``, ``"RRL"``, ...).
    stats:
        Per-run diagnostics (e.g. number of Laplace abscissae, truncation
        parameters K and L, detection step). The schema is unified across
        solvers:

        * ``rate`` — **every** solver reports the randomization rate ``Λ``
          it worked with;
        * ``shared_steps`` — **SR only**: the steps of the ``π_n`` sweep
          actually walked, shared across the solve's time points and
          therefore possibly above any single entry of ``steps``. In a
          fused group it is the model's whole sweep: the longest need of
          any of its cells, SR or RSD (other models stacked into the
          same walk do not count);
        * ``fused_width`` — present **only** on solutions produced by a
          fused multi-cell pass (``solve_shared`` or a planner window):
          the number of cells of both methods, on this model, that
          shared the sweep. Absent on ordinary solves.
        * ``transformation_steps`` — **RR/RRL only**: DTMC steps the
          schedule transformation charged to *this* solve. With a
          :class:`~repro.core.schedule_cache.ScheduleCache` injected a
          warm cell may charge 0 (the prefix was paid by an earlier
          cell); values and per-``t`` ``steps`` are bit-identical either
          way.
        * ``schedule_cache_hit`` / ``transformation_steps_reused`` —
          present **only** when a schedule cache was used (RR/RRL via
          the planner, or ``solve(..., schedule_cache=...)`` directly):
          whether this solve reused a cached transformation, and how
          many already-paid steps it inherited.
        * ``stationary_residual`` — **RSD only**: ``max|π̂ Q|`` of the
          stationary vector ``π̂`` that closes the series, with ``Q`` the
          ``P − I`` of the randomized DTMC (for a chain on the sparse path
          this is the value the solver's residual gate accepted). Absent
          when the reward is identically 0 and no ``π̂`` is computed.
        * ``truncation_bound`` / ``inversion_diff`` — **RRL only**, one
          entry per time point: the truncation error bound at the
          selected ``K, L`` (selection keeps it within ``eps/2``), and
          the difference between the last two accelerated estimates of
          the Laplace inversion when it stopped. Both are on the scale of
          the measure: for MRR the inversion of ``C(t) = t·MRR(t)`` is
          divided by ``t``. Absent when the reward is identically 0.

        Everything else (``k_ss``, ``K``/``L``, ``n_abscissae``, ...) is
        solver-specific and documented on the solver.
    """

    times: np.ndarray
    values: np.ndarray
    measure: Measure
    eps: float
    steps: np.ndarray
    method: str
    stats: dict[str, Any] = field(default_factory=dict)

    def value_at(self, t: float) -> float:
        """Value for time point ``t`` (must be one of the requested times)."""
        idx = np.flatnonzero(np.isclose(self.times, t, rtol=1e-12, atol=0.0))
        if idx.size == 0:
            raise KeyError(f"time {t} was not among the solved time points")
        return float(self.values[idx[0]])

    def steps_at(self, t: float) -> int:
        """Step count charged to time point ``t``."""
        idx = np.flatnonzero(np.isclose(self.times, t, rtol=1e-12, atol=0.0))
        if idx.size == 0:
            raise KeyError(f"time {t} was not among the solved time points")
        return int(self.steps[idx[0]])


class TransientSolver(Protocol):
    """Structural interface shared by all transient solvers."""

    def solve(self,
              model: CTMC,
              rewards: RewardStructure,
              measure: Measure,
              times: "np.ndarray | list[float]",
              eps: float) -> TransientSolution:
        """Compute ``measure`` at each time in ``times`` with error ``eps``."""
        ...  # pragma: no cover


def as_time_array(times: "np.ndarray | list[float] | float") -> np.ndarray:
    """Normalize a times argument to a positive 1-D float array."""
    arr = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("times must be positive and finite")
    return arr
