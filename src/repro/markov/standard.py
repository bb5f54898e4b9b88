"""Standard randomization (uniformization) transient solver — ``SR``.

The classic method [Reibman & Trivedi 1988]: randomize the CTMC with rate
``Λ >= max_i -Q[i,i]`` and expand

    TRR(t) = Σ_n  e^{-Λt} (Λt)^n / n!  ·  d_n,          d_n = (π P^n) r

truncating the Poisson series so the discarded mass contributes at most
``eps / r_max``. For the interval measure, using
``∫_0^t e^{-Λτ}(Λτ)^n/n! dτ = P[N(Λt) > n] / Λ`` gives

    MRR(t) = (1/(Λt)) Σ_n  P[N(Λt) > n]  ·  d_n,

with truncation error ``r_max · E[(N(Λt)-N-1)^+] / (Λt)``.

The solver shares the ``d_n`` sequence across all requested time points, so
a sweep over ``t ∈ {1, 10, ..., 1e5}`` pays only for the largest horizon —
the per-``t`` *step counts* reported in the solution are nevertheless the
standalone counts the paper's tables show (what SR would need for that ``t``
alone). ``d_n`` comes from :mod:`repro.markov.sweep`, the one ``π_n`` walk
that a model's SR and RSD cells share.

Numerical stability is inherited from the randomization construction: only
non-negative quantities are added, so the result error is exactly the
truncation budget (paper, Section 1).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.batch.kernel import UniformizationKernel, shared_poisson_tail
from repro.exceptions import TruncationError
from repro.markov.base import SolveCell, TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.poisson import (
    poisson_expected_excess,
    poisson_right_quantile,
)
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.sweep import Finisher, PiSweep, checked_cell, solve_shared
from repro.solvers.registry import SolverSpec, register

__all__ = ["StandardRandomizationSolver", "sr_required_steps"]

_MAX_STEPS_DEFAULT = 50_000_000


def sr_required_steps(rate_time: float, eps_rel: float,
                      measure: Measure) -> int:
    """Number of DTMC steps SR needs for one time point.

    Parameters
    ----------
    rate_time:
        ``Λ t``.
    eps_rel:
        Error budget already divided by ``r_max`` (and multiplied by
        ``Λt`` for MRR, see below).
    measure:
        TRR uses the plain right tail; MRR uses the expected-excess tail
        ``E[(N - N_max)^+] <= eps_rel`` with ``eps_rel = eps·Λt/r_max``.
    """
    if measure is Measure.TRR:
        return poisson_right_quantile(rate_time, eps_rel) + 1
    # MRR: find smallest N with E[(N(Λt)-N)^+] <= eps_rel by bisection.
    lo = 0
    hi = max(8, int(rate_time) + 8)
    while poisson_expected_excess(rate_time, hi) > eps_rel:
        lo = hi
        hi *= 2
        if hi > 4 * _MAX_STEPS_DEFAULT:
            raise TruncationError("MRR truncation point exceeds hard limit")
    while lo < hi:
        mid = (lo + hi) // 2
        if poisson_expected_excess(rate_time, mid) <= eps_rel:
            hi = mid
        else:
            lo = mid + 1
    return lo + 1


def _sr_terms(t_arr: np.ndarray, rate: float, eps: float, r_max: float,
              measure: Measure) -> np.ndarray:
    """Per-time series lengths (the step count the paper tabulates is one
    less, since the ``n = 0`` term is free)."""
    terms = np.empty(t_arr.size, dtype=np.int64)
    for i, t in enumerate(t_arr):
        lam_t = rate * t
        if measure is Measure.TRR:
            terms[i] = sr_required_steps(lam_t, eps / r_max, measure)
        else:
            terms[i] = sr_required_steps(lam_t, eps * lam_t / r_max, measure)
    return terms


def _sr_values(kernel: UniformizationKernel, d: np.ndarray,
               t_arr: np.ndarray, terms: np.ndarray, rate: float,
               eps: float, r_max: float, measure: Measure) -> np.ndarray:
    """Poisson-weight a ``d_n`` sequence into per-time measure values."""
    values = np.empty(t_arr.size, dtype=np.float64)
    for i, t in enumerate(t_arr):
        lam_t = rate * t
        n_i = int(terms[i])
        if measure is Measure.TRR:
            window = kernel.window(t, eps / r_max)
            hi = min(window.right + 1, n_i)
            w = window.weights[: hi - window.left]
            values[i] = float(w @ d[window.left: hi])
        else:
            # Process-wide LRU: grid cells sharing a (Λt, n) key reuse
            # one tail array instead of each redoing the poisson_sf
            # sweep (bit-identical — the cache stores exactly the array
            # the inline call produced).
            tails = shared_poisson_tail(lam_t, n_i)
            values[i] = float(tails @ d[:n_i]) / lam_t
    return values


class StandardRandomizationSolver:
    """Transient solver using standard randomization (the paper's ``SR``).

    Parameters
    ----------
    rate:
        Randomization rate ``Λ``; defaults to the model's maximum output
        rate (the minimal valid choice, which the paper uses).
    max_steps:
        Hard cap on the number of DTMC steps; exceeded horizons raise
        :class:`~repro.exceptions.TruncationError` rather than looping for
        hours — SR at ``Λt ≈ 4.4e6`` is exactly the pathology the paper's
        method removes, and the paper grid's timing figures report the
        raise as a skipped (``None``) cell.
    """

    method_name = "SR"

    def __init__(self, rate: float | None = None,
                 max_steps: int = _MAX_STEPS_DEFAULT) -> None:
        self._rate = rate
        self._max_steps = int(max_steps)

    def solve(self,
              model: CTMC,
              rewards: RewardStructure,
              measure: Measure,
              times: np.ndarray | list[float],
              eps: float = 1e-12) -> TransientSolution:
        """Compute the measure at every time point with total error ``eps``."""
        cell = SolveCell(rewards=rewards, measure=measure, times=times,
                         eps=eps)
        (solution,) = solve_shared(model, [(self, cell)])
        del solution.stats["fused_width"]
        return solution

    def solve_fused(self, model: CTMC, cells: Sequence[SolveCell]
                    ) -> list[TransientSolution]:
        """``solve_shared(model, [(self, cell) for cell in cells])``.

        Kept only because ``perfbench/make_reference.py`` calls it by
        name; everything else shares walks through
        :func:`~repro.markov.sweep.solve_shared` or the planner.
        """
        return solve_shared(model, [(self, cell) for cell in cells])

    def join_sweep(self, sweep: PiSweep, model: CTMC,
                   cell: SolveCell) -> Finisher:
        """Ask ``sweep`` for the cell's ``d_n`` horizon; the returned
        function weights the stepped sequence."""
        kernel, _, rate = sweep.bind(model, self._rate)
        t_arr, r_max = checked_cell(model, cell)
        if r_max == 0.0:
            # All rewards zero: the measure is identically zero.
            return lambda: (np.zeros_like(t_arr),
                            np.zeros(t_arr.size, dtype=int), {"rate": rate})
        terms = _sr_terms(t_arr, rate, cell.eps, r_max, cell.measure)
        n_max = int(terms.max())
        if n_max > self._max_steps:
            raise TruncationError(
                f"SR needs {n_max} steps (> max_steps={self._max_steps}); "
                "use RR/RRL for this horizon")
        need = sweep.need(cell.rewards.rates, n_max)
        return lambda: (
            _sr_values(kernel, need.d, t_arr, terms, rate, cell.eps, r_max,
                       cell.measure),
            terms - 1, {"rate": rate, "shared_steps": sweep.steps})


register(SolverSpec(
    name="SR",
    constructor=StandardRandomizationSolver,
    summary="Standard randomization (uniformization) — the classic "
            "O(Λt) comparator",
    stack_fusable=True,
    predict_steps=sr_required_steps,
    step_budget_kwarg="max_steps",
))
