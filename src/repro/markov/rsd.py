"""Randomization with steady-state detection — ``RSD``.

For an *irreducible* model the randomized DTMC distribution ``π_n = π P^n``
converges to the stationary vector ``π_∞``; once ``‖π_n − π_∞‖₁ <= δ`` all
later reward terms ``d_m = π_m r`` are within ``r_max·δ`` of ``d_∞ = π_∞ r``
(the map ``x ↦ xP`` is an L1 contraction), so the Poisson series can be cut
at the detection step ``k_ss`` and closed with the exact tail weight:

    TRR(t) ≈ Σ_{n<k_ss} pois(n; Λt) d_n + P[N >= k_ss] · d_∞
    MRR(t) ≈ (1/(Λt)) [ Σ_{n<k_ss} P[N>n] d_n + E[(N−k_ss)^+] · d_∞ ]

This is the spirit of Sericola's stationarity-detection method with error
bounds [Sericola, IEEE ToC 1999], the ``RSD`` comparator of the paper's
Table 1 / Figure 3: its step count grows like standard randomization for
small ``t`` and saturates at ``k_ss`` for large ``t``.

Error budget: ``eps/2`` for Poisson truncation below ``k_ss`` plus
``δ = eps/(2 r_max)`` for the detection substitution.

``π_∞`` comes from :func:`~repro.markov.steady_state.stationary_distribution`
of the randomized DTMC; ``stats["stationary_residual"]`` reports how well
it balances ``P − I``. The detection loop is the ``π_n`` walk of
:mod:`repro.markov.sweep`, which a model's SR cells share.
"""

from __future__ import annotations

import numpy as np

from repro.batch.kernel import UniformizationKernel
from repro.exceptions import ModelError, TruncationError
from repro.markov.base import SolveCell, TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.poisson import (
    poisson_expected_excess,
    poisson_sf,
)
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.standard import _sr_terms
from repro.markov.sweep import Finisher, PiSweep, checked_cell, solve_shared
from repro.markov.steady_state import (
    stationary_distribution,
    stationary_residual,
)

__all__ = ["SteadyStateDetectionSolver"]

_MAX_STEPS_DEFAULT = 50_000_000


def _rsd_values(kernel: UniformizationKernel, d: np.ndarray,
                k_ss: int | None, req: np.ndarray, t_arr: np.ndarray,
                rate: float, eps: float, r_max: float, d_inf: float,
                measure: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Weight a detection-truncated ``d_n`` prefix into (values, steps)."""
    n_have = d.size
    values = np.empty(t_arr.size, dtype=np.float64)
    steps = np.empty(t_arr.size, dtype=np.int64)
    for i, t in enumerate(t_arr):
        lam_t = rate * t
        cut = int(min(req[i], n_have))
        # Report matrix-vector products (the n = 0 term is free), the
        # convention of the paper's tables.
        steps[i] = cut - 1
        if measure is Measure.TRR:
            window = kernel.window(t, eps / (2.0 * r_max))
            hi = min(window.right + 1, cut)
            acc = 0.0
            if hi > window.left:
                w = window.weights[: hi - window.left]
                acc = float(w @ d[window.left: hi])
            if k_ss is not None and cut == k_ss and req[i] > k_ss:
                acc += float(poisson_sf(cut - 1, lam_t)) * d_inf
            values[i] = acc
        else:
            tails = poisson_sf(np.arange(cut, dtype=np.float64), lam_t)
            acc = float(tails @ d[:cut])
            if k_ss is not None and cut == k_ss and req[i] > k_ss:
                acc += poisson_expected_excess(lam_t, cut) * d_inf
            values[i] = acc / lam_t
    return values, steps


class SteadyStateDetectionSolver:
    """Transient solver with steady-state detection (the paper's ``RSD``).

    Parameters
    ----------
    rate:
        Randomization rate; defaults to the model's maximum output rate.
    max_steps:
        Hard cap on DTMC steps before declaring failure.

    The method is only sound for irreducible (``A = 0``) models; every
    solve checks that up front and raises
    :class:`~repro.exceptions.ModelError` otherwise.
    """

    method_name = "RSD"

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

    def join_sweep(self, sweep: PiSweep, model: CTMC,
                   cell: SolveCell) -> Finisher:
        """Ask ``sweep`` to detect stationarity for the cell; the returned
        function weights the stepped prefix."""
        if not model.is_irreducible():
            raise ModelError(
                "steady-state detection requires an irreducible model")
        kernel, dtmc, rate = sweep.bind(model, self._rate)
        t_arr, r_max = checked_cell(model, cell)
        if r_max == 0.0:
            return lambda: (np.zeros_like(t_arr),
                            np.zeros(t_arr.size, dtype=int),
                            {"rate": rate, "k_ss": 0})
        if sweep.pi_inf is None:
            sweep.pi_inf = stationary_distribution(dtmc)
            sweep.pi_residual = stationary_residual(dtmc, sweep.pi_inf)
        d_inf = float(cell.rewards.rates @ sweep.pi_inf)
        delta = cell.eps / (2.0 * r_max)
        # Standalone per-t needs at the eps/2 truncation budget.
        req = _sr_terms(t_arr, rate, cell.eps / 2.0, r_max, cell.measure)
        n_budget = int(req.max())
        if n_budget > self._max_steps:
            raise TruncationError(
                f"RSD would need {n_budget} steps before any detection")
        need = sweep.need(cell.rewards.rates, n_budget, delta)

        def finish() -> tuple[np.ndarray, np.ndarray, dict]:
            values, steps = _rsd_values(kernel, need.d, need.k_ss, req,
                                        t_arr, rate, cell.eps, r_max,
                                        d_inf, cell.measure)
            return values, steps, {
                "rate": rate, "k_ss": need.k_ss, "d_inf": d_inf,
                "detection_delta": delta,
                "stationary_residual": sweep.pi_residual}

        return finish
