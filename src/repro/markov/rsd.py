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
it balances ``P − I``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.batch.kernel import UniformizationKernel, ensure_model_kernel
from repro.exceptions import ModelError, TruncationError
from repro.markov.base import SolveCell, TransientSolution, as_time_array
from repro.markov.ctmc import CTMC
from repro.markov.poisson import (
    poisson_expected_excess,
    poisson_sf,
)
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.standard import sr_required_steps
from repro.markov.steady_state import (
    stationary_distribution,
    stationary_residual,
)
from repro.solvers.registry import SolverSpec, register

__all__ = ["SteadyStateDetectionSolver"]

_MAX_STEPS_DEFAULT = 50_000_000


def _rsd_requirements(t_arr: np.ndarray, rate: float, eps: float,
                      r_max: float, measure: Measure) -> np.ndarray:
    """Standalone per-t step requirements at the eps/2 truncation budget."""
    req = np.empty(t_arr.size, dtype=np.int64)
    for i, t in enumerate(t_arr):
        lam_t = rate * t
        if measure is Measure.TRR:
            req[i] = sr_required_steps(lam_t, eps / (2.0 * r_max),
                                       Measure.TRR)
        else:
            req[i] = sr_required_steps(lam_t, eps * lam_t / (2.0 * r_max),
                                       Measure.MRR)
    return req


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


def _l1_distance(pi: np.ndarray, pi_inf: np.ndarray,
                 buf: np.ndarray) -> float:
    """``Σ|π − π_∞|`` through ``buf``: the ufuncs and pairwise sum of
    ``np.abs(pi - pi_inf).sum()``, without its two temporaries."""
    np.subtract(pi, pi_inf, out=buf)
    np.abs(buf, out=buf)
    return float(buf.sum())


class _FusedCellState:
    """Mutable per-cell bookkeeping for the fused detection sweep."""

    __slots__ = ("idx", "cell", "t_arr", "r", "r_max", "d_inf", "delta",
                 "req", "n_budget", "d_list", "k_ss", "done")


class SteadyStateDetectionSolver:
    """Transient solver with steady-state detection (the paper's ``RSD``).

    Parameters
    ----------
    rate:
        Randomization rate; defaults to the model's maximum output rate.
    max_steps:
        Hard cap on DTMC steps before declaring failure.
    check_irreducible:
        Verify irreducibility up front (the method is only sound for
        ``A = 0`` models). Disable only when the caller guarantees it.
    """

    method_name = "RSD"

    def __init__(self, rate: float | None = None,
                 max_steps: int = _MAX_STEPS_DEFAULT,
                 check_irreducible: bool = True) -> None:
        self._rate = rate
        self._max_steps = int(max_steps)
        self._check_irreducible = check_irreducible

    def solve(self,
              model: CTMC,
              rewards: RewardStructure,
              measure: Measure,
              times: np.ndarray | list[float],
              eps: float = 1e-12,
              *,
              kernel: UniformizationKernel | None = None
              ) -> TransientSolution:
        """Compute the measure at every time point with total error ``eps``.

        ``kernel`` may be a pre-built (cached/shared) kernel from
        ``UniformizationKernel.from_model(model)``; results are
        bit-identical to letting the solver build its own.
        """
        rewards.check_model(model)
        t_arr = as_time_array(times)
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        if self._check_irreducible and not model.is_irreducible():
            raise ModelError(
                "steady-state detection requires an irreducible model")

        kernel, dtmc, rate = ensure_model_kernel(model, kernel, self._rate)
        r = rewards.rates
        r_max = rewards.max_rate
        if r_max == 0.0:
            zeros = np.zeros_like(t_arr)
            return TransientSolution(times=t_arr, values=zeros,
                                     measure=measure, eps=eps,
                                     steps=np.zeros(t_arr.size, dtype=int),
                                     method=self.method_name,
                                     stats={"rate": rate, "k_ss": 0})

        pi_inf = stationary_distribution(dtmc)
        pi_resid = stationary_residual(dtmc, pi_inf)
        d_inf = float(r @ pi_inf)
        delta = eps / (2.0 * r_max)

        req = _rsd_requirements(t_arr, rate, eps, r_max, measure)
        n_budget = int(req.max())
        if n_budget > self._max_steps:
            raise TruncationError(
                f"RSD would need {n_budget} steps before any detection")

        # Step until detection or until the largest horizon is served.
        d_list: list[float] = []
        pi = dtmc.initial.copy()
        k_ss: int | None = None
        diff = np.empty_like(pi_inf)
        for n in range(n_budget):
            d_list.append(float(r @ pi))
            if _l1_distance(pi, pi_inf, diff) <= delta:
                k_ss = n + 1  # d_n for n >= k_ss replaced by d_inf
                break
            if n + 1 < n_budget:
                pi = kernel.step(pi)
        d = np.asarray(d_list)

        values, steps = _rsd_values(kernel, d, k_ss, req, t_arr, rate, eps,
                                    r_max, d_inf, measure)
        return TransientSolution(times=t_arr, values=values, measure=measure,
                                 eps=eps, steps=steps,
                                 method=self.method_name,
                                 stats={"rate": rate,
                                        "k_ss": k_ss,
                                        "d_inf": d_inf,
                                        "detection_delta": delta,
                                        "stationary_residual": pi_resid})

    def solve_fused(self,
                    model: CTMC,
                    cells: Sequence[SolveCell],
                    *,
                    kernel: UniformizationKernel | None = None
                    ) -> list[TransientSolution]:
        """Solve several cells against one model in one detection sweep.

        The randomized distribution ``π_n`` is stepped once for the whole
        group; every cell records its own ``d_n = r_j π_n`` prefix, runs
        its own detection test (its ``δ`` depends on its ``eps`` and
        ``r_max``) and is weighted exactly as in :meth:`solve`, so each
        returned solution — values, steps, ``k_ss`` — is bit-for-bit
        identical to the standalone run; ``stats`` gains ``fused_width``.
        Raises :class:`~repro.exceptions.TruncationError` when any cell's
        pre-detection budget exceeds ``max_steps`` (callers wanting
        per-cell failure isolation fall back to per-cell ``solve``).
        """
        cells = list(cells)
        if not cells:
            return []
        if self._check_irreducible and not model.is_irreducible():
            raise ModelError(
                "steady-state detection requires an irreducible model")
        kernel, dtmc, rate = ensure_model_kernel(model, kernel, self._rate)
        width = len(cells)
        results: list[TransientSolution | None] = [None] * width
        pi_inf: np.ndarray | None = None
        pi_resid = 0.0

        live: list[_FusedCellState] = []
        for idx, cell in enumerate(cells):
            cell.rewards.check_model(model)
            t_arr = as_time_array(cell.times)
            if cell.eps <= 0.0:
                raise ValueError("eps must be positive")
            r_max = cell.rewards.max_rate
            if r_max == 0.0:
                results[idx] = TransientSolution(
                    times=t_arr, values=np.zeros_like(t_arr),
                    measure=cell.measure, eps=cell.eps,
                    steps=np.zeros(t_arr.size, dtype=int),
                    method=self.method_name,
                    stats={"rate": rate, "k_ss": 0, "fused_width": width})
                continue
            if pi_inf is None:
                pi_inf = stationary_distribution(dtmc)
                pi_resid = stationary_residual(dtmc, pi_inf)
            st = _FusedCellState()
            st.idx = idx
            st.cell = cell
            st.t_arr = t_arr
            st.r = cell.rewards.rates
            st.r_max = r_max
            st.d_inf = float(st.r @ pi_inf)
            st.delta = cell.eps / (2.0 * r_max)
            st.req = _rsd_requirements(t_arr, rate, cell.eps, r_max,
                                       cell.measure)
            st.n_budget = int(st.req.max())
            if st.n_budget > self._max_steps:
                raise TruncationError(
                    f"RSD cell would need {st.n_budget} steps before any "
                    "detection")
            st.d_list = []
            st.k_ss = None
            st.done = False
            live.append(st)

        if live:
            n_total = max(st.n_budget for st in live)
            pi = dtmc.initial.copy()
            diff = np.empty_like(pi_inf)
            for n in range(n_total):
                dist: float | None = None
                pending = False
                for st in live:
                    if st.done or n >= st.n_budget:
                        continue
                    st.d_list.append(float(st.r @ pi))
                    if dist is None:
                        # One shared distance per step: π_n is common to
                        # every cell, only the δ threshold differs.
                        dist = _l1_distance(pi, pi_inf, diff)
                    if dist <= st.delta:
                        st.k_ss = n + 1
                        st.done = True
                    elif n + 1 >= st.n_budget:
                        st.done = True
                    else:
                        pending = True
                if not pending:
                    break
                pi = kernel.step(pi)
            for st in live:
                d = np.asarray(st.d_list)
                values, steps = _rsd_values(kernel, d, st.k_ss, st.req,
                                            st.t_arr, rate, st.cell.eps,
                                            st.r_max, st.d_inf,
                                            st.cell.measure)
                results[st.idx] = TransientSolution(
                    times=st.t_arr, values=values, measure=st.cell.measure,
                    eps=st.cell.eps, steps=steps,
                    method=self.method_name,
                    stats={"rate": rate, "k_ss": st.k_ss,
                           "d_inf": st.d_inf,
                           "detection_delta": st.delta,
                           "stationary_residual": pi_resid,
                           "fused_width": width})
        return results  # type: ignore[return-value]


register(SolverSpec(
    name="RSD",
    constructor=SteadyStateDetectionSolver,
    summary="Randomization with steady-state detection (irreducible "
            "models only)",
    kernel_aware=True,
    stack_fusable=True,
    requires_irreducible=True,
))
