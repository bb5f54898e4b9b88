"""Regenerative randomization with Laplace transform inversion — ``RRL``.

This is the paper's contribution. It shares the transformation phase with
RR (``K + L`` DTMC steps to extract the regenerative schedules and select
truncation points for error ``eps/2``) but replaces the inner standard-
randomization solution of ``V_{K,L}`` by

1. the closed-form Laplace transform of ``TRR^a_{K,L}`` / ``C_{K,L}``
   (:class:`repro.core.transforms.VklTransform`), and
2. numerical inversion by Durbin's formula with ``T = 8t``, damping chosen
   for an ``eps/4`` aliasing budget, and epsilon-accelerated series
   summation stopped at the ``eps/100`` tolerance
   (:mod:`repro.laplace.inversion`),

so the solution phase costs a few hundred transform evaluations —
*independent of* ``Λt`` — instead of ``O(Λt)`` inner steps. The paper
reports the inversion at 1–2% of total RRL runtime with 105–329 abscissae;
the solver records the abscissa count per time point so the tests and
the paper grid can check that claim.
"""

from __future__ import annotations

import numpy as np

from repro.core._setup import prepare
from repro.core.schedule_cache import ScheduleCache
from repro.core.transforms import VklTransform
from repro.core.truncation import select_truncation
from repro.laplace.inversion import invert_bounded, invert_cumulative
from repro.markov.base import TransientSolution, as_time_array
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.solvers.registry import SolverSpec, register

__all__ = ["RRLSolver"]


class RRLSolver:
    """Transient solver using regenerative randomization with Laplace
    transform inversion (the paper's ``RRL``).

    Parameters
    ----------
    regenerative:
        Index of the regenerative state ``r``; defaults to the most likely
        initial state.
    rate:
        Randomization rate ``Λ``; defaults to the model's maximum output
        rate.
    t_factor:
        Half-period multiplier ``T = t_factor · t``; the paper settles on
        8 after trying 1 (Crump — fast, occasionally unstable) through 16
        (Piessens–Huysmans — stable, slow).
    max_terms:
        Cap on Durbin series terms per inversion.
    """

    method_name = "RRL"

    def __init__(self, regenerative: int | None = None,
                 rate: float | None = None,
                 t_factor: float = 8.0,
                 max_terms: int = 20_000) -> None:
        self._regenerative = regenerative
        self._rate = rate
        self._t_factor = t_factor
        self._max_terms = max_terms

    def solve(self,
              model: CTMC,
              rewards: RewardStructure,
              measure: Measure,
              times: np.ndarray | list[float],
              eps: float = 1e-12,
              *,
              schedule_cache: ScheduleCache | None = None
              ) -> TransientSolution:
        """Compute the measure at every time point with total error ``eps``.

        The transformation phase steps the model's own kernel
        (:meth:`CTMC.kernel <repro.markov.ctmc.CTMC.kernel>`).
        ``schedule_cache`` shares the transformation itself across solve
        calls — RR and RRL cells on one ``(model, rewards, regenerative,
        rate)`` pay the ``K + L`` stepping phase once per cache,
        bit-identically — see
        :mod:`repro.core.schedule_cache`.
        """
        rewards.check_model(model)
        t_arr = as_time_array(times)
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        r_max = rewards.max_rate
        if r_max == 0.0:
            return TransientSolution(
                times=t_arr, values=np.zeros_like(t_arr), measure=measure,
                eps=eps, steps=np.zeros(t_arr.size, dtype=int),
                method=self.method_name,
                stats={"rate": self._rate if self._rate is not None
                       else model.max_output_rate})

        cache_hit: bool | None = None
        if schedule_cache is not None:
            setup, cache_hit = schedule_cache.setup_for(
                model, rewards, self._regenerative, self._rate)
        else:
            setup = prepare(model, rewards, self._regenerative, self._rate)
        values = np.empty(t_arr.size)
        steps = np.empty(t_arr.size, dtype=np.int64)
        k_points = np.empty(t_arr.size, dtype=np.int64)
        l_points = np.full(t_arr.size, -1, dtype=np.int64)
        abscissae = np.empty(t_arr.size, dtype=np.int64)
        dampings = np.empty(t_arr.size)
        truncation_bounds = np.empty(t_arr.size)
        inversion_diffs = np.empty(t_arr.size)
        order = np.argsort(t_arr)
        # Steps already on the (possibly shared) builders before
        # this solve: the difference is what *this* call charged.
        reused_steps = setup.main.steps_done \
            + (setup.primed.steps_done if setup.primed else 0)
        for i in order:
            t = float(t_arr[i])
            choice = select_truncation(setup.main, setup.primed,
                                       setup.rate, t, eps / 2.0, r_max)
            transform = VklTransform(
                setup.main.snapshot(),
                setup.primed.snapshot()
                if setup.primed is not None else None,
                choice.k_point, choice.l_point, setup.rate,
                setup.absorbing_rewards)
            if measure is Measure.TRR:
                res = invert_bounded(transform.trr, t, eps=eps,
                                     bound=r_max,
                                     t_factor=self._t_factor,
                                     max_terms=self._max_terms)
                values[i] = res.value
                inversion_diffs[i] = res.converged_diff
            else:
                res = invert_cumulative(transform.cumulative, t,
                                        eps=eps, r_max=r_max,
                                        t_factor=self._t_factor,
                                        max_terms=self._max_terms)
                values[i] = res.value / t
                inversion_diffs[i] = res.converged_diff / t
            steps[i] = choice.steps
            k_points[i] = choice.k_point
            l_points[i] = choice.l_point \
                if choice.l_point is not None else -1
            abscissae[i] = res.n_abscissae
            dampings[i] = res.damping
            truncation_bounds[i] = choice.error_bound
        transformation_steps = setup.main.steps_done \
            + (setup.primed.steps_done if setup.primed else 0) \
            - reused_steps
        stats = {
            "rate": setup.rate,
            "regenerative": setup.regenerative,
            "alpha_r": setup.alpha_r,
            "K": k_points,
            "L": l_points,
            "n_abscissae": abscissae,
            "damping": dampings,
            "truncation_bound": truncation_bounds,
            "inversion_diff": inversion_diffs,
            "t_factor": self._t_factor,
            "transformation_steps": transformation_steps,
        }
        if cache_hit is not None:
            stats["schedule_cache_hit"] = cache_hit
            stats["transformation_steps_reused"] = reused_steps
        return TransientSolution(
            times=t_arr, values=values, measure=measure, eps=eps,
            steps=steps, method=self.method_name, stats=stats)


register(SolverSpec(
    name="RRL",
    constructor=RRLSolver,
    summary="Regenerative randomization with Laplace transform inversion "
            "(the paper's method)",
    schedule_memoizable=True,
    table_label="RR/RRL",
))
