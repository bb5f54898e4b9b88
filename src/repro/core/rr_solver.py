"""The original regenerative randomization method — ``RR``.

RR [Carrasco, TR DMSD 99-2/99-4] transforms the model into the truncated
chain ``V_{K,L}`` (cost: ``K + L`` steps of a DTMC the size of ``X̂``) and
then solves ``V_{K,L}`` *by standard randomization*. The transformation
cost is shared with RRL; the difference is the solution phase, which for
RR still needs ``O(Λt)`` (cheap, ``O(K+L)``-sized) steps — this is exactly
the regime where the paper's new variant wins (Figures 3 and 4).

Error budget: ``eps/2`` for the model truncation (selection of ``K, L``)
and ``eps/2`` for the inner standard-randomization solution, as in the
paper. The inner budget is capped at half of ``V_{K,L}``'s largest reward
rate, so SR's relative budget stays a probability below 1.
"""

from __future__ import annotations

import numpy as np

from repro.core._setup import prepare
from repro.core.schedule_cache import ScheduleCache
from repro.core.truncation import select_truncation
from repro.core.vkl import build_vkl
from repro.markov.base import TransientSolution, as_time_array
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.standard import StandardRandomizationSolver
from repro.solvers.registry import SolverSpec, register

__all__ = ["RegenerativeRandomizationSolver"]


class RegenerativeRandomizationSolver:
    """Transient solver using the original RR method.

    Parameters
    ----------
    regenerative:
        Index of the regenerative state ``r``; defaults to the most likely
        initial state (the paper uses the all-components-up state, which
        is also its initial state).
    rate:
        Randomization rate ``Λ``; defaults to the model's maximum output
        rate.
    inner_max_steps:
        Step cap handed to the inner SR solver (``Λt`` can be huge; the
        cap turns a multi-hour run into an explicit error).
    """

    method_name = "RR"

    def __init__(self, regenerative: int | None = None,
                 rate: float | None = None,
                 inner_max_steps: int = 50_000_000) -> None:
        self._regenerative = regenerative
        self._rate = rate
        self._inner_max_steps = inner_max_steps

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
        calls (the ``K + L`` stepping phase is paid once per ``(model,
        rewards, regenerative, rate)`` per cache), bit-identically — see
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
        inner = StandardRandomizationSolver(max_steps=self._inner_max_steps)

        values = np.empty(t_arr.size)
        steps = np.empty(t_arr.size, dtype=np.int64)
        k_points = np.empty(t_arr.size, dtype=np.int64)
        l_points = np.full(t_arr.size, -1, dtype=np.int64)
        inner_steps = np.empty(t_arr.size, dtype=np.int64)
        order = np.argsort(t_arr)  # ascending t reuses schedule prefixes
        # Steps already on the (possibly shared) builders before
        # this solve: the difference is what *this* call charged.
        reused_steps = setup.main.steps_done \
            + (setup.primed.steps_done if setup.primed else 0)
        for i in order:
            t = float(t_arr[i])
            choice = select_truncation(setup.main, setup.primed,
                                       setup.rate, t, eps / 2.0, r_max)
            v_model, v_rewards = build_vkl(
                setup.main.snapshot(),
                setup.primed.snapshot()
                if setup.primed is not None else None,
                choice.k_point, choice.l_point, setup.rate,
                setup.absorbing_rewards, setup.alpha_r)
            # Inner SR spends its budget as a tail probability of
            # ``budget / r_max`` on V_{K,L}. When that chain's rewards are
            # tiny, ``eps / 2`` would ask for a "probability" above 1;
            # half its reward rate is a legal budget and never looser.
            inner_eps = eps / 2.0
            if v_rewards.max_rate > 0.0:
                inner_eps = min(inner_eps, 0.5 * v_rewards.max_rate)
            sol = inner.solve(v_model, v_rewards, measure, [t], inner_eps)
            values[i] = sol.values[0]
            steps[i] = choice.steps
            k_points[i] = choice.k_point
            l_points[i] = choice.l_point \
                if choice.l_point is not None else -1
            inner_steps[i] = sol.steps[0]
        transformation_steps = setup.main.steps_done \
            + (setup.primed.steps_done if setup.primed else 0) \
            - reused_steps
        stats = {
            "rate": setup.rate,
            "regenerative": setup.regenerative,
            "alpha_r": setup.alpha_r,
            "K": k_points,
            "L": l_points,
            "inner_sr_steps": inner_steps,
            "transformation_steps": transformation_steps,
        }
        if cache_hit is not None:
            stats["schedule_cache_hit"] = cache_hit
            stats["transformation_steps_reused"] = reused_steps
        return TransientSolution(
            times=t_arr, values=values, measure=measure, eps=eps,
            steps=steps, method=self.method_name, stats=stats)


register(SolverSpec(
    name="RR",
    constructor=RegenerativeRandomizationSolver,
    summary="Original regenerative randomization (transform model, solve "
            "V_KL by inner SR)",
    schedule_memoizable=True,
    step_budget_kwarg="inner_max_steps",
    table_label="RR/RRL",
))
