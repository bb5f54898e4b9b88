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

The rest of the solve (checks, setup, the ascending-t selection of
``K, L`` and the step stats) is shared with RRL:
:func:`repro.core.rrl_solver.solve_per_t`. RR supplies only the inner
solve of ``V_{K,L}``.
"""

from __future__ import annotations

import numpy as np

from repro.core.rrl_solver import solve_per_t
from repro.core.schedule_cache import ScheduleCache
from repro.core.vkl import build_vkl
from repro.markov.base import TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.standard import StandardRandomizationSolver

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
        inner = StandardRandomizationSolver(max_steps=self._inner_max_steps)

        def solve_vkl(t, choice, setup, r_max):
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
            return sol.values[0], sol.steps[0]

        t_arr, steps, out, stats = solve_per_t(
            model, rewards, times, eps, solve_vkl,
            {"value": float, "inner_sr_steps": np.int64},
            ("alpha_r", "K", "L", "inner_sr_steps"),
            regenerative=self._regenerative, rate=self._rate,
            schedule_cache=schedule_cache)
        return TransientSolution(
            times=t_arr, values=out["value"], measure=measure, eps=eps,
            steps=steps, method=self.method_name, stats=stats)
