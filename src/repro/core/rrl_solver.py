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

Certified bounds (:meth:`RRLSolver.solve_bounds`) rest on a bounding
property of regenerative randomization (the paper's reference [2],
Carrasco TR DMSD 99-4): ``V_{K,L}`` *under-counts* every reward-carrying
state — trajectories routed into the truncation state ``a`` contribute
zero — so for any non-negative reward structure

    TRR^a_{K,L}(t)  <=  TRR(t)  <=  TRR^a_{K,L}(t) + r_max · P[V(t) = a],

and the analogous sandwich holds for the cumulative measure with
``∫_0^t P[V(τ) = a] dτ``. Both correction terms have closed-form
transforms (:meth:`~repro.core.transforms.VklTransform.p_absorbed_a`), so
the interval costs one extra inversion, and its width is the *realized*
truncation loss: an a-posteriori certificate, typically far smaller than
the a-priori union bound used to select ``K, L``.

RR (:mod:`repro.core.rr_solver`), RRL and the bounds share one solve,
:func:`solve_per_t`; each supplies only its per-``t`` evaluation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.core._setup import RegenerativeSetup, prepare
from repro.core.schedule_cache import ScheduleCache
from repro.core.transforms import VklTransform
from repro.core.truncation import TruncationChoice, select_truncation
from repro.laplace.inversion import invert_bounded, invert_cumulative
from repro.markov.base import TransientSolution, as_time_array
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure

__all__ = ["BoundedSolution", "RRLSolver", "solve_per_t"]


@dataclass
class BoundedSolution:
    """Two-sided certified bounds on a transient measure.

    ``lower`` and ``upper`` sandwich the exact measure up to the
    inversion budget (``eps/2``); ``width = upper − lower`` is the
    realized truncation loss ``r_max·p_a`` — an a-posteriori certificate
    for the ``K, L`` selection.
    """

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    measure: Measure
    eps: float
    steps: np.ndarray
    stats: dict

    @property
    def width(self) -> np.ndarray:
        """Certified interval width per time point."""
        return self.upper - self.lower

    @property
    def midpoint(self) -> np.ndarray:
        """Midpoint estimate (error ``<= width/2 + eps/2``)."""
        return 0.5 * (self.lower + self.upper)


def _steps_done(setup: RegenerativeSetup) -> int:
    return setup.main.steps_done \
        + (setup.primed.steps_done if setup.primed else 0)


def solve_per_t(model: CTMC,
                rewards: RewardStructure,
                times: np.ndarray | list[float],
                eps: float,
                evaluate: Callable[[float, TruncationChoice,
                                    RegenerativeSetup, float], tuple],
                columns: dict[str, type],
                report: Iterable[str],
                *,
                regenerative: int | None,
                rate: float | None,
                schedule_cache: ScheduleCache | None = None,
                constants: dict | None = None,
                ) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """The regenerative solve that RR, RRL and RRL's bounds share.

    Checks the arguments, then takes the setup from ``schedule_cache``
    (see :mod:`repro.core.schedule_cache`) or from :func:`prepare`. For
    each ``t`` in ascending order, so that each one extends the schedule
    prefixes of the last, it selects ``K, L`` for the ``eps/2``
    truncation budget and calls ``evaluate(t, choice, setup, r_max)``,
    which returns one number per entry of ``columns`` (name -> dtype).

    Returns ``(times, steps, columns, stats)``: the time array, the
    steps each ``t`` charges (:attr:`TruncationChoice.steps`), each
    column's per-``t`` array, and ``stats``. That holds ``rate`` and
    ``regenerative``, then each name in ``report`` (``alpha_r``, ``K``,
    ``L`` with ``-1`` for no primed chain, ``truncation_bound``, a column
    or a key of ``constants``), then ``transformation_steps``, the steps
    this call added to the builders. With a cache, it ends with
    ``schedule_cache_hit`` and ``transformation_steps_reused``. With
    all-zero rewards nothing is prepared: every column and step is 0
    and ``stats`` is ``{"rate": Λ}``.
    """
    rewards.check_model(model)
    t_arr = as_time_array(times)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    out = {name: np.zeros(t_arr.size, dtype=dtype)
           for name, dtype in columns.items()}
    steps = np.zeros(t_arr.size, dtype=np.int64)
    r_max = rewards.max_rate
    if r_max == 0.0:
        return t_arr, steps, out, {
            "rate": rate if rate is not None else model.max_output_rate}

    cache_hit: bool | None = None
    if schedule_cache is not None:
        setup, cache_hit = schedule_cache.setup_for(
            model, rewards, regenerative, rate)
    else:
        setup = prepare(model, rewards, regenerative, rate)
    k_points = np.empty(t_arr.size, dtype=np.int64)
    l_points = np.full(t_arr.size, -1, dtype=np.int64)
    truncation_bounds = np.empty(t_arr.size)
    # Steps already on the (possibly shared) builders before this
    # solve: the difference is what *this* call charged.
    reused_steps = _steps_done(setup)
    for i in np.argsort(t_arr):
        t = float(t_arr[i])
        choice = select_truncation(setup.main, setup.primed,
                                   setup.rate, t, eps / 2.0, r_max)
        for column, value in zip(out.values(),
                                 evaluate(t, choice, setup, r_max)):
            column[i] = value
        steps[i] = choice.steps
        k_points[i] = choice.k_point
        l_points[i] = choice.l_point if choice.l_point is not None else -1
        truncation_bounds[i] = choice.error_bound
    entries = {"alpha_r": setup.alpha_r, "K": k_points, "L": l_points,
               "truncation_bound": truncation_bounds, **out,
               **(constants or {})}
    stats = {"rate": setup.rate, "regenerative": setup.regenerative,
             **{name: entries[name] for name in report},
             "transformation_steps": _steps_done(setup) - reused_steps}
    if cache_hit is not None:
        stats["schedule_cache_hit"] = cache_hit
        stats["transformation_steps_reused"] = reused_steps
    return t_arr, steps, out, stats


def _transform(choice: TruncationChoice,
               setup: RegenerativeSetup) -> VklTransform:
    return VklTransform(
        setup.main.snapshot(),
        setup.primed.snapshot() if setup.primed is not None else None,
        choice.k_point, choice.l_point, setup.rate, setup.absorbing_rewards)


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

    def _invert(self, measure: Measure, transform, t: float, eps: float,
                bound: float):
        """Invert the transform of a function bounded by ``bound`` (TRR)
        or of its integral over ``[0, t]`` (MRR) at ``t``; return the
        result and the span ``t`` (MRR) or 1 (TRR) to divide it by."""
        if measure is Measure.TRR:
            return invert_bounded(transform, t, eps=eps, bound=bound,
                                  t_factor=self._t_factor,
                                  max_terms=self._max_terms), 1.0
        return invert_cumulative(transform, t, eps=eps, r_max=bound,
                                 t_factor=self._t_factor,
                                 max_terms=self._max_terms), t

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
        def invert(t, choice, setup, r_max):
            transform = _transform(choice, setup)
            res, span = self._invert(
                measure, transform.trr if measure is Measure.TRR
                else transform.cumulative, t, eps, r_max)
            return (res.value / span, res.n_abscissae, res.damping,
                    res.converged_diff / span)

        t_arr, steps, out, stats = solve_per_t(
            model, rewards, times, eps, invert,
            {"value": float, "n_abscissae": np.int64, "damping": float,
             "inversion_diff": float},
            ("alpha_r", "K", "L", "n_abscissae", "damping",
             "truncation_bound", "inversion_diff", "t_factor"),
            regenerative=self._regenerative, rate=self._rate,
            schedule_cache=schedule_cache,
            constants={"t_factor": self._t_factor})
        return TransientSolution(
            times=t_arr, values=out["value"], measure=measure, eps=eps,
            steps=steps, method=self.method_name, stats=stats)

    def solve_bounds(self,
                     model: CTMC,
                     rewards: RewardStructure,
                     measure: Measure,
                     times: np.ndarray | list[float],
                     eps: float = 1e-12) -> BoundedSolution:
        """Certified lower and upper bounds at every time point.

        The same ``K, L`` as :meth:`solve`; the inversion budget ``eps/2``
        is split between the measure and the ``p_a`` inversions
        (``eps/4`` each), so ``lower − eps/2 <= measure <= upper +
        eps/2`` rigorously up to the series-truncation heuristic shared
        with :meth:`solve`. ``stats`` holds ``rate``, ``regenerative``,
        ``p_absorbed`` (``p_a``, time-averaged for MRR) and
        ``transformation_steps``.
        """
        def sandwich(t, choice, setup, r_max):
            transform = _transform(choice, setup)
            if measure is Measure.TRR:
                measure_tr, absorbed_tr = transform.trr, transform.p_absorbed_a
            else:
                measure_tr = transform.cumulative
                # ∫ p_a has transform p̃_a/s and is bounded by t (a
                # probability integrated over [0, t]).
                def absorbed_tr(s):
                    return transform.p_absorbed_a(np.asarray(s)) / s
            res, span = self._invert(measure, measure_tr, t, eps / 2.0,
                                     r_max)
            low = res.value / span
            res, span = self._invert(measure, absorbed_tr, t, eps / 2.0,
                                     1.0)
            pa = res.value / span
            return (max(low, 0.0), min(low + r_max * max(pa, 0.0), r_max),
                    pa)

        t_arr, steps, out, stats = solve_per_t(
            model, rewards, times, eps, sandwich,
            {"lower": float, "upper": float, "p_absorbed": float},
            ("p_absorbed",),
            regenerative=self._regenerative, rate=self._rate)
        return BoundedSolution(
            times=t_arr, lower=out["lower"], upper=out["upper"],
            measure=measure, eps=eps, steps=steps, stats=stats)
