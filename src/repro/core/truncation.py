"""Truncation-point selection for the transformed model ``V_{K,L}``.

The truncated chain routes into the artificial absorbing state ``a`` all
trajectories whose current excursion from the regenerative state exceeds
``K`` steps (or whose pre-first-regeneration prefix exceeds ``L`` steps).
Since every state of ``V_{K,L}`` except ``a`` reproduces the conditional
reward of the original chain, the measure error is at most
``r_max · P[V(t) = a-or-was-absorbed-late]``, and that probability obeys a
union bound over excursion restarts:

* each visit to ``a`` through the main chain requires ``K+1`` consecutive
  non-regenerative DTMC steps after some regeneration epoch; with ``N(t) ~
  Poisson(Λt)`` steps available there are at most ``(N(t) − K)^+`` start
  epochs, each succeeding with probability ``a(K)``;
* the primed route requires the *first* ``L+1`` steps to avoid ``r``,
  which has probability ``a'(L)`` and needs ``N(t) >= L+1``.

Hence

    err(K, L, t)  <=  r_max · [ a(K) · E[(N(t) − K)^+]
                                + a'(L) · P[N(t) >= L+1] ].

Both factors of each product are non-increasing in ``K`` (resp. ``L``), so
the smallest admissible truncation points are found by scanning forward —
which is free, because the schedules are computed by forward stepping
anyway. For the interval measure MRR the same bound applies uniformly on
``[0, t]`` (it is non-decreasing in ``t``), so one selection serves both
measures, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.exceptions import TruncationError
from repro.core.schedules import ScheduleBuilder
from repro.markov.poisson import poisson_expected_excess, poisson_sf

__all__ = ["select_truncation", "truncation_error_bound", "TruncationChoice"]

_HARD_CAP = 2_000_000


@dataclass(frozen=True)
class TruncationChoice:
    """Selected truncation points and the bound they achieve.

    ``l_point`` is ``None`` when there is no primed chain (``α_r = 1``).
    ``steps`` is the step count the paper's tables report: ``K + L`` for
    ``α_r < 1`` and ``K`` for ``α_r = 1``.
    """

    k_point: int
    l_point: int | None
    error_bound: float

    @property
    def steps(self) -> int:
        """DTMC steps charged to this selection (paper's cost metric)."""
        return self.k_point + (self.l_point or 0)


def truncation_error_bound(a_k: float, k: int, a_l: float | None,
                           l: int | None, rate_time: float,
                           r_max: float) -> float:
    """Evaluate the union bound for given truncation points."""
    err = r_max * a_k * poisson_expected_excess(rate_time, k)
    if a_l is not None and l is not None:
        err += r_max * a_l * poisson_sf(l, rate_time)
    return float(err)


def _excess_weights(rate_time: float, r_max: float, lo: int,
                    hi: int) -> np.ndarray:
    """``r_max · E[(N − k)^+]`` for ``k = lo .. hi-1``.

    Elementwise the float operations of :func:`poisson_expected_excess`,
    in the same order, so every entry equals
    ``r_max * poisson_expected_excess(rate_time, k)`` bit for bit.
    """
    sf = poisson_sf(np.arange(lo - 1, hi), rate_time)  # P[N >= lo + j]
    ks = np.arange(lo, hi, dtype=np.float64)
    return r_max * np.maximum(rate_time * sf[:-1] - ks * sf[1:], 0.0)


def _tail_weights(rate_time: float, r_max: float, lo: int,
                  hi: int) -> np.ndarray:
    """``r_max · P[N > k]`` for ``k = lo .. hi-1``."""
    return r_max * poisson_sf(np.arange(lo, hi), rate_time)


def _scan(builder: ScheduleBuilder, weights, budget: float,
          hard_cap: int) -> int:
    """Smallest k with ``a(k)·weight(k) <= budget`` (forward scan).

    ``weights(lo, hi)`` returns ``weight(k)`` for ``k = lo .. hi-1``;
    ``weight`` must be non-increasing in ``k``. The recorded prefix is
    tested in one array expression; past it the builder is extended one
    step at a time, against weights computed a growing chunk ahead
    (elementwise, so each equals its one-step value bit for bit). An
    exhausted builder satisfies any budget at its last index.
    """
    a = builder.snapshot().a[: hard_cap + 1]
    hits = a * weights(0, a.size) <= budget
    if hits.any():
        return int(hits.argmax())
    k = a.size
    lo, w = k, np.empty(0)  # w[j] = weight(lo + j)
    while True:
        if builder.exhausted and k >= builder.n_recorded:
            # Zero mass beyond the prefix.
            return builder.n_recorded - 1
        if k > hard_cap:
            raise TruncationError(
                f"no admissible truncation point below {hard_cap}")
        builder.extend_to(k)
        if k >= builder.n_recorded:
            # Exhausted before reaching k.
            return builder.n_recorded - 1
        if k - lo >= w.size:
            lo, w = k, weights(k, k + max(64, k // 4))
        if builder.a_at(k) * w[k - lo] <= budget:
            return k
        k += 1


def select_truncation(main: ScheduleBuilder,
                      primed: ScheduleBuilder | None,
                      rate: float,
                      t: float,
                      eps_budget: float,
                      r_max: float,
                      hard_cap: int = _HARD_CAP) -> TruncationChoice:
    """Choose ``K`` (and ``L``) so the model-truncation error is
    ``<= eps_budget`` at time ``t``.

    The budget is split evenly between the two chains when a primed chain
    exists, as the paper does with its ``ε/2``.
    """
    if eps_budget <= 0.0 or t <= 0.0 or rate <= 0.0:
        raise ValueError("eps_budget, t and rate must be positive")
    if r_max == 0.0:
        return TruncationChoice(k_point=0,
                                l_point=0 if primed is not None else None,
                                error_bound=0.0)
    rate_time = rate * t
    share = eps_budget / (2.0 if primed is not None else 1.0)

    k_point = _scan(main, partial(_excess_weights, rate_time, r_max),
                    share, hard_cap)
    l_point: int | None = None
    if primed is not None:
        l_point = _scan(primed, partial(_tail_weights, rate_time, r_max),
                        share, hard_cap)
    a_k = main.a_at(k_point)
    a_l = primed.a_at(l_point) if primed is not None else None
    bound = truncation_error_bound(a_k, k_point, a_l, l_point, rate_time,
                                   r_max)
    return TruncationChoice(k_point=k_point, l_point=l_point,
                            error_bound=bound)
