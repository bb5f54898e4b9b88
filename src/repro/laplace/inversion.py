"""Top-level numerical Laplace inversion with the paper's error control.

The driver combines the three ingredients:

1. **Damping** ``a`` chosen so the aliasing error is ``<= eps/4``
   (:mod:`repro.laplace.error_control`; separate formulas for a bounded
   integrand like TRR and for the cumulative ``C(t) = t·MRR(t)``);
2. **Durbin series** with half-period ``T = T_factor · t`` (the paper
   settled on ``T_factor = 8`` after finding Crump's ``T = t`` fast but
   occasionally unstable and Piessens' ``T = 16t`` stable but slow);
3. **Epsilon acceleration** of the partial sums, declaring convergence
   when consecutive accelerated estimates differ by ``<= eps/100`` — the
   paper's factor-25 safety margin on the ``eps/4`` truncation budget —
   and a second epsilon table over every other partial sum agrees with
   the estimate within that ``eps/4``.

The returned :class:`InversionResult` carries the abscissa count, which is
the inversion cost the paper reports (105–329 abscissae; ~1–2% of total
RRL runtime).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import InversionError
from repro.laplace.durbin import durbin_partial_sums
from repro.laplace.epsilon import EpsilonAccelerator
from repro.laplace.error_control import (
    damping_for_bounded,
    damping_for_cumulative,
)

__all__ = ["InversionResult", "invert_bounded", "invert_cumulative",
           "invert"]

#: Paper: convergence when consecutive accelerated values differ by
#: ``eps_truncation / 25`` (i.e. total budget eps/4 → tolerance eps/100).
_SAFETY_FACTOR = 25.0

#: Require this many consecutive under-tolerance differences before
#: declaring convergence. The paper stops at the first small difference;
#: requiring three guards against accidental near-ties of the epsilon
#: table (observed on performability rewards with r_max >> 1) for a
#: handful of extra abscissae.
_CONSECUTIVE = 3

_MAX_TERMS_DEFAULT = 20_000
_MIN_TERMS = 8


@dataclass(frozen=True)
class InversionResult:
    """Outcome of one numerical inversion.

    Attributes
    ----------
    value:
        The inverted function value ``f(t)``.
    n_abscissae:
        Number of transform evaluations consumed (cost metric).
    damping:
        The damping parameter ``a`` used.
    t_period:
        The half-period ``T`` used.
    converged_diff:
        Final difference between consecutive accelerated estimates.
    """

    value: float
    n_abscissae: int
    damping: float
    t_period: float
    converged_diff: float


def _drive(transform: Callable[[np.ndarray], np.ndarray],
           t: float, a: float, t_period: float, tol: float,
           max_terms: int) -> InversionResult:
    """Run the accelerate-until-settled loop shared by both entry points."""
    acc = EpsilonAccelerator()
    # The transforms RRL inverts belong to V_{K,L}, whose truncation
    # state fills up in an Erlang-like ramp just past ``t``. The ramp adds
    # a slowly oscillating, fast-fading component to the Durbin terms,
    # and while it fades the epsilon table can hold still for several
    # terms at a value off by up to ~10·eps. Three small steps in a row
    # do not tell such a plateau from the limit. A second table over the
    # partial sums 0, 2, 4, ... extrapolates from a window twice as long
    # and rarely shares the plateau, so convergence also needs the two
    # estimates to agree within the whole truncation budget
    # (25·tol = eps/4). ``tol`` itself is too tight for that: at tight
    # ``eps`` the rounding noise of the two tables alone exceeds it.
    stride2 = EpsilonAccelerator()
    stride2_est = np.nan
    cross_tol = _SAFETY_FACTOR * tol
    prev = np.nan
    diff = np.inf
    hits = 0
    n = 0
    for partial in durbin_partial_sums(transform, t, a, t_period, max_terms):
        est = acc.add(partial)
        if n % 2 == 0:
            stride2_est = stride2.add(partial)
        n += 1
        if n >= _MIN_TERMS and np.isfinite(prev):
            diff = abs(est - prev)
            if diff <= tol:
                hits += 1
                if (hits >= _CONSECUTIVE
                        and abs(est - stride2_est) <= cross_tol):
                    return InversionResult(value=est, n_abscissae=n,
                                           damping=a, t_period=t_period,
                                           converged_diff=diff)
            else:
                hits = 0
        prev = est
    raise InversionError(
        f"Durbin series did not settle within {max_terms} abscissae "
        f"(last diff {diff:.3e}, tol {tol:.3e})")


def invert_bounded(transform: Callable[[np.ndarray], np.ndarray],
                   t: float, *, eps: float, bound: float,
                   t_factor: float = 8.0,
                   max_terms: int = _MAX_TERMS_DEFAULT) -> InversionResult:
    """Invert the transform of a function with ``|f| <= bound`` at ``t``.

    Total inversion error ``<= eps/2``: ``eps/4`` aliasing (via damping
    selection) plus ``eps/4`` series truncation (tolerance ``eps/100``
    with the paper's factor-25 margin). This is the TRR path of RRL.
    """
    if eps <= 0.0 or t <= 0.0:
        raise ValueError("eps and t must be positive")
    t_period = t_factor * t
    a = damping_for_bounded(eps / 4.0, bound, t_period)
    tol = eps / (4.0 * _SAFETY_FACTOR)
    return _drive(transform, t, a, t_period, tol, max_terms)


def invert_cumulative(transform: Callable[[np.ndarray], np.ndarray],
                      t: float, *, eps: float, r_max: float,
                      t_factor: float = 8.0,
                      max_terms: int = _MAX_TERMS_DEFAULT) -> InversionResult:
    """Invert the transform of ``C(t) = t·MRR(t)`` (``0 <= C <= r_max·t``).

    The budgets are scaled by ``t`` as in the paper (error ``t·eps/4`` for
    aliasing and tolerance ``t·eps/100`` for truncation) so that the
    *derived* measure ``MRR(t) = C(t)/t`` honours the same ``eps/2`` as
    the TRR path. The returned ``value`` is ``C(t)``, not ``MRR``.
    """
    if eps <= 0.0 or t <= 0.0:
        raise ValueError("eps and t must be positive")
    t_period = t_factor * t
    a = damping_for_cumulative(t * eps / 4.0, r_max, t, t_period)
    tol = t * eps / (4.0 * _SAFETY_FACTOR)
    return _drive(transform, t, a, t_period, tol, max_terms)


def invert(transform: Callable[[np.ndarray], np.ndarray],
           t: float, *, eps: float, bound: float,
           kind: str = "bounded",
           t_factor: float = 8.0,
           max_terms: int = _MAX_TERMS_DEFAULT) -> InversionResult:
    """Generic entry point: ``kind`` is ``"bounded"`` or ``"cumulative"``.

    For ``"cumulative"``, ``bound`` is interpreted as ``r_max`` (the bound
    on the *derivative* of the cumulative function).
    """
    if kind == "bounded":
        return invert_bounded(transform, t, eps=eps, bound=bound,
                              t_factor=t_factor, max_terms=max_terms)
    if kind == "cumulative":
        return invert_cumulative(transform, t, eps=eps, r_max=bound,
                                 t_factor=t_factor, max_terms=max_terms)
    raise ValueError(f"unknown inversion kind {kind!r}")
