"""Damping-parameter selection for Durbin's inversion formula.

Durbin's approximation with damping ``a`` and period ``2T`` has aliasing
("approximation") error

    f*(t) = Σ_{k>=1} f(2kT + t) e^{-2akT},

so a bound on ``f`` translates into a closed-form bound on ``f*`` that can
be solved for the ``a`` achieving a prescribed budget. The paper (Section
2.2) works out the two cases RRL needs and allocates ``eps/4`` to each:

* ``f = TRR`` is bounded by ``r_max``  →  geometric series, giving
  ``a = (1/(2T)) log(1 + 4 r_max / eps)``;
* ``f = C(t) = t·MRR(t)`` is bounded by ``r_max · t``  →  arithmetic-
  geometric series, giving a quadratic in ``x = e^{-2aT}``.

The paper evaluates the quadratic with the textbook root formula and
patches its catastrophic cancellation with a Taylor expansion when
``y = sqrt((eps/4 + t r)/(eps/2 + (t+2T) r)) < 1e-3``. We implement the
algebraically equivalent *stable* root form ``x = 2c / (b + sqrt(b²−4ac))``
instead: it cancels for no parameter values, so it needs no fallback.
"""

from __future__ import annotations

import math

__all__ = [
    "damping_for_bounded",
    "damping_for_cumulative",
]


def damping_for_bounded(eps_quarter: float, bound: float, t_period: float) -> float:
    """Damping ``a`` so the aliasing error of a function with
    ``|f| <= bound`` is at most ``eps_quarter``.

    Solves ``bound · x / (1 − x) = eps_quarter`` for ``x = e^{-2aT}``:
    ``a = log(1 + bound/eps_quarter) / (2T)`` (paper's TRR case with
    ``eps_quarter = eps/4`` and ``bound = r_max``).
    """
    if eps_quarter <= 0.0:
        raise ValueError("error budget must be positive")
    if t_period <= 0.0:
        raise ValueError("period T must be positive")
    if bound < 0.0:
        raise ValueError("bound must be non-negative")
    if bound == 0.0:
        return 0.0
    return math.log1p(bound / eps_quarter) / (2.0 * t_period)


def _cumulative_quadratic(eps_quarter: float, r_max: float, t: float,
                          t_period: float) -> tuple[float, float, float]:
    """Coefficients ``(A, B, C)`` of ``A x² − B x + C = 0`` for the
    cumulative-measure aliasing equation
    ``r_max[(t+2T)x − t x²]/(1−x)² = eps_quarter``."""
    a_coef = r_max * t + eps_quarter
    b_coef = r_max * (t + 2.0 * t_period) + 2.0 * eps_quarter
    c_coef = eps_quarter
    return a_coef, b_coef, c_coef


def damping_for_cumulative(eps_quarter: float, r_max: float, t: float,
                           t_period: float) -> float:
    """Damping ``a`` so the aliasing error of ``C(t) = t·MRR(t)`` (bounded
    by ``r_max·t``) is at most ``eps_quarter`` — stable root form.

    The aliasing series evaluates to
    ``r_max[(t+2T)x − t x²]/(1−x)²`` with ``x = e^{-2aT}``; setting it to
    ``eps_quarter`` yields ``A x² − B x + C = 0`` with ``A = r·t + ε₄``,
    ``B = r(t+2T) + 2ε₄``, ``C = ε₄``. The needed (smaller) root is
    computed as ``x = 2C / (B + sqrt(B² − 4AC))``, which involves no
    subtraction of nearly equal quantities.
    """
    if eps_quarter <= 0.0 or t <= 0.0 or t_period <= 0.0:
        raise ValueError("eps, t and T must be positive")
    if r_max < 0.0:
        raise ValueError("r_max must be non-negative")
    if r_max == 0.0:
        return 0.0
    a_coef, b_coef, c_coef = _cumulative_quadratic(eps_quarter, r_max, t,
                                                   t_period)
    disc = b_coef * b_coef - 4.0 * a_coef * c_coef
    x = 2.0 * c_coef / (b_coef + math.sqrt(disc))
    return -math.log(x) / (2.0 * t_period)
