"""Numerical Laplace transform inversion (Durbin/Crump family).

This subpackage implements the inversion layer of the paper's RRL method:
Durbin's trapezoidal approximation of the Bromwich integral with period
parameter ``T`` (the paper settles on ``T = 8t`` as the stability/speed
compromise between Crump's ``T = t`` and Piessens–Huysmans' ``T = 16t``),
Wynn's epsilon algorithm to accelerate the Fourier series, and the paper's
error-budget machinery for choosing the damping parameter ``a``.
"""

from repro.laplace.epsilon import EpsilonAccelerator, wynn_epsilon
from repro.laplace.error_control import (
    damping_for_bounded,
    damping_for_cumulative,
)
from repro.laplace.durbin import durbin_terms
from repro.laplace.inversion import (
    InversionResult,
    invert_bounded,
    invert_cumulative,
)

__all__ = [
    "EpsilonAccelerator",
    "wynn_epsilon",
    "damping_for_bounded",
    "damping_for_cumulative",
    "durbin_terms",
    "InversionResult",
    "invert_bounded",
    "invert_cumulative",
]
