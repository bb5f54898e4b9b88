"""Cross-method validation: run several solvers and compare.

Randomization-family solvers carry guaranteed error budgets, but a
*model* can still be wrong — and the strongest practical check is
agreement between methods that share no code path (SR sums Poisson-
weighted DTMC steps; RRL inverts a closed-form transform; the ODE solver
integrates the Kolmogorov equations). This module packages the
agreement-matrix idiom the test-suite uses into a public utility, so a
downstream user can certify their own model + measure + horizon the same
way before trusting a single-method production run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.runner import solve
from repro.markov.base import TransientSolution
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure

__all__ = ["ValidationReport", "cross_validate"]

#: Methods whose error is fully budget-controlled; deviations between
#: any two of them beyond the summed budgets indicate a real bug.
_STRICT = {"RRL", "RR", "SR", "RSD", "MS"}


@dataclass
class ValidationReport:
    """Result of a cross-method validation run.

    Attributes
    ----------
    solutions:
        Method tag → :class:`~repro.markov.base.TransientSolution`.
    deviations:
        ``(method_a, method_b) → max |values_a − values_b|`` over the
        common time grid, for ``a < b`` lexicographically.
    tolerance:
        The pass threshold used for :attr:`passed` (summed budgets for
        strict pairs, a looser heuristic bound when ODE participates).
    """

    solutions: dict[str, TransientSolution]
    deviations: dict[tuple[str, str], float]
    tolerance: dict[tuple[str, str], float]

    @property
    def passed(self) -> bool:
        """True when every pairwise deviation is within its tolerance."""
        return all(dev <= self.tolerance[pair]
                   for pair, dev in self.deviations.items())

    def worst_pair(self) -> tuple[tuple[str, str], float]:
        """The pair with the largest tolerance-relative deviation."""
        return max(self.deviations.items(),
                   key=lambda kv: kv[1] / max(self.tolerance[kv[0]], 1e-300))

    def render(self) -> str:
        """Human-readable pairwise deviation table."""
        rows = []
        for (a, b), dev in sorted(self.deviations.items()):
            tol = self.tolerance[(a, b)]
            rows.append([f"{a} vs {b}", f"{dev:.3e}", f"{tol:.3e}",
                         "ok" if dev <= tol else "FAIL"])
        status = "PASSED" if self.passed else "FAILED"
        return format_table(
            f"Cross-method validation: {status}",
            ["pair", "max deviation", "tolerance", "verdict"], rows)


def cross_validate(model: CTMC,
                   rewards: RewardStructure,
                   measure: Measure,
                   times: "np.ndarray | list[float]",
                   eps: float = 1e-10,
                   methods: "tuple[str, ...] | None" = None,
                   ode_slack: float = 1e3) -> ValidationReport:
    """Solve with several methods and compare pairwise.

    Parameters
    ----------
    model, rewards, measure, times, eps:
        As for any solver.
    methods:
        Method tags to include; defaults to the full strict family
        (``RRL, RR, SR`` — plus ``RSD`` for irreducible models) — ODE
        and MS can be added explicitly.
    ode_slack:
        Tolerance multiplier applied to pairs involving the
        heuristically-controlled ODE solver.
    """
    if methods is None:
        methods = ("RRL", "RR", "SR")
        if model.absorbing_states().size == 0 and model.is_irreducible():
            methods = methods + ("RSD",)
    sols: dict[str, TransientSolution] = {}
    for m in methods:
        sols[m] = solve(model, rewards, measure, list(times), eps=eps,
                        method=m)
    deviations: dict[tuple[str, str], float] = {}
    tolerance: dict[tuple[str, str], float] = {}
    tags = sorted(sols)
    for i, a in enumerate(tags):
        for b in tags[i + 1:]:
            dev = float(np.max(np.abs(sols[a].values - sols[b].values)))
            deviations[(a, b)] = dev
            tol = 2.0 * eps
            if a not in _STRICT or b not in _STRICT:
                tol *= ode_slack
            tolerance[(a, b)] = tol
    return ValidationReport(solutions=sols, deviations=deviations,
                            tolerance=tolerance)
