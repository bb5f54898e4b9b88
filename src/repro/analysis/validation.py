"""Cross-method validation: run several solvers and compare.

Every solver carries a guaranteed total error budget ``eps``,
but a *model* can still be wrong — and the strongest practical check is
agreement between methods that share no code path (SR sums Poisson-
weighted DTMC steps; RSD closes the series at a detected steady state;
RRL inverts a closed-form transform). Two methods that each meet ``eps``
differ by at most ``2·eps``, so that is every pair's tolerance. This
module packages the agreement-matrix idiom the test-suite uses into a
public utility, so a downstream user can certify their own model +
measure + horizon the same way before trusting a single-method
production run.
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
        The pass threshold used for :attr:`passed`: the summed budgets,
        ``2·eps``.
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
                   methods: "tuple[str, ...] | None" = None
                   ) -> ValidationReport:
    """Solve with several methods and compare pairwise.

    Parameters
    ----------
    model, rewards, measure, times, eps:
        As for any solver.
    methods:
        Method tags to include; defaults to ``RRL, RR, SR`` — plus
        ``RSD`` for irreducible models.
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
            tolerance[(a, b)] = 2.0 * eps
    return ValidationReport(solutions=sols, deviations=deviations,
                            tolerance=tolerance)
