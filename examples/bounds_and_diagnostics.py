#!/usr/bin/env python
"""Certified bounds, MTTF, and regenerative-state diagnostics.

Three production niceties built on the paper's machinery:

1. **Certified two-sided bounds** — the truncated model V_{K,L}
   under-counts rewards, and the closed-form transform of the truncation
   state's probability turns that into an a-posteriori sandwich
   ``lower <= UR(t) <= upper`` (the bounding idea of the paper's
   reference [2]), from ``RRLSolver.solve_bounds`` on the same ``K, L``
   as ``RRLSolver.solve``;
2. **MTTF cross-check** — the mean time to absorption from a sparse
   linear solve must be consistent with RRL's UR(t) when the failure
   time is near-exponential (cv² ≈ 1);
3. **Regenerative-state diagnostics** — fitting the excursion decay
   a(k) ≈ c·ρ^k predicts the truncation point K(t) before solving, and
   ranks candidate regenerative states (the paper's selection guidance).

Run:  python examples/bounds_and_diagnostics.py
"""

import numpy as np

from repro import TRR, RRLSolver
from repro.analysis.convergence import (
    compare_regenerative_states,
    excursion_decay,
    predict_truncation,
)
from repro.analysis.reporting import format_table
from repro.markov.mttf import mean_time_to_absorption
from repro.models import Raid5Params, build_raid5_reliability

G = 8
TIMES = [1e2, 1e3, 1e4, 1e5]


def main() -> None:
    params = Raid5Params(groups=G)
    model, rewards, _ = build_raid5_reliability(params)
    print(f"RAID-5 reliability model, G={G}: {model.n_states} states\n")

    # 1 — certified bounds.
    b = RRLSolver().solve_bounds(model, rewards, TRR, TIMES, eps=1e-12)
    rows = [[f"{t:g}", f"{lo:.8e}", f"{up:.8e}", f"{w:.1e}"]
            for t, lo, up, w in zip(TIMES, b.lower, b.upper, b.width)]
    print(format_table("Certified bounds on UR(t)  (width = realized "
                       "truncation loss)",
                       ["t (h)", "lower", "upper", "width"], rows))

    # 2 — MTTF consistency.
    at = mean_time_to_absorption(model)
    print(f"\nMTTF = {at.mean:.4e} h (cv² = {at.cv2:.4f}; ≈1 ⇒ "
          "failure time ≈ exponential)")
    approx = 1.0 - np.exp(-np.asarray(TIMES) / at.mean)
    worst = np.max(np.abs(approx - b.midpoint) / np.maximum(b.midpoint,
                                                            1e-300))
    print(f"max relative gap UR(t) vs 1−exp(−t/MTTF): {worst:.2%}")

    # 3 — regenerative-state diagnostics.
    fit = excursion_decay(model, 0, n_steps=300)
    print(f"\nexcursion decay from the all-up state: a(k) ≈ "
          f"{fit.amplitude:.3g}·{fit.rate:.4f}^k")
    for t in (1e3, 1e5):
        k_pred = predict_truncation(fit, model.max_output_rate, t, 1e-12)
        print(f"  predicted K({t:g} h) ≈ {k_pred}")
    ranked = compare_regenerative_states(model)
    best_state, best_fit = ranked[0]
    worst_state, worst_fit = ranked[-1]
    print(f"best regenerative candidate: index {best_state} "
          f"(ρ = {best_fit.rate:.4f}); worst of the shortlist: index "
          f"{worst_state} (ρ = {worst_fit.rate:.4f})")


if __name__ == "__main__":
    main()
