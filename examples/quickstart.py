#!/usr/bin/env python
"""Quickstart: transient analysis of a repairable two-state system.

Builds the smallest meaningful dependability model (a machine failing at
rate λ and repaired at rate μ), computes its point unavailability UA(t)
and interval unavailability MRR(t) with every solver in the package, and
checks them against the closed-form answers.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import MRR, TRR, TransientSolution
from repro.analysis import solve
from repro.models import two_state_availability

FAIL, REPAIR = 1.0, 10.0
TIMES = [0.01, 0.1, 1.0, 10.0, 100.0]
EPS = 1e-10
METHODS = ("RRL", "RR", "SR", "RSD")


def exact_ua(t: np.ndarray) -> np.ndarray:
    s = FAIL + REPAIR
    return FAIL / s * (1.0 - np.exp(-s * t))


def exact_mrr(t: np.ndarray) -> np.ndarray:
    s = FAIL + REPAIR
    return FAIL / s * (1.0 - (1.0 - np.exp(-s * t)) / (s * t))


def report(tag: str, sol: TransientSolution, exact: np.ndarray) -> None:
    err = np.max(np.abs(sol.values - exact))
    steps = [int(n) for n in sol.steps]
    print(f"  {tag:4s} max|err| = {err:.2e}   steps = {steps}")


def main() -> None:
    model, rewards = two_state_availability(FAIL, REPAIR)
    t = np.asarray(TIMES)

    print(f"Two-state availability model: λ={FAIL}, μ={REPAIR}, ε={EPS}")
    print(f"UA(t) at t = {TIMES}:")
    print("  exact:", np.array2string(exact_ua(t), precision=6))
    for method in METHODS:
        sol = solve(model, rewards, TRR, TIMES, eps=EPS, method=method)
        report(method, sol, exact_ua(t))

    print("\nMRR(t) (interval unavailability):")
    print("  exact:", np.array2string(exact_mrr(t), precision=6))
    for method in METHODS:
        sol = solve(model, rewards, MRR, TIMES, eps=EPS, method=method)
        report(method, sol, exact_mrr(t))

    print("\nAll methods agree with the closed forms within ε — see "
          "examples/raid5_unreliability.py for the paper's real workload.")


if __name__ == "__main__":
    main()
