#!/usr/bin/env python
"""Count how often RRL's TRR misses its ε bound on random chains.

Draws seeded random chains from the strategy space of
``tests/test_properties.py`` (3–12 states, 0–2 absorbing states, arc
density 0.1–0.8, rate scale 0.1/1/10, rewards uniform on [0, 2)), plus a
regenerative state (the default or one of states 0–2 of the recurrent
core), a time ``t`` log-uniform on [0.05, 200] and ``ε`` from
{1e-9, 1e-10, 1e-12}. Each draw solves TRR(t) with RRL and compares it
with ``π₀·expm(Qt)·r`` from a dense matrix exponential. A draw breaks its
bound when ``|RRL − reference| > ε·max(1, r_max)``.

The script prints the attempted count, the breaks and the worst ratio of
error to bound, per ε and overall, and lists every break so it can be
rerun. It is a report, not a gate: it exits 0 whatever it finds. The same
``--seed`` and ``--draws`` give the same draws on any checkout, so two
checkouts can be compared draw for draw.

Run from the root of a checkout:

    PYTHONPATH=src python scripts/eps_sweep.py --draws 8000 --seed 0
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from repro import TRR, RewardStructure, RRLSolver
from repro.exceptions import ReproError
from repro.models import random_ctmc

EPSILONS = (1e-9, 1e-10, 1e-12)


@dataclass(frozen=True)
class Draw:
    """One random solve: ``random_ctmc`` arguments, regenerative state,
    time and budget."""

    n: int
    density: float
    seed: int
    absorbing: int
    rate_scale: float
    regenerative: int | None
    t: float
    eps: float

    def __str__(self) -> str:
        return (f"random_ctmc({self.n}, density={self.density!r}, "
                f"seed={self.seed}, absorbing={self.absorbing}, "
                f"rate_scale={self.rate_scale}), regenerative "
                f"{self.regenerative}, t={self.t!r}, eps={self.eps}")


def draws(seed: int, count: int):
    """``count`` draws from one seeded generator."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 13))
        absorbing = int(rng.integers(0, 3))
        if absorbing >= n - 2:
            absorbing = 0
        regenerative = int(rng.integers(-1, 3))
        yield Draw(
            n=n,
            density=float(rng.uniform(0.1, 0.8)),
            seed=int(rng.integers(0, 100_001)),
            absorbing=absorbing,
            rate_scale=float(rng.choice([0.1, 1.0, 10.0])),
            regenerative=(None if regenerative < 0
                          else regenerative % (n - absorbing)),
            t=float(math.exp(rng.uniform(math.log(0.05), math.log(200.0)))),
            eps=float(rng.choice(EPSILONS)))


def error_ratio(draw: Draw) -> float:
    """``|RRL − expm| / (ε·max(1, r_max))`` for one draw."""
    model = random_ctmc(draw.n, density=draw.density, seed=draw.seed,
                        absorbing=draw.absorbing,
                        rate_scale=draw.rate_scale)
    rng = np.random.default_rng(draw.seed + 1)
    rewards = RewardStructure(rng.uniform(0.0, 2.0, draw.n))
    sol = RRLSolver(regenerative=draw.regenerative).solve(
        model, rewards, TRR, [draw.t], eps=draw.eps)
    q = model.generator.toarray()
    reference = model.initial @ expm(q * draw.t) @ rewards.rates
    bound = draw.eps * max(1.0, rewards.max_rate)
    return abs(sol.values[0] - reference) / bound


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=8000,
                        help="number of random solves (default 8000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the draws (default 0)")
    args = parser.parse_args(argv)

    attempted = {eps: 0 for eps in EPSILONS}
    worst = {eps: 0.0 for eps in EPSILONS}
    breaks: list[tuple[float, Draw]] = []
    errors: list[tuple[Draw, str]] = []
    for draw in draws(args.seed, args.draws):
        attempted[draw.eps] += 1
        try:
            ratio = error_ratio(draw)
        except ReproError as exc:
            errors.append((draw, f"{type(exc).__name__}: {exc}"))
            continue
        worst[draw.eps] = max(worst[draw.eps], ratio)
        if ratio > 1.0:
            breaks.append((ratio, draw))

    for eps in EPSILONS:
        n_breaks = sum(1 for _, d in breaks if d.eps == eps)
        print(f"eps {eps:g}: attempted {attempted[eps]}, breaks {n_breaks}, "
              f"worst ratio {worst[eps]:.3f}")
    print(f"all: attempted {sum(attempted.values())}, breaks {len(breaks)}, "
          f"worst ratio {max(worst.values()):.3f}, errors {len(errors)}")
    for ratio, draw in sorted(breaks, key=lambda b: -b[0]):
        print(f"break {ratio:.3f}x: {draw}")
    for draw, message in errors:
        print(f"error: {draw}: {message}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
