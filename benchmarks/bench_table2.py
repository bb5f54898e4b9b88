"""Table 2 — step counts of RR/RRL vs SR for UR(t), plus the in-text
UR(10⁵) values.

On the paper grid the RR/RRL column must match the published integers
within ±2 and UR(10⁵) must land on 0.50480 / ~0.7475 (the P_R
calibration, see ``Raid5Params.reconstruction_success``). The SR column
is *computed* from the Poisson quantile — running SR is not needed to
know how many steps it would take, which is exactly the point of the
table.

Run:  pytest benchmarks/bench_table2.py --benchmark-only -q -s
"""

import numpy as np
import pytest

from benchmarks.conftest import CONFIG, EPS, GROUPS, SCALE, TIMES
from repro import TRR, RRLSolver
from repro.analysis.experiments import (
    PAPER_TABLE2,
    PAPER_UR_1E5,
    run_table2,
)
from repro.markov.rewards import Measure
from repro.markov.standard import sr_required_steps


@pytest.mark.parametrize("g", GROUPS)
def test_table2_steps_column(benchmark, reliability_models, g):
    model, rewards = reliability_models[g]

    def sweep():
        return RRLSolver().solve(model, rewards, TRR, list(TIMES), EPS)

    sol = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert np.all(np.diff(sol.values) >= 0.0)  # UR is non-decreasing
    if SCALE == "paper" and tuple(TIMES) == (1.0, 10.0, 1e2, 1e3, 1e4, 1e5):
        paper = np.asarray(PAPER_TABLE2[g][0])
        assert np.all(np.abs(sol.steps - paper) <= 2), \
            f"G={g}: steps {list(sol.steps)} vs paper {list(paper)}"
        assert sol.values[-1] == pytest.approx(PAPER_UR_1E5[g], abs=8e-3), \
            f"G={g}: UR(1e5) = {sol.values[-1]} vs paper {PAPER_UR_1E5[g]}"


@pytest.mark.parametrize("g", GROUPS)
def test_table2_sr_column(benchmark, reliability_models, g):
    """Time the SR quantile computation and check the column's explosion."""
    model, rewards = reliability_models[g]
    lam = model.max_output_rate

    def column():
        return [sr_required_steps(lam * t, EPS / rewards.max_rate,
                                  Measure.TRR) - 1 for t in TIMES]

    steps = benchmark.pedantic(column, rounds=3, iterations=1)
    # SR grows linearly with t; at the largest horizon it must dwarf RRL.
    assert steps[-1] > 100 * steps[0]
    if SCALE == "paper" and tuple(TIMES) == (1.0, 10.0, 1e2, 1e3, 1e4, 1e5):
        paper = np.asarray(PAPER_TABLE2[g][1])
        assert np.all(np.abs(np.asarray(steps) - paper) <= 2), \
            f"G={g}: SR steps {steps} vs paper {list(paper)}"


def test_print_table2(reliability_models, capsys):
    table = run_table2(CONFIG)
    with capsys.disabled():
        print()
        print(table.render())
