"""Certified bounds (``RRLSolver.solve_bounds``): the sandwich must contain
the SR reference, and the bounds, RRL and RR share one truncation per t."""

import numpy as np
import pytest

from repro import (
    CTMC,
    MRR,
    TRR,
    RegenerativeRandomizationSolver,
    RewardStructure,
    RRLSolver,
    StandardRandomizationSolver,
)
from repro.models import Raid5Params, build_raid5_reliability, random_ctmc
from tests.conftest import exact_two_state_ua


class TestSandwich:
    def test_two_state(self, two_state):
        model, rewards, *_ = two_state
        times = [0.1, 1.0, 10.0]
        b = RRLSolver().solve_bounds(model, rewards, TRR, times,
                                     eps=1e-11)
        exact = exact_two_state_ua(times)
        assert np.all(b.lower <= exact + 1e-10)
        assert np.all(exact <= b.upper + 1e-10)
        assert np.all(b.width >= -1e-12)

    @pytest.mark.parametrize("measure", [TRR, MRR])
    def test_random_chain_contains_reference(self, measure):
        model = random_ctmc(10, density=0.4, seed=55, absorbing=1)
        rewards = RewardStructure(np.linspace(0.1, 1.0, 10))
        times = [1.0, 10.0]
        ref = StandardRandomizationSolver().solve(model, rewards, measure,
                                                  times, eps=1e-13)
        b = RRLSolver().solve_bounds(model, rewards, measure, times,
                                     eps=1e-10)
        slack = 1e-9
        assert np.all(b.lower <= ref.values + slack)
        assert np.all(ref.values <= b.upper + slack)

    def test_width_is_realized_truncation_loss(self):
        model = random_ctmc(10, density=0.4, seed=55)
        rewards = RewardStructure.indicator(10, [3])
        b = RRLSolver().solve_bounds(model, rewards, TRR, [5.0],
                                     eps=1e-8)
        # Width must be far below the a-priori eps/2 selection budget —
        # the union bound is conservative.
        assert b.width[0] <= 0.5e-8
        assert b.stats["p_absorbed"][0] >= -1e-12

    def test_midpoint_between_bounds(self, two_state):
        model, rewards, *_ = two_state
        b = RRLSolver().solve_bounds(model, rewards, TRR, [1.0],
                                     eps=1e-10)
        assert b.lower[0] <= b.midpoint[0] <= b.upper[0]

    def test_upper_clipped_at_rmax(self):
        model = random_ctmc(6, density=0.5, seed=2)
        rewards = RewardStructure.constant(6, 3.0)
        b = RRLSolver().solve_bounds(model, rewards, TRR, [1.0],
                                     eps=1e-6)
        assert np.all(b.upper <= 3.0 + 1e-12)

    def test_zero_rewards(self, two_state):
        model, _, *_ = two_state
        rewards = RewardStructure.indicator(2, [])
        b = RRLSolver().solve_bounds(model, rewards, TRR, [1.0])
        assert b.lower[0] == b.upper[0] == 0.0

    def test_zero_rewards_report_the_rate_like_solve(self, two_state):
        # One zero-reward shortcut: the bounds report the same stats as
        # RR's and RRL's solve, the randomization rate and nothing else.
        model, _, *_ = two_state
        rewards = RewardStructure.indicator(2, [])
        for measure in (TRR, MRR):
            b = RRLSolver().solve_bounds(model, rewards, measure, [1.0, 2.0])
            for solver in (RRLSolver(), RegenerativeRandomizationSolver()):
                sol = solver.solve(model, rewards, measure, [1.0, 2.0])
                assert b.stats == sol.stats == {
                    "rate": model.max_output_rate}
                assert np.array_equal(b.steps, sol.steps)
            assert b.stats == {"rate": model.max_output_rate}

    def test_raid_certificate(self):
        model, rewards, _ = build_raid5_reliability(Raid5Params(groups=4))
        b = RRLSolver().solve_bounds(model, rewards, TRR,
                                     [10.0, 1000.0], eps=1e-12)
        assert np.all(b.width <= 1e-12)
        assert np.all(np.diff(b.lower) > 0)  # UR grows

    def test_invalid_eps(self, two_state):
        model, rewards, *_ = two_state
        with pytest.raises(ValueError):
            RRLSolver().solve_bounds(model, rewards, TRR, [1.0], eps=0.0)


def _spread_initial_chain():
    """A chain whose initial vector is not concentrated on ``r``, so the
    primed schedule and ``L`` are live."""
    base = random_ctmc(8, density=0.5, seed=4)
    model = CTMC(base.generator, np.full(8, 1.0 / 8))
    return model, RewardStructure(np.linspace(0.0, 1.0, 8))


class TestOneTruncationPerT:
    """RR, RRL and the bounds select ``K, L`` in one loop, so at every t
    they charge the same steps, and RR and RRL report the same K and L."""

    @pytest.mark.parametrize("build, times", [
        (lambda: build_raid5_reliability(Raid5Params(groups=2))[:2],
         [10.0, 1000.0, 100.0]),
        (_spread_initial_chain, [3.0, 0.5, 20.0, 1.0]),
    ], ids=["raid5_g2_reliability", "spread_initial"])
    @pytest.mark.parametrize("measure", [TRR, MRR])
    def test_same_steps_and_truncation_points(self, build, times, measure):
        model, rewards = build()
        rr = RegenerativeRandomizationSolver().solve(
            model, rewards, measure, times, eps=1e-10)
        rrl = RRLSolver().solve(model, rewards, measure, times, eps=1e-10)
        bounds = RRLSolver().solve_bounds(model, rewards, measure, times,
                                          eps=1e-10)
        assert np.array_equal(rr.steps, rrl.steps)
        assert np.array_equal(bounds.steps, rrl.steps)
        assert np.array_equal(rr.stats["K"], rrl.stats["K"])
        assert np.array_equal(rr.stats["L"], rrl.stats["L"])
        assert len(set(rrl.steps.tolist())) == len(times)  # grows with t
        if model.initial[rrl.stats["regenerative"]] < 1.0:
            assert np.all(rrl.stats["L"] >= 0)
            assert np.array_equal(rrl.steps,
                                  rrl.stats["K"] + rrl.stats["L"])
        else:
            assert np.all(rrl.stats["L"] == -1)
            assert model.absorbing_states().size  # raid5: absorbing
