"""Randomization with steady-state detection: correctness and capping."""

import numpy as np
import pytest

from repro import (
    MRR,
    TRR,
    RewardStructure,
    StandardRandomizationSolver,
    SteadyStateDetectionSolver,
)
from repro.analysis.experiments import PAPER_TIMES, ExperimentConfig
from repro.exceptions import ModelError
from repro.models import (
    birth_death,
    build_raid5_availability,
    cyclic_chain,
    two_state_availability,
)
from tests.conftest import exact_two_state_mrr, exact_two_state_ua


class TestCorrectness:
    def test_two_state_trr(self, two_state):
        model, rewards, *_ = two_state
        times = [0.05, 1.0, 10.0, 1e4]
        sol = SteadyStateDetectionSolver().solve(model, rewards, TRR, times,
                                                 eps=1e-11)
        assert np.allclose(sol.values, exact_two_state_ua(times), atol=1e-11)

    def test_two_state_mrr(self, two_state):
        model, rewards, *_ = two_state
        times = [0.05, 1.0, 10.0, 1e4]
        sol = SteadyStateDetectionSolver().solve(model, rewards, MRR, times,
                                                 eps=1e-11)
        assert np.allclose(sol.values, exact_two_state_mrr(times), atol=1e-10)

    def test_agrees_with_sr_before_detection(self, random_irreducible):
        model = random_irreducible
        rewards = RewardStructure.indicator(model.n_states, [2, 5])
        times = [0.1, 1.0]
        sr = StandardRandomizationSolver().solve(model, rewards, TRR, times,
                                                 eps=1e-13)
        rsd = SteadyStateDetectionSolver().solve(model, rewards, TRR, times,
                                                 eps=1e-11)
        assert np.allclose(sr.values, rsd.values, atol=1e-11)

    def test_long_horizon_hits_stationary(self, random_irreducible):
        from repro.markov.steady_state import stationary_distribution
        model = random_irreducible
        rewards = RewardStructure.indicator(model.n_states, [0])
        sol = SteadyStateDetectionSolver().solve(model, rewards, TRR, [1e6],
                                                 eps=1e-11)
        pi = stationary_distribution(model)
        assert sol.values[0] == pytest.approx(pi[0], abs=1e-10)


class TestCapping:
    def test_steps_saturate(self, two_state):
        model, rewards, *_ = two_state
        sol = SteadyStateDetectionSolver().solve(
            model, rewards, TRR, [1.0, 100.0, 1e4, 1e6], eps=1e-12)
        assert sol.steps[-1] == sol.steps[-2]  # capped at k_ss
        assert sol.stats["k_ss"] is not None
        assert sol.steps[-1] <= sol.stats["k_ss"]

    def test_cheaper_than_sr_for_large_t(self, two_state):
        model, rewards, *_ = two_state
        t = [1e5]
        sr = StandardRandomizationSolver().solve(model, rewards, TRR, t,
                                                 eps=1e-12)
        rsd = SteadyStateDetectionSolver().solve(model, rewards, TRR, t,
                                                 eps=1e-12)
        assert rsd.steps[0] < sr.steps[0] / 100


class TestGuards:
    def test_rejects_reducible(self, erlang3):
        model, rewards = erlang3
        with pytest.raises(ModelError):
            SteadyStateDetectionSolver().solve(model, rewards, TRR, [1.0],
                                               eps=1e-9)

    def test_check_can_be_disabled(self, two_state):
        model, rewards, *_ = two_state
        solver = SteadyStateDetectionSolver(check_irreducible=False)
        sol = solver.solve(model, rewards, TRR, [1.0], eps=1e-9)
        assert sol.values[0] == pytest.approx(exact_two_state_ua(1.0),
                                              abs=1e-9)

    def test_zero_rewards(self, two_state):
        model, _, *_ = two_state
        rewards = RewardStructure.indicator(2, [])
        sol = SteadyStateDetectionSolver().solve(model, rewards, TRR, [1.0],
                                                 eps=1e-9)
        assert sol.values[0] == 0.0

    def test_periodic_uniformization_detects_with_slack(self):
        # The minimal-rate DTMC of a deterministic cycle is periodic: the
        # step distribution never converges. A slack rate restores
        # aperiodicity and detection works.
        model = cyclic_chain(6, 1.0)
        rewards = RewardStructure.indicator(6, [3])
        solver = SteadyStateDetectionSolver(rate=1.3)
        sol = solver.solve(model, rewards, TRR, [1e4], eps=1e-10)
        assert sol.values[0] == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_birth_death_matches_geometric_tail(self):
        model = birth_death(8, 1.0, 4.0)
        rewards = RewardStructure.indicator(8, [7])
        sol = SteadyStateDetectionSolver().solve(model, rewards, TRR, [1e5],
                                                 eps=1e-12)
        rho = 0.25
        pi = rho ** np.arange(8)
        pi /= pi.sum()
        assert sol.values[0] == pytest.approx(pi[7], rel=1e-6)


class TestPaperSize:
    """Table 1's RSD columns on the paper's RAID availability chains.

    Their 5521 and 20641 states put π_∞ on the sparse stationary path,
    which the G=5 golden fixture (GTH) never reaches.
    """

    @pytest.mark.parametrize("groups, steps, k_ss", [
        (20, [66, 355, 2267, 2267, 2267, 2267], 2268),
        (40, [99, 595, 4309, 4309, 4309, 4309], 4310),
    ])
    def test_table1_steps(self, groups, steps, k_ss):
        params = ExperimentConfig.paper().params_for(groups)
        model, rewards, _ = build_raid5_availability(params)
        sol = SteadyStateDetectionSolver().solve(model, rewards, TRR,
                                                 PAPER_TIMES, eps=1e-12)
        assert sol.steps.tolist() == steps
        assert sol.stats["k_ss"] == k_ss
        assert 0.0 <= sol.stats["stationary_residual"] <= 1e-14

