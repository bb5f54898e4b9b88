"""RRL — the paper's method — against closed forms, SR and RR."""

import numpy as np
import pytest

from repro import (
    MRR,
    TRR,
    RegenerativeRandomizationSolver,
    RewardStructure,
    RRLSolver,
    StandardRandomizationSolver,
)
from repro.models import (
    Raid5Params,
    build_raid5_reliability,
    mm1k_queue,
    random_ctmc,
)
from tests.conftest import exact_two_state_mrr, exact_two_state_ua


@pytest.fixture(scope="module")
def raid_ur_reference():
    """RAID unreliability at G = 5, t = 1 … 1e4, with SR values at 1e-13."""
    model, rewards, _ = build_raid5_reliability(Raid5Params(groups=5))
    times = [1.0, 10.0, 1e2, 1e3, 1e4]
    ref = StandardRandomizationSolver().solve(model, rewards, TRR, times,
                                              eps=1e-13)
    return model, rewards, times, ref.values


class TestCorrectness:
    def test_two_state_both_measures(self, two_state):
        model, rewards, *_ = two_state
        times = [0.05, 1.0, 100.0, 1e4]
        trr = RRLSolver().solve(model, rewards, TRR, times, eps=1e-11)
        mrr = RRLSolver().solve(model, rewards, MRR, times, eps=1e-11)
        assert np.allclose(trr.values, exact_two_state_ua(times), atol=1e-11)
        assert np.allclose(mrr.values, exact_two_state_mrr(times), atol=1e-11)

    @pytest.mark.parametrize("absorbing", [0, 1, 2])
    @pytest.mark.parametrize("measure", [TRR, MRR])
    def test_random_chain_vs_sr(self, absorbing, measure):
        model = random_ctmc(12, density=0.35, seed=31, absorbing=absorbing)
        rewards = RewardStructure(np.linspace(0.2, 1.8, 12))
        times = [0.5, 5.0, 50.0]
        ref = StandardRandomizationSolver().solve(model, rewards, measure,
                                                  times, eps=1e-13)
        sol = RRLSolver().solve(model, rewards, measure, times, eps=1e-10)
        assert np.allclose(sol.values, ref.values, atol=2e-10)

    def test_agrees_with_rr(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [2, 7])
        times = [1.0, 20.0]
        rr = RegenerativeRandomizationSolver().solve(
            random_irreducible, rewards, TRR, times, eps=1e-11)
        rrl = RRLSolver().solve(random_irreducible, rewards, TRR, times,
                                eps=1e-11)
        assert np.allclose(rr.values, rrl.values, atol=1e-10)
        assert np.array_equal(rr.steps, rrl.steps)  # same transformation

    def test_distributed_initial(self):
        init = np.zeros(10)
        init[0], init[5] = 0.3, 0.7
        model = random_ctmc(10, density=0.4, seed=17, initial=init)
        rewards = RewardStructure.indicator(10, [9])
        ref = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  [4.0], eps=1e-13)
        sol = RRLSolver().solve(model, rewards, TRR, [4.0], eps=1e-10)
        assert sol.values[0] == pytest.approx(ref.values[0], abs=1e-10)

    @pytest.mark.parametrize(
        "n, density, seed, absorbing, scale, t, eps, regenerative", [
            (10, 0.203125, 608, 1, 10.0, 42.75, 1e-10, None),
            (10, 0.203125, 608, 1, 10.0, 42.6344303652401, 1e-10, None),
            (9, 0.1281776981097547, 6238, 1, 10.0, 20.263208673808037,
             1e-9, 4),
            (9, 0.36235782644705794, 80297, 1, 10.0, 7.611582969440047,
             1e-10, None),
        ])
    def test_inversion_does_not_stop_on_a_plateau(
            self, n, density, seed, absorbing, scale, t, eps, regenerative):
        """On these chains the epsilon table holds still for a few terms
        at a value 3-9·eps off before it converges; the inversion must
        not take that plateau for the limit."""
        model = random_ctmc(n, density=density, seed=seed,
                            absorbing=absorbing, rate_scale=scale)
        rewards = RewardStructure(
            np.random.default_rng(seed + 1).uniform(0.0, 2.0, n))
        ref = StandardRandomizationSolver().solve(model, rewards, TRR, [t],
                                                  eps=1e-14)
        sol = RRLSolver(regenerative=regenerative).solve(
            model, rewards, TRR, [t], eps=eps)
        assert abs(sol.values[0] - ref.values[0]) <= eps * max(
            1.0, rewards.max_rate)

    def test_queue_rewards(self):
        model, rewards = mm1k_queue(6, arrival=1.0, service=2.0)
        times = [1.0, 10.0, 100.0]
        ref = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  times, eps=1e-13)
        sol = RRLSolver().solve(model, rewards, TRR, times, eps=1e-10)
        assert np.allclose(sol.values, ref.values, atol=1e-9)


class TestWorkAndStats:
    def test_abscissae_reported(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [3])
        sol = RRLSolver().solve(random_irreducible, rewards, TRR,
                                [1.0, 100.0], eps=1e-10)
        absc = sol.stats["n_abscissae"]
        assert np.all(absc >= 8)
        assert np.all(absc < 2000)

    @pytest.mark.parametrize("measure", [TRR, MRR])
    def test_achieved_errors_reported(self, random_absorbing, measure):
        rewards = RewardStructure(np.linspace(0.0, 2.0, 14))
        eps = 1e-10
        sol = RRLSolver().solve(random_absorbing, rewards, measure,
                                [50.0, 1.0, 8.0], eps=eps)
        bound = sol.stats["truncation_bound"]
        diff = sol.stats["inversion_diff"]
        assert bound.shape == diff.shape == (3,)
        # Truncation keeps within eps/2; the inversion stops once
        # consecutive estimates differ by at most eps/100.
        assert np.all((bound >= 0.0) & (bound <= eps / 2.0))
        assert np.all((diff >= 0.0) & (diff <= eps / 100.0))

    def test_t_factor_configurable(self, two_state):
        model, rewards, *_ = two_state
        sol = RRLSolver(t_factor=16.0).solve(model, rewards, TRR, [1.0],
                                             eps=1e-10)
        assert sol.values[0] == pytest.approx(exact_two_state_ua(1.0),
                                              abs=1e-10)

    @pytest.mark.parametrize("t_factor", [None, 16.0])
    def test_paper_t_factors_meet_eps_on_raid_ur(self, raid_ur_reference,
                                                  t_factor):
        # The paper's T = 8t (the default) and Piessens' T = 16t both
        # hold ε against an SR reference on the small UR model.
        model, rewards, times, ref = raid_ur_reference
        solver = RRLSolver() if t_factor is None \
            else RRLSolver(t_factor=t_factor)
        sol = solver.solve(model, rewards, TRR, times, eps=1e-12)
        assert sol.stats["t_factor"] == (t_factor or 8.0)
        assert np.max(np.abs(sol.values - ref)) <= 1e-12

    def test_steps_logarithmic_in_t(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [3])
        sol = RRLSolver().solve(random_irreducible, rewards, TRR,
                                [1e2, 1e4, 1e6], eps=1e-12)
        s = sol.steps.astype(float)
        # Doubling the exponent of t adds a roughly constant increment.
        inc1, inc2 = s[1] - s[0], s[2] - s[1]
        assert inc2 < 3.0 * max(inc1, 1.0)

    def test_eps_honored_against_tight_sr(self):
        model = random_ctmc(10, density=0.4, seed=41)
        rewards = RewardStructure.indicator(10, [1])
        ref = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  [10.0], eps=1e-14)
        for eps in (1e-6, 1e-9, 1e-12):
            sol = RRLSolver().solve(model, rewards, TRR, [10.0], eps=eps)
            assert abs(sol.values[0] - ref.values[0]) <= eps

    def test_zero_rewards(self, two_state):
        model, _, *_ = two_state
        rewards = RewardStructure.indicator(2, [])
        sol = RRLSolver().solve(model, rewards, MRR, [1.0], eps=1e-10)
        assert sol.values[0] == 0.0

    def test_invalid_eps(self, two_state):
        model, rewards, *_ = two_state
        with pytest.raises(ValueError):
            RRLSolver().solve(model, rewards, TRR, [1.0], eps=-1.0)
