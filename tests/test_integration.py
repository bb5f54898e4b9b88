"""Cross-method integration: every solver must agree with every other on
shared workloads, within the sum of their budgets.

This is the package's strongest guarantee: SR's error is rigorous, RR and
RRL take entirely different routes (explicit truncated chain vs closed-
form transform + numerical inversion), RSD adds detection, and a dense
``expm`` reference shares no code with randomization at all. Agreement
across all of them on dependability-shaped models is very unlikely to be
coincidental.
"""

import numpy as np
import pytest

from repro import MRR, TRR, RewardStructure
from repro.analysis import solve
from repro.models import (
    Raid5Params,
    build_raid5_availability,
    build_raid5_reliability,
    raid5_performability_rewards,
    random_ctmc,
    tandem_repair,
)

EPS = 1e-10
TIMES = [0.5, 5.0, 50.0, 500.0]


def agreement_matrix(model, rewards, measure, methods, times=TIMES,
                     eps=EPS):
    sols = {m: solve(model, rewards, measure, times, eps=eps, method=m)
            for m in methods}
    worst = 0.0
    for a in methods:
        for b in methods:
            dev = float(np.max(np.abs(sols[a].values - sols[b].values)))
            worst = max(worst, dev)
    return worst, sols


class TestSmallModels:
    def test_irreducible_all_methods(self, random_irreducible):
        from scipy.linalg import expm

        rewards = RewardStructure.indicator(15, [2, 9])
        _, sols = agreement_matrix(random_irreducible, rewards, TRR,
                                   ["RRL", "RR", "SR", "RSD"])
        q = random_irreducible.generator.toarray()
        ref = np.array([random_irreducible.initial @ expm(q * t)
                        @ rewards.rates for t in TIMES])
        for method, sol in sols.items():
            err = np.abs(sol.values - ref)
            assert np.all(err <= EPS), (method, err.max() / EPS)

    def test_irreducible_randomization_family_tight(self,
                                                    random_irreducible):
        rewards = RewardStructure.indicator(15, [2, 9])
        worst, _ = agreement_matrix(random_irreducible, rewards, TRR,
                                    ["RRL", "RR", "SR", "RSD"])
        assert worst < 2 * EPS

    def test_absorbing_all_applicable(self, random_absorbing):
        n = random_absorbing.n_states
        rewards = RewardStructure.indicator(n, [n - 2, n - 1])
        worst, _ = agreement_matrix(random_absorbing, rewards, TRR,
                                    ["RRL", "RR", "SR"])
        assert worst < 2 * EPS

    def test_mrr_family(self, random_irreducible):
        rewards = RewardStructure(np.linspace(0, 2, 15))
        worst, _ = agreement_matrix(random_irreducible, rewards, MRR,
                                    ["RRL", "RR", "SR", "RSD"])
        assert worst < 2 * EPS

    def test_stiff_tandem_long_horizon(self):
        model, rewards = tandem_repair(5, fail=1e-4, repair=2.0,
                                       coverage=0.99)
        worst, _ = agreement_matrix(model, rewards, TRR,
                                    ["RRL", "RR", "SR", "RSD"],
                                    times=[10.0, 1e3, 1e5])
        assert worst < 2 * EPS


class TestRaidWorkloads:
    @pytest.fixture(scope="class")
    def raid_ua(self):
        return build_raid5_availability(Raid5Params(groups=5))

    @pytest.fixture(scope="class")
    def raid_ur(self):
        return build_raid5_reliability(Raid5Params(groups=5))

    def test_ua_rrl_vs_rsd_vs_sr(self, raid_ua):
        model, rewards, _ = raid_ua
        worst, sols = agreement_matrix(model, rewards, TRR,
                                       ["RRL", "RSD", "SR"],
                                       times=[1.0, 10.0, 100.0])
        assert worst < 2 * EPS

    def test_ur_rrl_vs_sr(self, raid_ur):
        model, rewards, _ = raid_ur
        worst, _ = agreement_matrix(model, rewards, TRR,
                                    ["RRL", "SR"], times=[1.0, 50.0, 500.0])
        assert worst < 2 * EPS

    def test_ua_mrr_rrl_vs_sr(self, raid_ua):
        model, rewards, _ = raid_ua
        worst, _ = agreement_matrix(model, rewards, MRR,
                                    ["RRL", "SR"], times=[1.0, 100.0])
        assert worst < 2 * EPS

    def test_performability_rrl_vs_sr(self, raid_ua):
        model, _, explored = raid_ua
        p = Raid5Params(groups=5)
        rewards = raid5_performability_rewards(explored, p)
        worst, _ = agreement_matrix(model, rewards, TRR, ["RRL", "SR"],
                                    times=[1.0, 100.0])
        assert worst < 5 * EPS  # r_max = 5 scales the budget

    def test_rrl_large_horizon_consistency(self, raid_ua):
        # For t beyond any reasonable SR budget, RRL must agree with the
        # stationary solution of the irreducible model.
        from repro.markov.steady_state import stationary_distribution
        model, rewards, _ = raid_ua
        sol = solve(model, rewards, TRR, [1e7], eps=1e-12, method="RRL")
        pi = stationary_distribution(model)
        assert sol.values[0] == pytest.approx(rewards.expectation(pi),
                                              abs=1e-10)

    def test_ur_saturates_to_one(self, raid_ur):
        model, rewards, _ = raid_ur
        sol = solve(model, rewards, TRR, [1e8], eps=1e-10, method="RRL")
        assert sol.values[0] == pytest.approx(1.0, abs=1e-6)


class TestBudgetScaling:
    """The reported values at eps and eps/1000 must differ by < eps."""

    @pytest.mark.parametrize("method", ["RRL", "RR", "SR"])
    def test_self_consistency_under_eps(self, method):
        model = random_ctmc(10, density=0.4, seed=77, absorbing=1)
        rewards = RewardStructure.indicator(10, [9])
        t = [25.0]
        loose = solve(model, rewards, TRR, t, eps=1e-7, method=method)
        tight = solve(model, rewards, TRR, t, eps=1e-12, method=method)
        assert abs(loose.values[0] - tight.values[0]) < 1e-7
