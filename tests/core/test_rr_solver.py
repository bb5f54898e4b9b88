"""Original regenerative randomization (RR) vs references."""

import numpy as np
import pytest

from repro import (
    MRR,
    TRR,
    RegenerativeRandomizationSolver,
    RewardStructure,
    StandardRandomizationSolver,
)
from repro.models import random_ctmc, tandem_repair
from tests.conftest import exact_two_state_mrr, exact_two_state_ua


class TestCorrectness:
    def test_two_state(self, two_state):
        model, rewards, *_ = two_state
        times = [0.1, 1.0, 100.0]
        sol = RegenerativeRandomizationSolver().solve(model, rewards, TRR,
                                                      times, eps=1e-11)
        assert np.allclose(sol.values, exact_two_state_ua(times), atol=1e-11)
        mol = RegenerativeRandomizationSolver().solve(model, rewards, MRR,
                                                      times, eps=1e-11)
        assert np.allclose(mol.values, exact_two_state_mrr(times), atol=1e-11)

    @pytest.mark.parametrize("absorbing", [0, 1])
    def test_random_chain_vs_sr(self, absorbing):
        model = random_ctmc(12, density=0.35, seed=21, absorbing=absorbing)
        rewards = RewardStructure(np.linspace(0, 1.5, 12))
        times = [0.5, 5.0, 50.0]
        ref = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  times, eps=1e-13)
        sol = RegenerativeRandomizationSolver().solve(model, rewards, TRR,
                                                      times, eps=1e-10)
        assert np.allclose(sol.values, ref.values, atol=1e-10)

    def test_distributed_initial(self):
        init = np.zeros(10)
        init[1], init[4] = 0.5, 0.5  # α_r = 0 for default regenerative
        model = random_ctmc(10, density=0.4, seed=13, initial=init)
        rewards = RewardStructure.indicator(10, [0, 9])
        ref = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  [3.0], eps=1e-13)
        sol = RegenerativeRandomizationSolver().solve(model, rewards, TRR,
                                                      [3.0], eps=1e-10)
        assert sol.values[0] == pytest.approx(ref.values[0], abs=1e-10)
        assert sol.stats["alpha_r"] < 1.0
        assert sol.stats["L"][0] >= 0

    def test_stiff_tandem(self):
        model, rewards = tandem_repair(4, fail=1e-4, repair=1.0,
                                       coverage=0.95)
        ref = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  [1e4], eps=1e-13)
        sol = RegenerativeRandomizationSolver().solve(model, rewards, TRR,
                                                      [1e4], eps=1e-10)
        assert sol.values[0] == pytest.approx(ref.values[0], abs=1e-10)


class TestWork:
    def test_steps_are_k_plus_l(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [3])
        sol = RegenerativeRandomizationSolver().solve(
            random_irreducible, rewards, TRR, [1.0, 10.0], eps=1e-10)
        k = sol.stats["K"]
        l = np.maximum(sol.stats["L"], 0)
        assert np.all(sol.steps == k + l)

    def test_steps_grow_slowly_in_t(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [3])
        sol = RegenerativeRandomizationSolver().solve(
            random_irreducible, rewards, TRR, [10.0, 1e4], eps=1e-10)
        inner = sol.stats["inner_sr_steps"]
        # Transformation steps grow ~log t (t grew 1000×, steps must grow
        # far less); the inner SR solve carries the Λt growth instead.
        assert sol.steps[1] < 10 * sol.steps[0]
        assert inner[1] > 50 * inner[0]

    def test_explicit_regenerative_state(self, random_irreducible):
        rewards = RewardStructure.indicator(15, [3])
        ref = StandardRandomizationSolver().solve(random_irreducible,
                                                  rewards, TRR, [5.0],
                                                  eps=1e-13)
        for reg in (0, 4):
            sol = RegenerativeRandomizationSolver(regenerative=reg).solve(
                random_irreducible, rewards, TRR, [5.0], eps=1e-10)
            assert sol.values[0] == pytest.approx(ref.values[0], abs=1e-10)
            assert sol.stats["regenerative"] == reg

    def test_zero_rewards(self, two_state):
        model, _, *_ = two_state
        rewards = RewardStructure.indicator(2, [])
        sol = RegenerativeRandomizationSolver().solve(model, rewards, TRR,
                                                      [1.0], eps=1e-10)
        assert sol.values[0] == 0.0


_TINY_INNER_CELLS = [(203, "block-1-4x6"), (204, "block-0-4x5"),
                     (211, "block-0-4x6")]


def _sweep_block_cell(seed, name, measure=TRR):
    """One block cell of the scenario sweep's draw for ``seed``."""
    from repro.batch.scenarios import generate_scenarios

    (scenario,) = [s for s in generate_scenarios(seed=seed, random_count=4,
                                                 measures=(TRR, MRR))
                   if s.name.split("/")[0] == name and s.measure is measure]
    return scenario


class TestTinyInnerRewards:
    """Cells whose ``V_{K,L}`` carries rewards far below ``eps``: the
    inner SR used to get a relative budget ``eps / (2 r_max)`` above 1
    and crash in the Poisson quantile."""

    @pytest.mark.parametrize("seed,name", _TINY_INNER_CELLS)
    def test_matches_dense_expm_within_eps(self, seed, name):
        from scipy.linalg import expm

        scenario = _sweep_block_cell(seed, name)
        model, rewards = scenario.build()
        sol = RegenerativeRandomizationSolver().solve(
            model, rewards, TRR, list(scenario.times), scenario.eps)
        q = model.generator.toarray()
        ref = [model.initial @ expm(q * t) @ rewards.rates
               for t in scenario.times]
        assert np.all(np.abs(sol.values - ref) <= scenario.eps)

    @pytest.mark.parametrize("seed,name", _TINY_INNER_CELLS)
    def test_mrr_matches_dense_expm_within_eps(self, seed, name):
        from scipy.linalg import expm

        scenario = _sweep_block_cell(seed, name, measure=MRR)
        model, rewards = scenario.build()
        sol = RegenerativeRandomizationSolver().solve(
            model, rewards, MRR, list(scenario.times), scenario.eps)
        # The top-right block of exp([[Q, r], [0, 0]] t) is
        # the integral of exp(Q s) r over [0, t].
        n = model.n_states
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = model.generator.toarray()
        aug[:n, n] = rewards.rates
        ref = [model.initial @ expm(aug * t)[:n, n] / t
               for t in scenario.times]
        assert np.all(np.abs(sol.values - ref) <= scenario.eps)

    def test_inner_budget_is_a_probability_within_half_eps(self, monkeypatch):
        budgets = []
        solve = StandardRandomizationSolver.solve

        def spy(self, model, rewards, measure, times, eps):
            budgets.append((eps, rewards.max_rate))
            return solve(self, model, rewards, measure, times, eps)

        monkeypatch.setattr(StandardRandomizationSolver, "solve", spy)
        scenario = _sweep_block_cell(*_TINY_INNER_CELLS[0])
        model, rewards = scenario.build()
        RegenerativeRandomizationSolver().solve(
            model, rewards, TRR, list(scenario.times), scenario.eps)
        assert budgets
        for inner_eps, inner_r_max in budgets:
            assert 0.0 < inner_eps <= scenario.eps / 2.0
            # SR's relative budget eps / r_max must stay a probability.
            assert inner_eps / inner_r_max < 1.0
