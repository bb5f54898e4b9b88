"""Library models: closed-form spot checks and structural properties."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro import TRR, StandardRandomizationSolver
from repro.exceptions import ModelError
from repro.markov.steady_state import stationary_distribution
from repro.models import (
    birth_death,
    cyclic_chain,
    erlang_chain,
    mm1k_queue,
    random_ctmc,
    tandem_repair,
    two_state_availability,
)


class TestTwoState:
    def test_structure(self):
        model, rewards = two_state_availability(2.0, 5.0)
        assert model.n_states == 2
        assert model.output_rates[0] == 2.0
        assert rewards.rates[1] == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            two_state_availability(0.0, 1.0)


class TestBirthDeath:
    def test_stationary_geometric(self):
        m = birth_death(7, 1.0, 2.0)
        pi = stationary_distribution(m)
        expected = 0.5 ** np.arange(7)
        expected /= expected.sum()
        assert np.allclose(pi, expected)

    def test_validation(self):
        with pytest.raises(ModelError):
            birth_death(1, 1.0, 1.0)


class TestErlang:
    def test_cdf(self):
        from scipy import stats
        model, rewards = erlang_chain(4, 3.0)
        sol = StandardRandomizationSolver().solve(model, rewards, TRR,
                                                  [0.3, 1.0], eps=1e-12)
        exact = stats.gamma.cdf([0.3, 1.0], a=4, scale=1.0 / 3.0)
        assert np.allclose(sol.values, exact, atol=1e-11)

    def test_validation(self):
        with pytest.raises(ModelError):
            erlang_chain(0, 1.0)


class TestQueue:
    def test_rewards_are_lengths(self):
        model, rewards = mm1k_queue(5, 1.0, 1.5)
        assert np.allclose(rewards.rates, np.arange(6))

    def test_stationary_mean(self):
        model, rewards = mm1k_queue(10, 1.0, 2.0)
        pi = stationary_distribution(model)
        mean = rewards.expectation(pi)
        rho = 0.5
        pk = rho ** np.arange(11)
        pk /= pk.sum()
        assert mean == pytest.approx(float(np.arange(11) @ pk))


class TestCyclic:
    def test_periodic_structure(self):
        m = cyclic_chain(4, 2.0)
        assert m.n_transitions == 4
        assert m.is_irreducible()
        dtmc, _ = m.uniformize()  # minimal rate: no self-loops
        assert np.allclose(dtmc.transition_matrix.diagonal(), 0.0)


class TestTandem:
    def test_perfect_coverage_is_birth_death(self):
        model, rewards = tandem_repair(3, 0.1, 1.0, coverage=1.0)
        assert model.n_states == 4
        # No direct jump 0 -> down with full coverage.
        assert model.generator[0, 3] == 0.0

    def test_uncovered_failures_jump_to_down(self):
        model, _ = tandem_repair(3, 0.1, 1.0, coverage=0.9)
        assert model.generator[0, 3] > 0.0

    def test_down_probability_increases_without_coverage(self):
        t = [100.0]
        vals = []
        for cov in (1.0, 0.8):
            model, rewards = tandem_repair(3, 0.01, 1.0, coverage=cov)
            vals.append(StandardRandomizationSolver().solve(
                model, rewards, TRR, t, eps=1e-11).values[0])
        assert vals[1] > vals[0]


class TestRandomCtmc:
    def test_core_strongly_connected(self):
        m = random_ctmc(12, density=0.2, seed=2, absorbing=2)
        n_comp, _ = connected_components(m.generator[:10, :10],
                                         directed=True, connection="strong")
        assert n_comp == 1

    def test_absorbing_states_absorb(self):
        m = random_ctmc(10, density=0.3, seed=4, absorbing=2)
        assert list(m.absorbing_states()) == [8, 9]

    def test_deterministic_by_seed(self):
        a = random_ctmc(8, seed=5).generator.toarray()
        b = random_ctmc(8, seed=5).generator.toarray()
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ModelError):
            random_ctmc(1)
        with pytest.raises(ModelError):
            random_ctmc(5, absorbing=5)
