"""Tests for the one ``π_n`` sweep that SR and RSD cells share.

The load-bearing property: a cell solved inside a shared sweep — next to
other rewards, other horizons and the other method — must equal its
standalone solve bit for bit, in values, step counts and RSD's ``k_ss``,
``d_inf`` and ``stationary_residual``.
"""

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.scenarios import generate_scenarios
from repro.exceptions import ModelError
from repro.markov.base import SolveCell
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.steady_state import stationary_distribution
from repro.markov.sweep import PiSweep, solve_shared
from repro.models.library import random_ctmc


@pytest.fixture
def bound():
    model = random_ctmc(40, density=0.2, seed=7)
    sweep = PiSweep()
    kernel, dtmc, _ = sweep.bind(model, None)
    return sweep, kernel, dtmc, model


def _sequence(model, rewards, n_terms):
    """``d_0 .. d_{n_terms-1}`` from a sweep with this one need."""
    sweep = PiSweep()
    sweep.bind(model, None)
    need = sweep.need(rewards, n_terms)
    sweep.run()
    return need.d


class TestSequences:
    def test_reward_columns_bitwise(self, bound):
        # Every column of a reward stack, swept together, equals its own
        # single-reward sweep ulp for ulp.
        sweep, _, _, model = bound
        rng = np.random.default_rng(23)
        rewards = rng.random((model.n_states, 4))
        needs = [sweep.need(rewards[:, j], 15) for j in range(4)]
        sweep.run()
        for j, need in enumerate(needs):
            assert need.d.shape == (15,)
            assert np.array_equal(need.d,
                                  _sequence(model, rewards[:, j], 15))

    def test_matches_manual_loop(self, bound):
        sweep, _, dtmc, model = bound
        r = np.linspace(0.0, 1.0, model.n_states)
        need = sweep.need(r, 9)
        sweep.run()
        pi = dtmc.initial.copy()
        for n in range(9):
            assert need.d[n] == r @ pi
            pi = dtmc.step(pi)

    def test_shorter_needs_get_prefixes(self, bound):
        sweep, _, _, model = bound
        r = np.linspace(1.0, 2.0, model.n_states)
        long, short = sweep.need(r, 20), sweep.need(r, 7)
        sweep.run()
        assert short.d.shape == (7,)
        assert np.array_equal(short.d, long.d[:7])
        assert np.array_equal(long.d, _sequence(model, r, 20))

    def test_steps_once_per_level(self, bound):
        sweep, kernel, _, model = bound
        rng = np.random.default_rng(5)
        for j in range(6):
            sweep.need(rng.random(model.n_states), 10 - j)
        before = kernel.steps_done
        sweep.run()
        # 9 steps for 10 levels, independent of the 6 reward vectors.
        assert kernel.steps_done - before == 9 == sweep.steps
        assert sweep.dots == sum(10 - j for j in range(6))

    def test_equal_rewards_share_one_dot(self, bound):
        sweep, _, _, model = bound
        r = np.linspace(0.5, 1.0, model.n_states)
        a, b = sweep.need(r, 12), sweep.need(r.copy(), 8)
        sweep.run()
        assert sweep.dots == 12
        assert np.array_equal(a.d[:8], b.d)

    def test_shape_checks(self, bound):
        sweep, _, _, model = bound
        with pytest.raises(ModelError):
            sweep.need(np.ones(model.n_states + 1), 3)
        with pytest.raises(ModelError):
            sweep.need(np.ones((model.n_states, 2)), 3)
        with pytest.raises(ValueError):
            sweep.need(np.ones(model.n_states), 0)
        with pytest.raises(ModelError):
            PiSweep().need(np.ones(model.n_states), 3)  # never bound
        with pytest.raises(ValueError):
            sweep.need(np.ones(model.n_states), 5, 1e-3)  # no π_∞

    def test_run_without_needs_takes_no_step(self, bound):
        sweep, kernel, _, _ = bound
        sweep.run()
        assert kernel.steps_done == 0


def _detection_loop(kernel, dtmc, pi_inf, r, budget, delta):
    """The standalone detection loop, step by step."""
    d, pi = [], dtmc.initial.copy()
    for n in range(budget):
        d.append(float(r @ pi))
        if np.abs(pi - pi_inf).sum() <= delta:
            return np.asarray(d), n + 1
        if n + 1 < budget:
            pi = kernel.step(pi)
    return np.asarray(d), None


@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-30])
def test_detection_matches_step_by_step_loop(bound, delta):
    sweep, kernel, dtmc, model = bound
    sweep.pi_inf = stationary_distribution(dtmc)
    r = np.linspace(0.0, 3.0, model.n_states)
    need = sweep.need(r, 400, delta)
    sweep.run()
    d, k_ss = _detection_loop(kernel, dtmc, sweep.pi_inf, r, 400, delta)
    assert need.k_ss == k_ss
    assert np.array_equal(need.d, d)
    assert sweep.steps == d.size - 1


# -- mixed SR + RSD groups against standalone solves -----------------------

SCENARIOS = generate_scenarios(seed=1, random_count=4,
                               measures=(Measure.TRR, Measure.MRR))


def _by_model():
    """One entry per model: its TRR and MRR scenarios."""
    groups: dict = {}
    for s in SCENARIOS:
        groups.setdefault(s.name.split("/")[0], []).append(s)
    return groups


MODELS = _by_model()


def _group(name):
    scenarios = MODELS[name]
    model, rewards = scenarios[0].build()
    cells = [SolveCell(rewards=rewards, measure=s.measure, times=s.times,
                       eps=s.eps) for s in scenarios]
    # A sibling that shares nothing but the model.
    cells.append(SolveCell(rewards=RewardStructure(0.5 * rewards.rates),
                           measure=Measure.TRR,
                           times=scenarios[0].times[:2],
                           eps=scenarios[0].eps * 10))
    return model, cells


def _assert_same(got, solo):
    assert np.array_equal(got.values, solo.values)
    assert np.array_equal(got.steps, solo.steps)
    for key in ("k_ss", "d_inf", "stationary_residual", "rate"):
        assert got.stats.get(key) == solo.stats.get(key), key


def test_every_family_is_covered():
    families = {s.family for s in SCENARIOS}
    assert families == {"raid5", "multiprocessor", "birth_death", "block"}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mixed_group_equals_standalone(name):
    model, cells = _group(name)
    methods = ["SR"] + (["RSD"] if model.is_irreducible() else [])
    jobs = [(get_solver(m), cell) for m in methods for cell in cells]
    solved = solve_shared(model, jobs)
    for (solver, cell), got in zip(jobs, solved):
        solo = get_solver(solver.method_name).solve(
            model, cell.rewards, cell.measure, list(cell.times), cell.eps)
        _assert_same(got, solo)
        assert got.method == solver.method_name
        assert got.stats["fused_width"] == len(jobs)
        assert "fused_width" not in solo.stats


def test_early_detection_rides_the_sr_sweep():
    # raid5 detects within a few hundred steps; SR needs thousands.
    model, cells = _group("raid5-G2-mu0.5-avail")
    solved = solve_shared(model, [(get_solver(m), cell) for m in ("SR", "RSD")
                                  for cell in cells[:2]])
    sr, rsd = solved[:2], solved[2:]
    assert rsd[0].stats["k_ss"] == 351
    assert sr[0].stats["shared_steps"] == max(
        int(s.steps.max()) for s in sr)
    for got, cell in zip(rsd, cells):
        _assert_same(got, get_solver("RSD").solve(
            model, cell.rewards, cell.measure, list(cell.times), cell.eps))


def test_rsd_budget_past_sr_horizon():
    # block-3-3x7 never detects: RSD's budget (8,313 terms) outruns SR's
    # (8,304), so the sweep runs to RSD's need.
    model, cells = _group("block-3-3x7")
    cell = cells[0]
    sr, rsd = solve_shared(model, [(get_solver("SR"), cell),
                                   (get_solver("RSD"), cell)])
    assert rsd.stats["k_ss"] is None
    assert int(rsd.steps.max()) == 8312
    assert int(sr.steps.max()) == 8303
    assert sr.stats["shared_steps"] == 8312
    for got in (sr, rsd):
        _assert_same(got, get_solver(got.method).solve(
            model, cell.rewards, cell.measure, list(cell.times), cell.eps))


def test_mixed_group_steps_longest_need_with_one_dot_per_reward():
    model, cells = _group("bd-3-n15")
    sweep = PiSweep()
    kernel, _, _ = sweep.bind(model, None)
    finishers = [get_solver(m).join_sweep(sweep, model, cell)
                 for m in ("SR", "RSD") for cell in cells[:2]]
    before = kernel.steps_done
    sweep.run()
    longest = max(int(steps.max()) for _, steps, _ in
                  (finish() for finish in finishers))
    # The longest need, not the sum of the four cells' needs.
    assert kernel.steps_done - before == longest == sweep.steps
    # TRR and MRR share their reward vector: one dot per step.
    assert sweep.dots == longest + 1
