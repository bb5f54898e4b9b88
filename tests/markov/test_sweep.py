"""Tests for the one ``π_n`` sweep that SR and RSD cells share.

The load-bearing property: a cell solved inside a shared sweep — next to
other rewards, other horizons and the other method — must equal its
standalone solve bit for bit, in values, step counts and RSD's ``k_ss``,
``d_inf`` and ``stationary_residual``.
"""

import functools

import numpy as np
import pytest
from scipy import sparse

from repro.analysis.runner import get_solver
from repro.batch.kernel import UniformizationKernel, kernel_build_count
from repro.batch.scenarios import generate_scenarios
from repro.exceptions import ModelError
from repro.markov.base import SolveCell
from repro.markov.rewards import Measure, RewardStructure
from repro.markov.steady_state import stationary_distribution
from repro.markov import sweep as sweep_module
from repro.markov.sweep import PiSweep, solve_shared, solve_stacked, walk
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
            pi = dtmc.transition_matrix.T @ pi

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

    def test_binds_the_models_own_kernel(self, bound):
        sweep, kernel, dtmc, model = bound
        assert kernel is model.kernel() and dtmc is kernel.dtmc
        assert sweep.bind(model, None)[0] is kernel

    def test_a_lane_steps_one_rate(self, bound):
        sweep, kernel, _, model = bound
        rate = 2.0 * kernel.rate
        with pytest.raises(ModelError, match="one randomization"):
            sweep.bind(model, rate)
        pinned = PiSweep()
        got, _, lam = pinned.bind(model, rate)
        assert got is not kernel and lam == rate
        assert pinned.bind(model, rate)[0] is got
        with pytest.raises(ModelError, match="one randomization"):
            pinned.bind(model, None)


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


# -- the stacked, blocked walk against a per-level reference ---------------

def _reference_walk(kernel, dtmc, pi_inf, needs):
    """The per-level walk: one step, one ``r.dot(π)`` per need and one
    ``|π − π_∞|.sum()`` per level while a detector is live.

    ``needs`` is a list of ``(rewards, terms, delta)``; returns each
    need's ``(d, k_ss)`` and the walk's step count.
    """
    terms = [t for _, t, _ in needs]
    k_ss = [None] * len(needs)
    d = [[] for _ in needs]
    pi, n = dtmc.initial.copy(), 0
    while n < max(terms):
        if n:
            pi = kernel.step(pi)
        live = [i for i, (_, _, delta) in enumerate(needs)
                if delta is not None and k_ss[i] is None and n < terms[i]]
        dist = np.abs(pi - pi_inf).sum() if live else None
        for i, (r, _, _) in enumerate(needs):
            if n < terms[i]:
                d[i].append(r.dot(pi))
        for i in live:
            if dist <= needs[i][2]:
                k_ss[i] = terms[i] = n + 1
        n += 1
    return [(np.asarray(seq), k) for seq, k in zip(d, k_ss)], n - 1


def _distances(kernel, dtmc, pi_inf, levels):
    """``‖π_n − π_∞‖₁`` for ``n < levels``."""
    pi, out = dtmc.initial.copy(), []
    for n in range(levels):
        if n:
            pi = kernel.step(pi)
        out.append(np.abs(pi - pi_inf).sum())
    return np.asarray(out)


def _walked(lanes):
    """Fresh sweeps for ``(kernel, dtmc, pi_inf, needs)`` lanes, and their
    needs."""
    sweeps, needs = [], []
    for kernel, dtmc, pi_inf, lane_needs in lanes:
        sweep = PiSweep()
        sweep.kernel, sweep.dtmc, sweep.pi_inf = kernel, dtmc, pi_inf
        needs.append([sweep.need(r, terms, delta)
                      for r, terms, delta in lane_needs])
        sweeps.append(sweep)
    return sweeps, needs


def _assert_walk_matches(lane, sweep, needs):
    kernel, dtmc, pi_inf, lane_needs = lane
    expected, steps = _reference_walk(kernel, dtmc, pi_inf, lane_needs)
    assert sweep.steps == steps
    for need, (d, k_ss) in zip(needs, expected):
        assert need.k_ss == k_ss
        assert need.d.shape == d.shape
        assert np.array_equal(need.d, d)


@functools.cache
def _sweep_lanes(seed):
    """One lane per model of the sweep's scenarios: two fixed needs, a
    detector that fires on its way and one that never fires, with
    horizons that differ from lane to lane."""
    models: dict = {}
    for s in generate_scenarios(seed=seed, random_count=4,
                                measures=(Measure.TRR, Measure.MRR)):
        models.setdefault(s.name.split("/")[0], s)
    lanes = []
    for i, scenario in enumerate(models.values()):
        model, rewards = scenario.build()
        kernel = UniformizationKernel.from_model(model)
        dtmc, n = kernel.dtmc, model.n_states
        pi_inf = (stationary_distribution(dtmc) if model.is_irreducible()
                  else np.full(n, 1.0 / n))
        r = rewards.rates
        r2 = 0.5 * r + np.linspace(0.0, 1.0, n)
        horizon = 60 + (37 * i) % 200
        fires_at = (13 * i) % horizon
        delta = _distances(kernel, dtmc, pi_inf, fires_at + 1)[fires_at]
        lanes.append((kernel, dtmc, pi_inf, [
            (r, horizon, None),
            (r2, horizon // 3 + 1, None),
            (r, horizon + 25, delta),
            (r2, horizon + 40, -1.0),  # a distance is never negative
        ]))
    assert len(lanes) == 24
    return lanes


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("width", [1, 3, 8])
@pytest.mark.parametrize("rows", [1, 2, 63, 64, 65])
def test_stacked_walk_matches_per_level_reference(monkeypatch, seed, width,
                                                  rows):
    monkeypatch.setattr(sweep_module, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(sweep_module, "_BLOCK_FLOATS", 1 << 30)
    lanes = _sweep_lanes(seed)
    sweeps, needs = _walked(lanes)
    for first in range(0, len(lanes), width):
        walk(sweeps[first:first + width])
    ends = set()
    for lane, sweep, lane_needs in zip(lanes, sweeps, needs):
        _assert_walk_matches(lane, sweep, lane_needs)
        ends.add(sweep.steps)
    assert len(ends) > 1  # lanes end at different levels


@pytest.mark.parametrize("rows", [1, 2, 63, 64, 65])
def test_detection_mid_block_on_last_row_and_never(monkeypatch, bound, rows):
    monkeypatch.setattr(sweep_module, "_BLOCK_ROWS", rows)
    sweep, kernel, dtmc, model = bound
    assert sweep_module._block_rows(model.n_states) == rows
    pi_inf = stationary_distribution(dtmc)
    horizon = 3 * rows + 5
    dist = _distances(kernel, dtmc, pi_inf, horizon)
    r = np.linspace(0.0, 3.0, model.n_states)
    last_row, mid_block = rows - 1, rows + rows // 2
    lane = (kernel, dtmc, pi_inf, [
        (r, horizon, None),
        (r, horizon, dist[last_row]),
        (r, horizon, dist[mid_block]),
        (r, horizon + 7, -1.0),
    ])
    expected, _ = _reference_walk(*lane)
    assert [k for _, k in expected] == [None, last_row + 1, mid_block + 1,
                                        None]
    (sweep,), (needs,) = _walked([lane])
    walk([sweep])
    _assert_walk_matches(lane, sweep, needs)


@pytest.mark.parametrize("rows", [2, 64])
def test_no_level_past_detection(monkeypatch, bound, rows):
    # Only a detector asks for levels, so the walk goes one level per
    # block and stops at k_ss, not at the end of a block.
    monkeypatch.setattr(sweep_module, "_BLOCK_ROWS", rows)
    sweep, kernel, dtmc, model = bound
    sweep.pi_inf = stationary_distribution(dtmc)
    fires_at = rows + 3
    delta = _distances(kernel, dtmc, sweep.pi_inf, fires_at + 1)[fires_at]
    need = sweep.need(np.ones(model.n_states), 10 * rows, delta)
    before = kernel.steps_done
    sweep.run()
    assert need.k_ss == fires_at + 1
    assert kernel.steps_done - before == sweep.steps == fires_at


def test_block_rows_rule():
    assert sweep_module._block_rows(5) == 64
    assert sweep_module._block_rows(2048) == 64
    assert sweep_module._block_rows(5521) == 23
    assert sweep_module._block_rows(20641) == 6
    assert sweep_module._block_rows(1 << 18) == 1


def test_one_lane_stack_steps_its_own_kernel(bound):
    sweep, kernel, _, model = bound
    assert UniformizationKernel.stack([kernel]) is kernel
    sweep.need(np.linspace(0.0, 1.0, model.n_states), 150)
    built, before = kernel_build_count(), kernel.steps_done
    walk([sweep])
    assert kernel.steps_done - before == sweep.steps == 149
    assert kernel_build_count() == built


def test_stacked_lanes_leave_their_kernels_alone():
    lanes = _sweep_lanes(1)[:3]
    sweeps, _ = _walked(lanes)
    built = kernel_build_count()
    before = [lane[0].steps_done for lane in lanes]
    walk(sweeps)
    assert [lane[0].steps_done for lane in lanes] == before
    assert kernel_build_count() == built


def test_stacks_hold_at_most_2048_states_and_big_lanes_alone():
    def lane(n):
        sweep = PiSweep()
        sweep.kernel = UniformizationKernel(sparse.identity(n))
        sweep.need(np.ones(n), 1)
        return sweep

    sizes = [700, 700, 600, 60, 5521, 20, 20641, 2048, 1, 3]
    stacks = sweep_module._stacks([lane(n) for n in sizes])
    assert [[s.kernel.n_states for s in stack] for stack in stacks] == [
        [700, 700, 600], [5521], [20641], [60, 20], [2048], [1, 3]]


def test_lanes_without_needs_are_not_walked(bound):
    sweep, kernel, _, _ = bound
    assert sweep_module._stacks([sweep]) == []
    walk([sweep])
    assert kernel.steps_done == 0


def test_failing_lane_leaves_stack_mates_alone():
    good = MODELS["bd-3-n15"]
    model, rewards = good[0].build()
    cell = SolveCell(rewards=rewards, measure=Measure.TRR,
                     times=good[0].times, eps=good[0].eps)
    absorbing = random_ctmc(6, density=0.5, seed=2, absorbing=1)
    bad_cell = SolveCell(rewards=RewardStructure(np.ones(6)),
                         measure=Measure.TRR, times=(1.0,), eps=1e-9)
    jobs = [(get_solver("SR"), cell), (get_solver("RSD"), cell)]
    alone = solve_shared(model, jobs)
    results = solve_stacked([(absorbing, [(get_solver("SR"), bad_cell),
                                          (get_solver("RSD"), bad_cell)]),
                             (model, jobs)])
    assert isinstance(results[0], ModelError)
    for got, solo in zip(results[1], alone):
        _assert_same(got, solo)
        assert got.stats == solo.stats
