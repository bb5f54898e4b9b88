"""Cross-cell schedule memoization: RR/RRL cells sharing ``(model,
rewards, regenerative state, rate)`` must build the transformation once
per cache — bit-for-bit identical to cold builds — and the planner must
inject the per-worker cache exactly for schedule-memoizable methods."""

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.planner import SolveRequest, worker_cache_clear
from repro.batch.scenarios import Scenario
from repro.cache import cache_stats, clear_caches
from repro.core.schedule_cache import (
    ScheduleCache,
    process_schedule_cache,
    process_schedule_cache_info,
)
from repro.markov.rewards import Measure, RewardStructure
from repro.service import SolveService
from tests.conftest import assert_bit_identical, direct_solve

EPS = 1e-10


def _scenario(n=40, birth=1.0, death=2.5, times=(0.5, 5.0, 50.0)):
    return Scenario(name="bd-memo", family="birth_death",
                    params={"n": n, "birth": birth, "death": death},
                    times=tuple(times), eps=EPS)


@pytest.fixture()
def model_rewards():
    return _scenario().build()


class TestScheduleCache:
    def test_hit_on_shared_identity(self, model_rewards):
        model, rewards = model_rewards
        cache = ScheduleCache()
        setup1, hit1 = cache.setup_for(model, rewards)
        setup2, hit2 = cache.setup_for(model, rewards)
        assert (hit1, hit2) == (False, True)
        assert setup2 is setup1
        assert cache.info()["hits"] == 1
        assert cache.info()["misses"] == 1

    def test_default_and_explicit_defaults_share_one_entry(
            self, model_rewards):
        model, rewards = model_rewards
        from repro.core._setup import default_regenerative_state

        cache = ScheduleCache()
        _, hit1 = cache.setup_for(model, rewards, None, None)
        _, hit2 = cache.setup_for(model, rewards,
                                  default_regenerative_state(model),
                                  model.max_output_rate)
        assert not hit1 and hit2
        assert len(cache) == 1

    def test_distinct_identities_get_distinct_entries(self, model_rewards):
        model, rewards = model_rewards
        cache = ScheduleCache()
        cache.setup_for(model, rewards)
        _, hit = cache.setup_for(model, rewards, regenerative=1)
        assert not hit
        _, hit = cache.setup_for(model, rewards,
                                 rate=2.0 * model.max_output_rate)
        assert not hit
        other_rewards = RewardStructure(0.5 * rewards.rates)
        _, hit = cache.setup_for(model, other_rewards)
        assert not hit
        assert len(cache) == 4

    def test_lru_eviction(self, model_rewards):
        model, rewards = model_rewards
        cache = ScheduleCache(max_entries=2)
        cache.setup_for(model, rewards, regenerative=0)
        cache.setup_for(model, rewards, regenerative=1)
        cache.setup_for(model, rewards, regenerative=2)
        assert len(cache) == 2
        _, hit = cache.setup_for(model, rewards, regenerative=0)
        assert not hit  # evicted as least-recently-used

    @pytest.mark.parametrize("method", ["RR", "RRL"])
    def test_warm_solve_is_bit_identical(self, model_rewards, method):
        model, rewards = model_rewards
        cache = ScheduleCache()
        cold = get_solver(method).solve(model, rewards, Measure.TRR,
                                        [0.5, 5.0, 50.0], EPS)
        # Warm the cache with a *different* horizon set, then solve the
        # original grid against the shared (and already further-extended)
        # builders: prefix stability must make it bit-identical.
        get_solver(method).solve(model, rewards, Measure.TRR, [200.0],
                                 EPS, schedule_cache=cache)
        warm = get_solver(method).solve(model, rewards, Measure.TRR,
                                        [0.5, 5.0, 50.0], EPS,
                                        schedule_cache=cache)
        assert np.array_equal(warm.values, cold.values)
        assert np.array_equal(warm.steps, cold.steps)
        assert warm.stats["schedule_cache_hit"] is True
        assert warm.stats["transformation_steps_reused"] > 0
        # The 200h warm-up extended past everything this grid needs.
        assert warm.stats["transformation_steps"] == 0
        assert "schedule_cache_hit" not in cold.stats

    def test_rr_and_rrl_share_one_transformation(self, model_rewards):
        model, rewards = model_rewards
        cache = ScheduleCache()
        rrl = get_solver("RRL").solve(model, rewards, Measure.TRR, [5.0],
                                      EPS, schedule_cache=cache)
        rr = get_solver("RR").solve(model, rewards, Measure.TRR, [5.0],
                                    EPS, schedule_cache=cache)
        assert rrl.stats["schedule_cache_hit"] is False
        assert rr.stats["schedule_cache_hit"] is True
        assert cache.info()["misses"] == 1
        # Same transformation ⇒ same truncation ⇒ same step counts.
        assert np.array_equal(rr.steps, rrl.steps)

    def test_solution_phase_knobs_do_not_fragment(self, model_rewards):
        model, rewards = model_rewards
        cache = ScheduleCache()
        get_solver("RRL", t_factor=8.0).solve(
            model, rewards, Measure.TRR, [5.0], EPS, schedule_cache=cache)
        sol = get_solver("RRL", t_factor=4.0).solve(
            model, rewards, Measure.TRR, [5.0], EPS, schedule_cache=cache)
        assert sol.stats["schedule_cache_hit"] is True
        sol = get_solver("RR", inner_max_steps=10**7).solve(
            model, rewards, Measure.TRR, [5.0], EPS, schedule_cache=cache)
        assert sol.stats["schedule_cache_hit"] is True
        assert len(cache) == 1
        # The randomization rate is part of the transformation.
        sol = get_solver("RRL", rate=2.0 * model.max_output_rate).solve(
            model, rewards, Measure.TRR, [5.0], EPS, schedule_cache=cache)
        assert sol.stats["schedule_cache_hit"] is False
        assert len(cache) == 2


class TestPlannerIntegration:
    def _grid(self):
        """RR/RRL cells sharing one model: different methods, horizons,
        eps and solution-phase knobs — one transformation for all."""
        s = _scenario()
        cells = [
            SolveRequest(scenario=s, measure=Measure.TRR, times=(0.5, 5.0),
                         eps=EPS, method="RRL", key=0),
            SolveRequest(scenario=s, measure=Measure.TRR, times=(50.0,),
                         eps=EPS * 0.1, method="RRL", key=1),
            SolveRequest(scenario=s, measure=Measure.MRR, times=(5.0,),
                         eps=EPS, method="RRL",
                         solver_kwargs={"t_factor": 4.0}, key=2),
            SolveRequest(scenario=s, measure=Measure.TRR, times=(5.0,),
                         eps=EPS, method="RR", key=3),
        ]
        return cells

    def test_cold_service_counts_schedule_builds(self):
        # All four cells (RRL × horizons/eps/t_factor + RR) share one
        # transformation: the cache key carries no method and no
        # solution-phase knob.
        clear_caches()
        SolveService(backend="serial").solve(self._grid())
        assert cache_stats()["schedules"]["misses"] == 1
        # A distinct regenerative state is a genuine second build.
        s = _scenario()
        extra = SolveRequest(scenario=s, measure=Measure.TRR,
                             times=(5.0,), eps=EPS, method="RRL",
                             solver_kwargs={"regenerative": 1}, key=9)
        clear_caches()
        SolveService(backend="serial").solve(self._grid() + [extra])
        assert cache_stats()["schedules"]["misses"] == 2

    def test_grid_builds_transformation_exactly_once(self):
        clear_caches()
        outs = SolveService().solve(self._grid())
        assert all(o.ok for o in outs)
        info = process_schedule_cache_info()
        assert info["misses"] == 1, info
        assert info["hits"] == len(self._grid()) - 1, info
        hits = [o.value.stats["schedule_cache_hit"] for o in outs]
        assert hits == [False, True, True, True]
        # Warm cells only extend: the steps charged across the grid are
        # one build to the deepest cell, not a rebuild per cell.
        stats = [o.value.stats for o in outs]
        assert sum(st["transformation_steps"] for st in stats) == max(
            st["transformation_steps"] + st["transformation_steps_reused"]
            for st in stats)

    def test_memoized_equals_direct_bitwise(self):
        clear_caches()
        memoized = SolveService().solve(self._grid())
        clear_caches()
        direct = [direct_solve(req) for req in self._grid()]
        assert process_schedule_cache_info()["misses"] == 0
        for got, want in zip(memoized, direct):
            assert got.ok
            assert_bit_identical(got.value, want)
        # A direct solve never touches the cache and leaves no stats flag.
        assert "schedule_cache_hit" not in direct[0].stats

    def test_unmemoizable_methods_never_touch_the_cache(self):
        clear_caches()
        s = _scenario()
        outs = SolveService().solve([
            SolveRequest(scenario=s, measure=Measure.TRR, times=(5.0,),
                         eps=EPS, method="SR", key=0),
            SolveRequest(scenario=s, measure=Measure.TRR, times=(5.0,),
                         eps=EPS, method="RSD", key=1),
        ])
        assert all(o.ok for o in outs)
        info = process_schedule_cache_info()
        assert info["misses"] == 0 and info["hits"] == 0

    def test_worker_cache_clear_also_clears_schedule_cache(self):
        clear_caches()
        SolveService().solve(self._grid()[:1])
        assert len(process_schedule_cache()) == 1
        worker_cache_clear()
        assert len(process_schedule_cache()) == 0
        assert process_schedule_cache_info()["misses"] == 0
