"""``SolveService`` facade: planned == direct solves, correct
scatter/ordering for mixed workloads, and pool plumbing."""

import numpy as np
import pytest

from repro.batch.planner import SolveRequest
from repro.batch.runner import BatchExecutionError, BatchTask
from repro.batch.scenarios import Scenario
from repro.cache import cache_stats, clear_caches
from repro.markov.base import TransientSolution
from repro.markov.rewards import Measure
from repro.service import ServiceResult, SolveService
from tests.conftest import assert_bit_identical, direct_solve


def _scenario(name="svc-bd", n=8, birth=0.5, death=1.5):
    return Scenario(name=name, family="birth_death",
                    params={"n": n, "birth": birth, "death": death},
                    times=(0.5, 2.0), eps=1e-8)


def _requests():
    s = _scenario()
    out = []
    for i, method in enumerate(("SR", "SR", "RSD", "RRL", "RR")):
        out.append(SolveRequest(scenario=s, measure=Measure.TRR,
                                times=s.times, eps=1e-8 * 10.0 ** -(i % 2),
                                method=method, key=(method, i)))
    return out


def _passthrough(tag):
    return tag * 2


class TestFacadeEquivalence:
    def test_bit_identical_to_direct_solver(self):
        # Neither the fusion plan nor the cross-cell caches may change a
        # number: every cell equals its registry solver called directly.
        # The two SR cells and RSD share one stepping sweep; RR shares
        # RRL's schedules through the worker's schedule cache.
        requests = _requests()
        service = SolveService()
        plan = service.plan(requests)
        assert plan.fused_cells == 3
        clear_caches()
        via_service = service.solve(requests)
        assert cache_stats()["schedules"]["misses"] == 1
        assert [o.key for o in via_service] == [r.key for r in requests]
        for out, req in zip(via_service, requests):
            assert out.ok
            assert_bit_identical(out.value, direct_solve(req))


class TestMixedWorkload:
    def test_execute_separates_requests_and_tasks(self):
        requests = _requests()
        tasks = [BatchTask(fn=_passthrough, args=("x",), key="t0"),
                 BatchTask(fn=_passthrough, args=("y",), key="t1")]
        result = SolveService().execute(requests, tasks)
        assert isinstance(result, ServiceResult)
        assert [o.key for o in result.outcomes] \
            == [r.key for r in requests]
        assert [o.key for o in result.task_outcomes] == ["t0", "t1"]
        assert [o.value for o in result.task_outcomes] == ["xx", "yy"]
        assert result.all_outcomes \
            == result.outcomes + result.task_outcomes
        assert result.plan.n_requests == len(requests)

    def test_solutions_unwraps_in_order(self):
        result = SolveService().execute(_requests())
        sols = result.solutions()
        assert all(isinstance(s, TransientSolution) for s in sols)

    def test_solutions_raises_on_failure(self):
        bad = SolveRequest(scenario=_scenario(), measure=Measure.TRR,
                           times=(0.5,), eps=1e-8, method="SR",
                           solver_kwargs={"max_steps": 2}, key="doomed")
        result = SolveService().execute([bad])
        assert not result.outcomes[0].ok
        assert result.outcomes[0].error_type == "TruncationError"
        with pytest.raises(BatchExecutionError, match="TruncationError"):
            result.solutions()


class TestConfigurationPlumbing:
    def test_solve_one(self):
        request = _requests()[0]
        sol = SolveService().solve_one(request)
        assert isinstance(sol, TransientSolution)
        assert sol.method == "SR"

    def test_plan_summary(self):
        plan = SolveService().plan(_requests())
        assert plan.summary() == ("5 requests -> 3 tasks (1 fused "
                                  "covering 3 cells, 0 coalesced)")

    @pytest.mark.parametrize("knob", ["fuse", "memoize"])
    def test_policy_knobs_are_gone(self, knob):
        # Batch work has one execution path; there is nothing to switch.
        from repro.analysis.experiments import ExperimentConfig

        with pytest.raises(TypeError):
            SolveService(**{knob: False})
        with pytest.raises(TypeError):
            ExperimentConfig.quick(**{knob: False})

    def test_pooled_matches_inline(self):
        requests = _requests()
        inline = SolveService(workers=1).solve(requests)
        pooled = SolveService(workers=2).solve(requests)
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert np.array_equal(a.value.values, b.value.values)


class TestExperimentsIntegration:
    def test_config_service_carries_pool_shape(self):
        from repro.analysis.experiments import ExperimentConfig

        cfg = ExperimentConfig(groups=(2,), times=(1.0,), workers=2,
                               backend="processes")
        assert cfg.service().workers == 2

    def test_quick_preset(self):
        from repro.analysis.experiments import ExperimentConfig

        cfg = ExperimentConfig.quick()
        assert cfg.groups == (2, 3)
        assert cfg.eps == 1e-10
