"""Unit tests for the model-fused execution planner: request identity,
plan shape (fusion groups, coalescing), scatter bookkeeping, per-worker
caching, failure isolation and the bit-for-bit fused == unfused promise."""

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.kernel import kernel_build_count
from repro.batch.planner import (
    SolveRequest,
    model_fingerprint,
    plan_requests,
    run_request,
    worker_cache_clear,
    worker_cache_info,
)
from repro.batch.runner import BatchRunner
from repro.batch.scenarios import (
    Scenario,
    generate_scenarios,
    scenario_requests,
    solve_scenarios,
)
from repro.exceptions import ModelError, UnknownMethodError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.service import SolveService


def _bd_scenario(name="bd", n=8, birth=0.5, death=1.5, times=(0.5, 2.0),
                 eps=1e-8, measure=Measure.TRR):
    return Scenario(name=name, family="birth_death",
                    params={"n": n, "birth": birth, "death": death},
                    measure=measure, times=times, eps=eps)


def _request(method="SR", eps=1e-8, times=(0.5, 2.0),
             measure=Measure.TRR, key=None, **scenario_kwargs):
    scenario = _bd_scenario(times=times, eps=eps, **scenario_kwargs)
    return SolveRequest(scenario=scenario, measure=measure, times=times,
                        eps=eps, method=method,
                        key=key or (scenario.name, method, eps))


class TestSolveRequest:
    def test_requires_exactly_one_model_source(self):
        model = CTMC(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        rewards = RewardStructure.indicator(2, [1])
        with pytest.raises(ModelError, match="exactly one"):
            SolveRequest(measure=Measure.TRR, times=(1.0,))
        with pytest.raises(ModelError, match="exactly one"):
            SolveRequest(measure=Measure.TRR, times=(1.0,), model=model,
                         rewards=rewards, scenario=_bd_scenario())

    def test_model_backed_needs_rewards(self):
        model = CTMC(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        with pytest.raises(ModelError, match="rewards"):
            SolveRequest(measure=Measure.TRR, times=(1.0,), model=model)

    def test_normalization(self):
        req = _request(method="sr", times=[1, 10])
        assert req.method == "SR"
        assert req.times == (1.0, 10.0)

    def test_resolve_scenario_default_rewards(self):
        req = _request()
        model, rewards = req.resolve()
        assert rewards.n_states == model.n_states

    def test_hashable_transport_shape(self):
        # The request is the future job-queue's unit of work: it must be
        # usable as a set member / dict key despite the dict field.
        a = _request(key="a")
        b = _request(key="a")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: 1}[b] == 1


class TestFingerprints:
    def test_same_scenario_same_fingerprint(self):
        assert model_fingerprint(_request(eps=1e-8)) == \
            model_fingerprint(_request(eps=1e-10, method="RSD"))

    def test_different_params_different_fingerprint(self):
        assert model_fingerprint(_request(n=8)) != \
            model_fingerprint(_request(n=9))

    def test_live_model_fingerprint_is_content_based(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        rewards = RewardStructure.indicator(2, [1])
        a = SolveRequest(measure=Measure.TRR, times=(1.0,), model=CTMC(q),
                         rewards=rewards)
        b = SolveRequest(measure=Measure.TRR, times=(1.0,), model=CTMC(q),
                         rewards=rewards)
        c = SolveRequest(measure=Measure.TRR, times=(1.0,),
                         model=CTMC(2.0 * q), rewards=rewards)
        assert model_fingerprint(a) == model_fingerprint(b)
        assert model_fingerprint(a) != model_fingerprint(c)


class TestPlanShape:
    def test_fuses_same_model_same_method(self):
        reqs = [_request(eps=1e-6, key="a"), _request(eps=1e-8, key="b"),
                _request(eps=1e-10, key="c")]
        plan = plan_requests(reqs)
        assert plan.n_tasks == 1
        assert plan.fused_tasks == 1
        assert plan.fused_cells == 3
        # The fused task carries the group's worth of timeout budget.
        assert plan.tasks[0].weight == 3

    def test_fuses_sr_and_rsd_per_model_only(self):
        # SR and RSD on one model share one task (one π_n sweep); RRL and
        # a second model's SR cell stay apart.
        reqs = [_request(method="SR"), _request(method="RSD"),
                _request(method="SR", n=9), _request(method="RRL")]
        plan = plan_requests(reqs)
        assert plan.fused_tasks == 1
        assert plan.fused_cells == 2
        assert plan.n_tasks == 3
        fused = plan.assignments[plan.fused.index(True)]
        assert sorted(idx for slot in fused for idx in slot) == [0, 1]

    def test_tasks_are_model_major(self):
        # Model A's RRL cell comes after model B's in the requests; the
        # plan runs all of A's tasks first, stable within the model.
        a_sr, a_rrl = _request(method="SR", key="a-sr"), \
            _request(method="RRL", key="a-rrl")
        b_sr, b_rrl = _request(method="SR", n=9, key="b-sr"), \
            _request(method="RRL", n=9, key="b-rrl")
        a_rsd = _request(method="RSD", key="a-rsd")
        plan = plan_requests([a_sr, b_sr, b_rrl, a_rrl, a_rsd])
        order = [[plan.requests[i].key for slot in slots for i in slot]
                 for slots in plan.assignments]
        assert order == [["a-sr", "a-rsd"], ["a-rrl"], ["b-sr"],
                         ["b-rrl"]]
        outs = SolveService().solve([a_sr, b_sr, b_rrl, a_rrl, a_rsd])
        assert [o.key for o in outs] == ["a-sr", "b-sr", "b-rrl",
                                         "a-rrl", "a-rsd"]

    def test_model_major_order_keeps_models_cached(self):
        # More models than the worker LRU holds, each asked for by an SR
        # cell and, much later, an RRL cell: every model is built once.
        worker_cache_clear()
        sizes = range(4, 14)
        reqs = ([_request(method="SR", n=n, key=("SR", n)) for n in sizes]
                + [_request(method="RRL", n=n, key=("RRL", n))
                   for n in sizes])
        outs = SolveService().solve(reqs)
        assert all(o.ok for o in outs)
        assert worker_cache_info()["misses"] == len(sizes)

    def test_coalesces_identical_requests(self):
        reqs = [_request(key="x"), _request(key="y"), _request(key="z")]
        plan = plan_requests(reqs)
        assert plan.n_tasks == 1
        assert plan.coalesced == 2
        # One solve fans out to all three keys.
        outs = plan.scatter(BatchRunner(max_workers=1).run(plan.tasks))
        assert [o.key for o in outs] == ["x", "y", "z"]
        assert np.array_equal(outs[0].value.values, outs[1].value.values)

    def test_no_fuse_is_identity_plan(self):
        reqs = [_request(eps=1e-6), _request(eps=1e-8), _request(eps=1e-8)]
        plan = plan_requests(reqs, fuse=False)
        assert plan.n_tasks == 3
        assert plan.fused_tasks == 0
        assert plan.coalesced == 0

    def test_summary_mentions_shape(self):
        plan = plan_requests([_request(eps=1e-6), _request(eps=1e-8)])
        assert "2 requests" in plan.summary()
        assert "1 fused" in plan.summary()


class TestExecution:
    @pytest.mark.parametrize("method", ["SR", "RSD"])
    def test_fused_equals_unfused_bitwise(self, method):
        reqs = [_request(method=method, eps=eps, key=eps)
                for eps in (1e-6, 1e-8, 1e-10)]
        fused = SolveService(fuse=True).solve(reqs)
        unfused = SolveService(fuse=False).solve(reqs)
        for a, b in zip(fused, unfused):
            assert a.ok and b.ok
            assert np.array_equal(a.value.values, b.value.values)
            assert np.array_equal(a.value.steps, b.value.steps)
            assert a.value.stats["fused_width"] == 3
            assert "fused_width" not in b.value.stats

    def test_fused_equals_direct_solver(self):
        req = _request(eps=1e-9)
        (out,) = SolveService().solve([req, _request(eps=1e-7)])[:1]
        model, rewards = req.resolve()
        direct = get_solver("SR").solve(model, rewards, req.measure,
                                        list(req.times), req.eps)
        assert np.array_equal(out.value.values, direct.values)

    def test_pooled_equals_inline(self):
        scens = generate_scenarios(families=("birth_death",), seed=3,
                                   random_count=2, times=(0.5, 2.0),
                                   eps=1e-8,
                                   measures=(Measure.TRR, Measure.MRR))
        reqs = scenario_requests(scens, methods=("SR", "RRL"))
        inline = SolveService(workers=1).solve(reqs)
        pooled = SolveService(workers=2).solve(reqs)
        assert [o.key for o in pooled] == [o.key for o in inline]
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert np.array_equal(a.value.values, b.value.values)

    def test_solutions_unwrap(self):
        sols = SolveService().execute(
            [_request(eps=1e-8), _request(method="RRL")]).solutions()
        assert len(sols) == 2
        assert sols[0].method == "SR"
        assert sols[1].method == "RRL"

    def test_solve_scenarios_convenience(self):
        scens = generate_scenarios(families=("birth_death",), seed=3,
                                   random_count=2, times=(0.5, 2.0),
                                   eps=1e-8)
        outs = solve_scenarios(scens, methods=("RSD",))
        assert [o.key for o in outs] == [(s.name, "RSD") for s in scens]
        assert all(o.ok for o in outs)

    def test_unknown_method_rejected_at_construction(self):
        # Since the solver registry became the dispatch authority, a bad
        # method tag fails when the request is *built* (with the known-
        # method list), not deep inside a worker. UnknownMethodError
        # subclasses ValueError for pre-registry callers.
        with pytest.raises(UnknownMethodError, match="unknown method"):
            _request(method="FFT")
        with pytest.raises(ValueError, match="known methods"):
            _request(method="FFT")


class TestFailureIsolation:
    def test_over_budget_cell_fails_alone_in_fused_group(self):
        # max_steps=1 makes every real solve raise TruncationError; fuse
        # a failing cell with a healthy one via solver_kwargs on only...
        # solver_kwargs differ -> would not fuse. Instead: one cell with
        # a horizon far past the group's budget under shared kwargs.
        kwargs = {"max_steps": 2000}
        good = SolveRequest(scenario=_bd_scenario(times=(0.5,)),
                            measure=Measure.TRR, times=(0.5,), eps=1e-8,
                            method="SR", solver_kwargs=kwargs, key="good")
        bad = SolveRequest(scenario=_bd_scenario(times=(5000.0,)),
                           measure=Measure.TRR, times=(5000.0,), eps=1e-8,
                           method="SR", solver_kwargs=kwargs, key="bad")
        plan = plan_requests([good, bad])
        assert plan.fused_tasks == 1
        outs = SolveService().solve([good, bad])
        assert outs[0].ok is True
        assert outs[1].ok is False
        assert outs[1].error_type == "TruncationError"
        # And the surviving cell's numbers match its standalone solve.
        solo = run_request(good)
        assert np.array_equal(outs[0].value.values, solo.values)

    def test_rsd_on_reducible_model_fails_alone_in_mixed_group(self):
        # One SR+RSD group on an absorbing model: the RSD cell fails with
        # ModelError, its SR siblings still match their standalone solves.
        model = CTMC(np.array([[-1.0, 1.0, 0.0], [2.0, -2.5, 0.5],
                               [0.0, 0.0, 0.0]]))
        rewards = RewardStructure([1.0, 0.5, 0.0])

        def req(method, measure, key):
            return SolveRequest(model=model, rewards=rewards,
                                measure=measure, times=(0.5, 3.0),
                                eps=1e-9, method=method, key=key)

        reqs = [req("SR", Measure.TRR, "sr-trr"),
                req("RSD", Measure.TRR, "rsd"),
                req("SR", Measure.MRR, "sr-mrr")]
        assert plan_requests(reqs).fused_cells == 3
        outs = SolveService().solve(reqs)
        assert [o.ok for o in outs] == [True, False, True]
        assert outs[1].error_type == "ModelError"
        for out, r in zip((outs[0], outs[2]), (reqs[0], reqs[2])):
            solo = get_solver("SR").solve(model, rewards, r.measure,
                                          list(r.times), r.eps)
            assert np.array_equal(out.value.values, solo.values)
            assert np.array_equal(out.value.steps, solo.steps)


class TestWorkerCache:
    def test_kernel_built_once_per_model(self):
        worker_cache_clear()
        reqs = [_request(method=m, eps=e, key=(m, e))
                for m in ("SR", "RSD", "RRL") for e in (1e-6, 1e-8)]
        before = kernel_build_count()
        outs = SolveService(fuse=False).solve(reqs)
        assert all(o.ok for o in outs)
        built = kernel_build_count() - before
        # Six unfused cells over one model: exactly one kernel build.
        assert built == 1
        info = worker_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == len(reqs) - 1

    def test_cache_serves_scenario_default_rewards(self):
        worker_cache_clear()
        sol = run_request(_request())
        assert sol.method == "SR"
        assert worker_cache_info()["size"] == 1
