"""Unit tests for the model-fused execution planner: request identity,
plan shape (fusion groups, coalescing), scatter bookkeeping, per-worker
caching, failure isolation and the bit-for-bit planned == direct
promise."""

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.kernel import UniformizationKernel, kernel_build_count
from repro.batch.planner import (
    SolveRequest,
    model_fingerprint,
    plan_requests,
    run_request,
    worker_cache_info,
)
from repro.batch.runner import run_tasks
from repro.batch.scenarios import (
    Scenario,
    generate_scenarios,
    scenario_requests,
)
from repro.cache import clear_caches
from repro.exceptions import UnknownMethodError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.service import SolveService
from tests.conftest import assert_bit_identical, direct_solve


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
    def test_requires_a_scenario(self):
        # A scenario is the only way a request names its model.
        model = CTMC(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        rewards = RewardStructure.indicator(2, [1])
        with pytest.raises(TypeError, match="scenario"):
            SolveRequest(measure=Measure.TRR, times=(1.0,))
        with pytest.raises(TypeError, match="model"):
            SolveRequest(measure=Measure.TRR, times=(1.0,), model=model,
                         rewards=rewards, scenario=_bd_scenario())
        with pytest.raises(TypeError, match="rewards"):
            SolveRequest(measure=Measure.TRR, times=(1.0,),
                         rewards=rewards, scenario=_bd_scenario())

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
        fused = plan.assignments[plan.kinds.index("walk")]
        assert sorted(idx for slot in fused for idx in slot) == [0, 1]

    def test_tasks_are_window_major(self):
        # Model A's RRL cell comes after model B's in the requests. The
        # window's lanes (A's and B's SR+RSD cells) run first as one
        # task; then each model's other cells, model by model, stable
        # within a model; C's lone SR cell has no lane to join.
        a_sr, a_rrl, a_rsd = (_request(method=m, key=f"a-{m.lower()}")
                              for m in ("SR", "RRL", "RSD"))
        b_sr, b_rrl, b_rsd = (_request(method=m, n=9, key=f"b-{m.lower()}")
                              for m in ("SR", "RRL", "RSD"))
        c_sr = _request(method="SR", n=10, key="c-sr")
        reqs = [a_sr, b_sr, b_rrl, a_rrl, a_rsd, b_rsd, c_sr]
        plan = plan_requests(reqs)
        order = [[plan.requests[i].key for slot in slots for i in slot]
                 for slots in plan.assignments]
        assert order == [["a-sr", "a-rsd", "b-sr", "b-rsd"], ["a-rrl"],
                         ["b-rrl"], ["c-sr"]]
        assert plan.kinds == ["walk", "single", "single", "single"]
        outs = SolveService().solve(reqs)
        assert [o.key for o in outs] == ["a-sr", "b-sr", "b-rrl", "a-rrl",
                                         "a-rsd", "b-rsd", "c-sr"]

    def test_window_major_order_keeps_models_cached(self):
        # More models than the worker LRU holds, each asked for by SR
        # and RSD cells and, much later, an RRL cell: two windows, and
        # every model is built once.
        clear_caches()
        sizes = range(4, 14)
        reqs = ([_request(method=m, n=n, key=(m, n))
                 for m in ("SR", "RSD") for n in sizes]
                + [_request(method="RRL", n=n, key=("RRL", n))
                   for n in sizes])
        plan = plan_requests(reqs)
        order = [[plan.requests[i].key for slot in slots for i in slot]
                 for slots in plan.assignments]
        first, second = list(sizes)[:8], list(sizes)[8:]
        assert order == (
            [[(m, n) for n in first for m in ("SR", "RSD")]]
            + [[("RRL", n)] for n in first]
            + [[(m, n) for n in second for m in ("SR", "RSD")]]
            + [[("RRL", n)] for n in second])
        outs = SolveService().solve(reqs)
        assert all(o.ok for o in outs)
        assert worker_cache_info()["misses"] == len(sizes)

    def test_coalesces_identical_requests(self):
        reqs = [_request(key="x"), _request(key="y"), _request(key="z")]
        plan = plan_requests(reqs)
        assert plan.n_tasks == 1
        assert plan.coalesced == 2
        # One solve fans out to all three keys.
        outs = plan.scatter(run_tasks(plan.tasks))
        assert [o.key for o in outs] == ["x", "y", "z"]
        assert np.array_equal(outs[0].value.values, outs[1].value.values)

    def test_summary_mentions_shape(self):
        plan = plan_requests([_request(eps=1e-6), _request(eps=1e-8)])
        assert "2 requests" in plan.summary()
        assert "1 fused" in plan.summary()


class TestExecution:
    @pytest.mark.parametrize("method", ["SR", "RSD"])
    def test_fused_equals_direct_bitwise(self, method):
        reqs = [_request(method=method, eps=eps, key=eps)
                for eps in (1e-6, 1e-8, 1e-10)]
        fused = SolveService().solve(reqs)
        for out, req in zip(fused, reqs):
            direct = direct_solve(req)
            assert out.ok
            assert_bit_identical(out.value, direct)
            assert out.value.stats["fused_width"] == 3
            assert "fused_width" not in direct.stats

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_method_and_measure_equals_direct_bitwise(self,
                                                             workers):
        # Every cell of one cached model steps the model's own kernel,
        # inline and on a pool; each equals a solve on a fresh model.
        scenario = _bd_scenario(n=3, birth=0.7, death=2.0)
        reqs = [SolveRequest(scenario=scenario, measure=measure,
                             times=(0.5, 3.0), eps=1e-9, method=method,
                             key=(method, measure.value))
                for method in ("SR", "RSD", "RR", "RRL")
                for measure in Measure]
        outs = SolveService(workers=workers).solve(reqs)
        assert [o.key for o in outs] == [r.key for r in reqs]
        for out, req in zip(outs, reqs):
            assert out.ok, out.error
            assert_bit_identical(out.value, direct_solve(req))

    def test_solutions_unwrap(self):
        sols = SolveService().execute(
            [_request(eps=1e-8), _request(method="RRL")]).solutions()
        assert len(sols) == 2
        assert sols[0].method == "SR"
        assert sols[1].method == "RRL"

    def test_unknown_method_rejected_at_construction(self):
        # Since the solver registry became the dispatch authority, a bad
        # method tag fails when the request is *built* (with the known-
        # method list), not deep inside a worker. UnknownMethodError
        # subclasses ValueError for pre-registry callers.
        with pytest.raises(UnknownMethodError, match="unknown method"):
            _request(method="FFT")
        with pytest.raises(ValueError, match="known methods"):
            _request(method="FFT")


#: A small RAID-5 reliability model (13 states, FAILED absorbing).
_ABSORBING = Scenario(name="raid5-G1-relia", family="raid5",
                      params={"groups": 1, "spare_disks": 0,
                              "spare_controllers": 1,
                              "kind": "reliability"})


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
        model, rewards = _ABSORBING.build()

        def req(method, measure, key):
            return SolveRequest(scenario=_ABSORBING,
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


    def test_reducible_rsd_lane_fails_alone_in_a_stack(self):
        # The absorbing model's lane shares a window and a stack with two
        # healthy lanes: its RSD cell fails with ModelError, its SR cells
        # match their standalone solves, and its stack-mates match the
        # same window without it, stats included.
        model, rewards = _ABSORBING.build()
        bad = [SolveRequest(scenario=_ABSORBING, measure=measure,
                            times=(0.5, 3.0), eps=1e-9, method=method,
                            key=(method, measure.value))
               for method, measure in (("SR", Measure.TRR),
                                       ("RSD", Measure.TRR),
                                       ("SR", Measure.MRR))]
        mates = [_request(method=m, n=n, key=(m, n))
                 for n in (7, 11) for m in ("SR", "RSD")]
        plan = plan_requests(mates[:2] + bad + mates[2:])
        assert plan.n_tasks == 1 and plan.fused_cells == 7
        outs = SolveService().solve(mates[:2] + bad + mates[2:])
        assert [o.ok for o in outs] == [True, True, True, False, True,
                                        True, True]
        assert outs[3].error_type == "ModelError"
        for out, r in zip((outs[2], outs[4]), (bad[0], bad[2])):
            solo = get_solver("SR").solve(model, rewards, r.measure,
                                          list(r.times), r.eps)
            assert np.array_equal(out.value.values, solo.values)
            assert np.array_equal(out.value.steps, solo.steps)
        without = SolveService().solve(mates)
        for got, want in zip(outs[:2] + outs[5:], without):
            assert np.array_equal(got.value.values, want.value.values)
            assert np.array_equal(got.value.steps, want.value.steps)
            assert got.value.stats == want.value.stats


class TestWorkerCache:
    def test_kernel_built_once_per_model(self, monkeypatch):
        clear_caches()
        # Methods that do not stack, so every cell runs unfused.
        reqs = [_request(method=m, eps=e, key=(m, e))
                for m in ("RRL", "RR") for e in (1e-6, 1e-7, 1e-8)]
        assert plan_requests(reqs).fused_tasks == 0
        built = []
        from_model = UniformizationKernel.from_model

        def spy(model, *args, **kwargs):
            built.append(model.content_digest())
            return from_model(model, *args, **kwargs)

        monkeypatch.setattr(UniformizationKernel, "from_model",
                            staticmethod(spy))
        outs = SolveService().solve(reqs)
        assert all(o.ok for o in outs)
        # Six unfused cells over one model: exactly one kernel build for
        # it (RR's inner solves uniformize their own truncated models).
        model, _ = reqs[0].resolve()
        assert built.count(model.content_digest()) == 1
        info = worker_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == len(reqs) - 1

    def test_fused_cells_build_the_kernel_once(self):
        clear_caches()
        reqs = [_request(method=m, eps=e, key=(m, e))
                for m in ("SR", "RSD", "RRL") for e in (1e-6, 1e-8)]
        before = kernel_build_count()
        outs = SolveService().solve(reqs)
        assert all(o.ok for o in outs)
        assert kernel_build_count() - before == 1
        assert worker_cache_info()["misses"] == 1

    def test_cache_serves_scenario_default_rewards(self):
        clear_caches()
        sol = run_request(_request())
        assert sol.method == "SR"
        assert worker_cache_info()["size"] == 1


def _sweep_requests(seed):
    """The scenario sweep's cells: SR and, on the raid5 and
    multiprocessor models, RRL on every scenario; RSD where the model is
    irreducible."""
    reqs = []
    for s in generate_scenarios(seed=seed, random_count=4,
                                measures=(Measure.TRR, Measure.MRR)):
        methods = ["SR"]
        if s.family in ("raid5", "multiprocessor"):
            methods.append("RRL")
        if s.params.get("kind") != "reliability":
            methods.append("RSD")
        reqs += [SolveRequest(scenario=s, measure=s.measure, times=s.times,
                              eps=s.eps, method=m, key=(s.name, m))
                 for m in methods]
    return reqs


class _Spies:
    """Counts ``Scenario.build`` per model and records the lane sizes of
    every stack a walk steps."""

    def __init__(self, monkeypatch):
        self.builds: dict = {}
        self.stacks: list[list[int]] = []
        build, stack = Scenario.build, UniformizationKernel.stack.__func__

        def counted_build(scenario):
            key = (scenario.family, tuple(sorted(scenario.params.items())))
            self.builds[key] = self.builds.get(key, 0) + 1
            return build(scenario)

        def recorded_stack(cls, kernels):
            self.stacks.append([k.n_states for k in kernels])
            return stack(cls, kernels)

        monkeypatch.setattr(Scenario, "build", counted_build)
        monkeypatch.setattr(UniformizationKernel, "stack",
                            classmethod(recorded_stack))


@pytest.fixture(scope="module")
def cold_sweep():
    """One cold serial run of the sweep's cells at seed 1, spied on."""
    with pytest.MonkeyPatch.context() as mp:
        spies = _Spies(mp)
        clear_caches()
        result = SolveService(backend="serial").execute(_sweep_requests(1))
    return result, spies


class TestWindows:
    def test_windows_hold_at_most_8_models_and_stacks_2048_states(
            self, cold_sweep):
        result, spies = cold_sweep
        plan = result.plan
        assert all(o.ok for o in result.outcomes)
        windows = [{model_fingerprint(plan.requests[slot[0]])
                    for slot in slots}
                   for slots, kind in zip(plan.assignments, plan.kinds)
                   if kind == "walk"]
        assert [len(w) for w in windows] == [8, 8, 8]
        # Every SR and RSD cell rides in a window. The 16 raid5 RRL
        # cells run as 4 variant groups (each model's availability and
        # reliability variant, TRR and MRR); the 16 multiprocessor RRL
        # cells run alone: 3 walks + 4 groups + 16 cells.
        assert plan.fused_cells == 80 and plan.n_tasks == 23
        assert plan.twin_tasks == 4
        assert spies.stacks and all(sum(sizes) <= 2048
                                    for sizes in spies.stacks)

    def test_cold_serial_sweep_builds_each_model_once(self, cold_sweep):
        _, spies = cold_sweep
        assert len(spies.builds) == 24
        assert set(spies.builds.values()) == {1}

    def test_paper_size_models_never_share_a_stack(self, monkeypatch):
        spies = _Spies(monkeypatch)
        reqs = [_request(method="SR", n=n, measure=measure,
                         times=(0.5,), key=(n, measure.value))
                for n in (12, 2100, 30, 5521, 9)
                for measure in (Measure.TRR, Measure.MRR)]
        plan = plan_requests(reqs)
        assert plan.n_tasks == 1 and plan.fused_cells == len(reqs)
        outs = SolveService().solve(reqs)
        assert all(o.ok for o in outs)
        # One window; the big lanes walk alone, the small ones together.
        assert spies.stacks == [[2100], [5521], [12, 30, 9]]
        for out, req in zip(outs, reqs):
            model, rewards = req.resolve()
            solo = get_solver("SR").solve(model, rewards, req.measure,
                                          list(req.times), req.eps)
            assert np.array_equal(out.value.values, solo.values)
