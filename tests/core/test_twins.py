"""Twin schedules: a reliability chain that only makes states ``D`` of
its availability twin absorbing steps on the twin's products, bit for
bit as each would step alone; every pair the exact check refuses, and
every cell of a twin-group task, still solves as its direct solve."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentConfig,
    grid_solve_requests,
)
from repro.batch.kernel import UniformizationKernel
from repro.batch.planner import (
    SolveRequest,
    plan_requests,
    run_twin_group,
)
from repro.batch.scenarios import Scenario, generate_scenarios
from repro.cache import clear_caches
from repro.core import schedule_cache as schedule_cache_module
from repro.core._setup import link_twins, prepare
from repro.core.rrl_solver import RRLSolver
from repro.core.schedule_cache import ScheduleCache, process_schedule_cache
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.service import SolveService
from tests.conftest import assert_bit_identical, direct_solve

FIELDS = ("a", "c", "qmass", "vmass")


def _raid5(groups, kind, spare_disks=3, times=(1.0, 10.0, 100.0),
           measure=Measure.TRR):
    return Scenario(name=f"raid5-G{groups}-{kind[:5]}", family="raid5",
                    params={"groups": groups, "spare_disks": spare_disks,
                            "spare_controllers": 1, "kind": kind},
                    measure=measure, times=times, eps=1e-10)


def _pair(groups):
    """The (model, rewards) of a raid5 availability/reliability pair."""
    return (_raid5(groups, "availability").build(),
            _raid5(groups, "reliability").build())


def _hand_built(leak=0.0):
    """A 4-state availability chain whose state 3 (D) is repaired to
    the hub 0, and its twin with 3 absorbing; the initial mass is spread
    over 0..2, so both setups have primed builders. ``leak`` adds an arc
    3 -> 1, which a twin may not have."""
    base = [(0, 1, 1.0), (1, 2, 0.7), (1, 0, 2.0), (2, 3, 0.4),
            (2, 1, 3.0), (3, 0, 0.9), (3, 1, leak)]
    twin = [arc for arc in base if arc[0] != 3]
    init = np.array([0.5, 0.3, 0.2, 0.0])
    rewards = RewardStructure([1.0, 0.6, 0.2, 0.0])
    # Equal uniformization rates: the base's largest exit rate is state
    # 2's, which the twin keeps.
    return ((CTMC.from_transitions(4, [a for a in base if a[2] > 0],
                                   initial=init), rewards),
            (CTMC.from_transitions(4, twin, initial=init), rewards))


def _setups(first, second):
    return (prepare(*first, None, None), prepare(*second, None, None))


def _assert_schedules_equal(got, want):
    for name in ("main", "primed"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is None:
            continue
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert snap_a.n == snap_b.n and snap_a.exhausted == snap_b.exhausted
        for field in FIELDS:
            assert np.array_equal(getattr(snap_a, field),
                                  getattr(snap_b, field)), (name, field)


def _is_linked(setup):
    main = setup.main
    return main._twin is not None or main._base is not None


class TestTwinStepping:
    @pytest.mark.parametrize("groups,steps", [(20, 3157), (4, 1500)])
    @pytest.mark.parametrize("first", ["UA", "UR"])
    def test_twin_stepped_schedules_equal_lone_builders(self, groups, steps,
                                                        first):
        ua, ur = _pair(groups)
        linked = _setups(ua, ur)
        assert link_twins((ua[0], linked[0]), (ur[0], linked[1]))
        lone = _setups(ua, ur)
        order = (0, 1) if first == "UA" else (1, 0)
        for i in order:  # the second one finds its steps recorded
            linked[i].main.extend_to(steps)
        for i in order:
            lone[i].main.extend_to(steps)
        for got, want in zip(linked, lone):
            _assert_schedules_equal(got, want)
        # One full product per paired step; the lone pair takes two.
        assert linked[0].main.kernel.steps_done == steps
        assert linked[1].main.kernel.steps_done == 0
        assert (lone[0].main.kernel.steps_done
                + lone[1].main.kernel.steps_done) == 2 * steps

    def test_twin_extended_past_its_base(self):
        # The twin asks for more steps than the base has: both walk on.
        ua, ur = _pair(2)
        linked, lone = _setups(ua, ur), _setups(ua, ur)
        assert link_twins((ur[0], linked[1]), (ua[0], linked[0]))
        linked[0].main.extend_to(300)
        linked[1].main.extend_to(900)
        linked[0].main.extend_to(1200)
        lone[0].main.extend_to(1200)
        lone[1].main.extend_to(1200)
        for got, want in zip(linked, lone):
            _assert_schedules_equal(got, want)

    def test_primed_builders_step_as_twins(self):
        base, twin = _hand_built()
        linked, lone = _setups(base, twin), _setups(base, twin)
        assert linked[0].primed is not None
        assert link_twins((base[0], linked[0]), (twin[0], linked[1]))
        for setup in linked + lone:
            setup.main.extend_to(400)
            setup.primed.extend_to(400)
        for got, want in zip(linked, lone):
            _assert_schedules_equal(got, want)


class TestRefusedPairs:
    """Each refused pair runs unlinked and still equals its direct
    solves bit for bit."""

    @staticmethod
    def _solve_both(cache, members, measure=Measure.TRR):
        return [RRLSolver(**kwargs).solve(model, rewards, measure,
                                          [1.0, 50.0], 1e-10,
                                          schedule_cache=cache)
                for model, rewards, kwargs in members]

    @staticmethod
    def _direct(members, measure=Measure.TRR):
        return [RRLSolver(**kwargs).solve(model, rewards, measure,
                                          [1.0, 50.0], 1e-10)
                for model, rewards, kwargs in members]

    def _assert_refused(self, members):
        cache = ScheduleCache()
        linked = cache.prepare_twins(
            [(m, r, kw.get("regenerative"), kw.get("rate"), None)
             for m, r, kw in members])
        assert linked == 0
        for got, want in zip(self._solve_both(cache, members),
                             self._direct(members)):
            assert_bit_identical(got, want)
            assert np.array_equal(got.stats["K"], want.stats["K"])
            assert np.array_equal(got.stats["L"], want.stats["L"])

    def test_multiprocessor_pair_refused_on_rate(self):
        params = {"processors": 2, "memories": 2, "coverage": 0.9}
        avail, rel = (Scenario(name=kind, family="multiprocessor",
                               params={**params, "kind": kind}).build()
                      for kind in ("availability", "reliability"))
        lam = [UniformizationKernel.from_model(m)[2] for m, _ in (avail,
                                                                 rel)]
        assert lam[0] != lam[1]
        self._assert_refused([(*avail, {}), (*rel, {})])

    def test_drained_state_leaking_to_a_non_hub_state_is_refused(self):
        base, twin = _hand_built(leak=0.3)
        setups = _setups(base, twin)
        assert setups[0].rate == setups[1].rate
        assert not link_twins((base[0], setups[0]), (twin[0], setups[1]))
        self._assert_refused([(*base, {}), (*twin, {})])
        # Without the leak the same pair links.
        base, twin = _hand_built()
        setups = _setups(base, twin)
        assert link_twins((base[0], setups[0]), (twin[0], setups[1]))

    @pytest.mark.parametrize("pinned", [{"rate": 7.5},
                                        {"regenerative": 1}])
    @pytest.mark.parametrize("on", ["UA", "UR"])
    def test_setting_pinned_on_one_twin_is_refused(self, pinned, on):
        ua, ur = _pair(2)
        self._assert_refused([(*ua, pinned if on == "UA" else {}),
                              (*ur, pinned if on == "UR" else {})])

    def test_setting_pinned_on_one_twin_through_the_planner(self):
        clear_caches()
        reqs = [SolveRequest(scenario=_raid5(2, kind), measure=Measure.TRR,
                             times=(1.0, 10.0), eps=1e-10, method="RRL",
                             solver_kwargs=kwargs, key=kind)
                for kind, kwargs in (("availability", {"regenerative": 1}),
                                     ("reliability", {}))]
        plan = plan_requests(reqs)
        assert plan.kinds == ["twins"]
        outs = SolveService().solve(reqs)
        for out, req in zip(outs, reqs):
            assert out.ok, out.error
            assert_bit_identical(out.value, direct_solve(req))
        cache = process_schedule_cache()
        assert not any(_is_linked(setup)
                       for setup in cache._entries.values())


def _sweep_raid5_requests(methods=("RR", "RRL")):
    scens = generate_scenarios(families=("raid5",),
                               measures=(Measure.TRR, Measure.MRR))
    return [SolveRequest(scenario=s, measure=s.measure, times=s.times,
                         eps=s.eps, method=m, key=(s.name, m))
            for s in scens for m in methods]


class TestTwinGroups:
    def test_paper_grid_plans_four_tasks(self):
        plan = plan_requests(grid_solve_requests(ExperimentConfig.paper()))
        assert plan.n_tasks == 4
        # RSD's two cells run first; the twin groups keep two models
        # and setups each, and follow.
        assert plan.kinds == ["single", "single", "twins", "twins"]
        assert plan.fused_cells == 0

    @pytest.mark.parametrize("workers, n_tasks", [(1, 4), (2, 4), (3, 6),
                                                  (8, 6)])
    def test_paper_grid_plan_follows_the_pool(self, workers, n_tasks):
        # 6 tasks apart: twin groups while each worker would take more
        # than two of them, single cells side by side on a wider pool.
        plan = SolveService(workers=workers).plan(
            grid_solve_requests(ExperimentConfig.paper()))
        assert plan.n_tasks == n_tasks
        assert plan.twin_tasks == (2 if n_tasks == 4 else 0)

    def test_pair_apart_on_a_pool_equals_paired_inline(self):
        clear_caches()
        reqs = [SolveRequest(scenario=_raid5(2, kind), measure=Measure.TRR,
                             times=(1.0, 100.0), eps=1e-10, method="RRL",
                             key=kind)
                for kind in ("availability", "reliability")]
        assert SolveService(workers=1).plan(reqs).kinds == ["twins"]
        assert SolveService(workers=2).plan(reqs).kinds == ["single"] * 2
        inline = SolveService(workers=1).solve(reqs)
        pooled = SolveService(workers=2).solve(reqs)
        for a, b, req in zip(inline, pooled, reqs):
            assert a.ok and b.ok
            assert_bit_identical(a.value, b.value)
            assert_bit_identical(a.value, direct_solve(req))

    def test_group_setup_errors_stay_in_their_cells(self):
        clear_caches()
        reqs = tuple(
            SolveRequest(scenario=_raid5(2, kind), measure=Measure.TRR,
                         times=(1.0,), eps=1e-10, method="RRL",
                         solver_kwargs=kwargs, key=kind)
            for kind, kwargs in (("availability", {"rate": -1.0}),
                                 ("reliability", {})))
        records = run_twin_group(reqs)
        assert [r["ok"] for r in records] == [False, True]
        assert records[0]["error_type"] == "ModelError"
        assert_bit_identical(records[1]["value"], direct_solve(reqs[1]))

    def test_a_bug_in_the_link_code_propagates(self, monkeypatch):
        clear_caches()

        def broken(*pairs):
            raise AttributeError("'NoneType' object has no attribute 'x'")

        monkeypatch.setattr(schedule_cache_module, "link_twins", broken)
        reqs = tuple(_sweep_raid5_requests(("RRL",))[:2])
        with pytest.raises(AttributeError, match="NoneType"):
            run_twin_group(reqs)

    def test_sweep_twin_cells_equal_direct_solves(self):
        clear_caches()
        reqs = _sweep_raid5_requests()
        plan = plan_requests(reqs)
        assert plan.kinds == ["twins"] * 4 and plan.fused_cells == 0
        outs = SolveService(backend="serial").solve(reqs)
        for out, req in zip(outs, reqs):
            assert out.ok, out.error
            want = direct_solve(req)
            assert_bit_identical(out.value, want)
            assert np.array_equal(out.value.stats["K"], want.stats["K"])
            assert np.array_equal(out.value.stats["L"], want.stats["L"])
        assert sum(map(_is_linked,
                       process_schedule_cache()._entries.values())) == 8

    def test_warm_pass_repeats_no_check_and_no_product(self, monkeypatch):
        clear_caches()
        reqs = _sweep_raid5_requests(("RRL",))[:2] \
            + _sweep_raid5_requests(("RRL",))[8:10]
        service = SolveService(backend="serial")
        cold = service.solve(reqs)
        checks, products = [], []
        monkeypatch.setattr(schedule_cache_module, "link_twins",
                            lambda *a: checks.append(a))
        step = UniformizationKernel.step
        monkeypatch.setattr(UniformizationKernel, "step",
                            lambda self, *a, **k: products.append(1)
                            or step(self, *a, **k))
        warm = service.solve(reqs)
        assert checks == [] and products == []
        for a, b in zip(cold, warm):
            assert_bit_identical(a.value, b.value)

    def test_failing_cell_fails_alone(self):
        clear_caches()
        reqs = [SolveRequest(scenario=_raid5(2, kind, measure=measure),
                             measure=measure, times=(1.0, 100.0),
                             eps=1e-10, method=method,
                             solver_kwargs=kwargs,
                             key=(kind, measure.value, method))
                for kind, measure, method, kwargs in (
                    ("availability", Measure.TRR, "RRL", {}),
                    ("availability", Measure.MRR, "RRL",
                     {"max_terms": 8}),
                    ("reliability", Measure.TRR, "RRL", {}),
                    ("reliability", Measure.TRR, "RR", {}))]
        assert plan_requests(reqs).kinds == ["twins"]
        outs = SolveService().solve(reqs)
        assert [o.ok for o in outs] == [True, False, True, True]
        assert outs[1].error_type == "InversionError"
        for out, req in zip(outs, reqs):
            if out.ok:
                assert_bit_identical(out.value, direct_solve(req))
        assert sum(map(_is_linked,
                       process_schedule_cache()._entries.values())) == 2

    def test_pooled_twin_groups_equal_inline(self):
        reqs = _sweep_raid5_requests(("RRL",))
        inline = SolveService(workers=1).solve(reqs)
        pooled = SolveService(workers=2).solve(reqs)
        for a, b in zip(inline, pooled):
            assert a.key == b.key and a.ok and b.ok
            assert_bit_identical(a.value, b.value)
