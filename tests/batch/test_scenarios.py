"""Unit tests for the parametric scenario generator."""

import pickle

import numpy as np
import pytest

from repro.batch.scenarios import (
    Scenario,
    generate_scenarios,
    scenario_families,
    scenario_requests,
)
from repro.exceptions import ModelError
from repro.markov.rewards import Measure
from repro.service import SolveService
from tests.conftest import assert_bit_identical, direct_solve


class TestGeneration:
    def test_families_registered(self):
        assert set(scenario_families()) == {
            "raid5", "multiprocessor", "birth_death", "block"}

    def test_deterministic_for_seed(self):
        a = generate_scenarios(seed=42, random_count=3)
        b = generate_scenarios(seed=42, random_count=3)
        assert [s.name for s in a] == [s.name for s in b]
        assert [s.params for s in a] == [s.params for s in b]

    def test_seed_changes_random_families(self):
        a = generate_scenarios(families=("birth_death",), seed=1,
                               random_count=4)
        b = generate_scenarios(families=("birth_death",), seed=2,
                               random_count=4)
        assert [s.params for s in a] != [s.params for s in b]

    def test_family_filter(self):
        only = generate_scenarios(families=("block",), random_count=2)
        assert {s.family for s in only} == {"block"}
        assert len(only) == 2

    def test_unknown_family_rejected(self):
        with pytest.raises(ModelError, match="unknown scenario families"):
            generate_scenarios(families=("nope",))

    def test_measures_expand_grid(self):
        scs = generate_scenarios(families=("birth_death",), random_count=2,
                                 measures=(Measure.TRR, Measure.MRR))
        assert len(scs) == 4
        assert sum(s.measure is Measure.MRR for s in scs) == 2
        mrr_names = [s.name for s in scs if s.measure is Measure.MRR]
        assert all(name.endswith("/mrr") for name in mrr_names)

    def test_scenarios_are_picklable(self):
        for s in generate_scenarios(random_count=2):
            clone = pickle.loads(pickle.dumps(s))
            assert clone == s


class TestBuilding:
    def test_every_scenario_builds(self):
        for s in generate_scenarios(random_count=2):
            model, rewards = s.build()
            assert model.n_states == rewards.n_states
            assert rewards.max_rate > 0.0

    def test_rebuild_is_bit_identical(self):
        # Pool workers rebuild models from the spec; the rebuild must
        # match exactly or parallel results could drift from serial ones.
        s = generate_scenarios(families=("block",), random_count=1)[0]
        m1, r1 = s.build()
        m2, r2 = s.build()
        assert np.array_equal(m1.generator.toarray(), m2.generator.toarray())
        assert np.array_equal(r1.rates, r2.rates)

    def test_unknown_family_build_error(self):
        bad = Scenario(name="x", family="martian", params={})
        with pytest.raises(ModelError, match="unknown scenario family"):
            bad.build()


class TestSolving:
    def test_solve_scenario_end_to_end(self):
        s = generate_scenarios(families=("birth_death",), random_count=1,
                               times=(1.0, 5.0), eps=1e-8)[0]
        (out,) = SolveService().solve(scenario_requests([s], ("SR",)))
        sol = out.unwrap()
        assert sol.values.shape == (2,)
        assert np.all(sol.values >= 0.0)

    def test_solved_scenarios_equal_direct_bitwise(self):
        scs = generate_scenarios(families=("birth_death",), random_count=2,
                                 times=(1.0, 5.0), eps=1e-8)
        requests = scenario_requests(scs, ("SR", "RSD", "RRL"))
        outs = SolveService().solve(requests)
        assert [o.key for o in outs] == [r.key for r in requests]
        for out, req in zip(outs, requests):
            assert out.ok
            assert_bit_identical(out.value, direct_solve(req))

    def test_scenario_requests_through_service(self):
        scs = generate_scenarios(families=("birth_death",), random_count=2,
                                 times=(1.0,), eps=1e-8)
        requests = scenario_requests(scs, methods=("SR", "RRL"))
        assert [r.key for r in requests] == [
            (s.name, m) for s in scs for m in ("SR", "RRL")]
        outs = SolveService().solve(requests)
        assert all(o.ok for o in outs)
        # SR and RRL, each within ε, agree within 2·ε on every scenario.
        by_key = {o.key: o.value for o in outs}
        for s in scs:
            sr = by_key[(s.name, "SR")].values[0]
            rrl = by_key[(s.name, "RRL")].values[0]
            assert abs(sr - rrl) <= 2 * s.eps
