"""Excursion-decay diagnostics and truncation prediction."""

import numpy as np
import pytest

from repro import RewardStructure, RRLSolver, TRR
from repro.analysis.convergence import (
    compare_regenerative_states,
    excursion_decay,
    predict_truncation,
)
from repro.core._setup import prepare
from repro.core.truncation import select_truncation
from repro.exceptions import ModelError
from repro.models import (
    Raid5Params,
    birth_death,
    build_raid5_availability,
    random_ctmc,
    two_state_availability,
)
from repro.models.raid5 import FAILED


class TestDecayFit:
    def test_two_state_exhausts(self):
        model, _ = two_state_availability(1.0, 10.0)
        fit = excursion_decay(model, 0)
        assert fit.exhausted
        assert fit.rate == 0.0

    def test_known_geometric_decay(self):
        # Watched from state 0 of a birth-death chain, a(k) decays
        # geometrically; the fitted rate must match the empirical ratio.
        model = birth_death(12, 1.0, 1.0)
        fit = excursion_decay(model, 0, n_steps=400)
        from repro.core.schedules import ScheduleBuilder
        main, _, _, _ = ScheduleBuilder.for_model(
            model, RewardStructure.constant(12, 0.0), 0)
        main.extend_to(400)
        a = main.snapshot().a
        empirical = a[380] / a[379]
        assert fit.rate == pytest.approx(empirical, abs=0.01)
        assert 0.0 < fit.rate < 1.0

    def test_bad_fraction(self):
        model = birth_death(5, 1.0, 2.0)
        with pytest.raises(ValueError):
            excursion_decay(model, 0, fit_fraction=0.0)


class TestPrediction:
    def test_predicts_actual_k_within_factor(self):
        model = random_ctmc(12, density=0.4, seed=19)
        rewards = RewardStructure.indicator(12, [3])
        fit = excursion_decay(model, 0, n_steps=300)
        sol = RRLSolver(regenerative=0).solve(model, rewards, TRR, [1e4],
                                              eps=1e-12)
        predicted = predict_truncation(fit, model.max_output_rate, 1e4,
                                       1e-12)
        actual = int(sol.stats["K"][0])
        assert 0.5 * actual <= predicted <= 2.0 * actual

    def test_exhausted_prediction(self):
        model, _ = two_state_availability(1.0, 10.0)
        fit = excursion_decay(model, 0)
        assert predict_truncation(fit, 10.0, 1e5, 1e-12) <= 3

    def test_no_decay_raises(self):
        from repro.analysis.convergence import DecayFit
        flat = DecayFit(rate=1.0, amplitude=1.0, window=(0, 10),
                        exhausted=False)
        with pytest.raises(ModelError):
            predict_truncation(flat, 1.0, 10.0, 1e-9)


class TestRanking:
    def test_hub_ranks_first(self):
        # In a star-like chain the hub is visited constantly: it must
        # out-rank a leaf as regenerative state.
        n = 8
        trans = []
        for leaf in range(1, n):
            trans.append((0, leaf, 1.0))
            trans.append((leaf, 0, 5.0))
        from repro import CTMC
        model = CTMC.from_transitions(n, trans, initial=0)
        ranked = compare_regenerative_states(model, candidates=[0, 3])
        assert ranked[0][0] == 0
        assert ranked[0][1].rate <= ranked[1][1].rate

    def test_default_candidates_exclude_absorbing(self):
        model = random_ctmc(10, density=0.4, seed=23, absorbing=2)
        ranked = compare_regenerative_states(model)
        absorbing = set(int(i) for i in model.absorbing_states())
        assert all(state not in absorbing for state, _ in ranked)

    def test_raid_hub_needs_fewest_steps(self):
        # The paper's guidance that RRL does well when r is visited
        # often, on RAID availability at t = 1e4: the all-up hub needs
        # fewer K + L steps than a degraded state.
        params = Raid5Params(groups=1)
        model, rewards, explored = build_raid5_availability(params)

        def steps(state) -> int:
            setup = prepare(model, rewards, explored.state_index(state),
                            None)
            return select_truncation(setup.main, setup.primed, setup.rate,
                                     1e4, 1e-12 / 2.0,
                                     rewards.max_rate).steps

        hub = steps(params.initial_state)
        one_disk_failed = (1, 0, 0, params.spare_disks, True, 0,
                           params.spare_controllers)
        assert hub <= steps(one_disk_failed)
        assert hub < steps(FAILED)
