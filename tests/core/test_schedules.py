"""Regenerative schedules: probabilistic invariants of the recursion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RewardStructure
from repro.core.schedules import ScheduleBuilder
from repro.exceptions import ModelError
from repro.models import random_ctmc, two_state_availability


def make_builders(model, rewards, reg=0):
    return ScheduleBuilder.for_model(model, rewards, reg)


class TestForModel:
    def test_two_state_exhausts(self, two_state):
        model, rewards, *_ = two_state
        main, primed, rate, absorbing = make_builders(model, rewards)
        assert primed is None  # initial mass concentrated on r
        assert absorbing.size == 0
        main.extend_to(10)
        assert main.exhausted
        sched = main.snapshot()
        # From r=0 (rate Λ=10): survive prob 0.1 to state 1, then state 1
        # returns to 0 with probability 1 → a = [1, 0.1, 0].
        assert sched.a[0] == 1.0
        assert sched.a[1] == pytest.approx(0.1)
        assert sched.a[2] == pytest.approx(0.0, abs=1e-300)

    def test_primed_builder_when_distributed_initial(self):
        model = random_ctmc(8, seed=5, initial=None)
        init = np.zeros(8)
        init[0], init[3] = 0.4, 0.6
        model = random_ctmc(8, seed=5, initial=init)
        rewards = RewardStructure.constant(8)
        main, primed, *_ = ScheduleBuilder.for_model(model, rewards, 0)
        assert primed is not None
        assert primed.a_at(0) == pytest.approx(0.6)

    def test_absorbing_regenerative_rejected(self, erlang3):
        model, rewards = erlang3
        with pytest.raises(ModelError):
            ScheduleBuilder.for_model(model, rewards, 3)  # state 3 absorbing

    def test_initial_mass_on_absorbing_rejected(self, erlang3):
        model, rewards = erlang3
        bad = np.zeros(4)
        bad[3] = 1.0
        from repro import CTMC
        model2 = CTMC(model.generator, initial=bad)
        with pytest.raises(ModelError):
            ScheduleBuilder.for_model(model2, rewards, 0)


class TestInvariants:
    def test_a_non_increasing(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, _, _, _ = make_builders(random_irreducible, rewards)
        main.extend_to(60)
        a = main.snapshot().a
        assert np.all(np.diff(a) <= 1e-15)

    def test_flow_conservation(self, random_absorbing):
        """a(k) = a(k+1) + qmass(k) + Σ_i vmass(k,i): every excursion
        either survives, regenerates, or absorbs."""
        rewards = RewardStructure.constant(14)
        main, _, _, absorbing = make_builders(random_absorbing, rewards)
        main.extend_to(50)
        s = main.snapshot()
        n = min(50, s.n - 1)
        recon = s.a[1:n + 1] + s.qmass[:n] + s.vmass[:n].sum(axis=1)
        assert np.allclose(recon, s.a[:n], atol=1e-14)

    def test_reward_mass_bounded(self, random_irreducible):
        r = np.linspace(0.0, 3.0, 15)
        rewards = RewardStructure(r)
        main, _, _, _ = make_builders(random_irreducible, rewards)
        main.extend_to(40)
        s = main.snapshot()
        assert np.all(s.c <= 3.0 * s.a + 1e-15)
        assert np.all(s.c >= 0.0)

    def test_b_conditional_reward(self, random_irreducible):
        rewards = RewardStructure.constant(15, 2.0)
        main, _, _, _ = make_builders(random_irreducible, rewards)
        main.extend_to(20)
        s = main.snapshot()
        for k in range(0, 20, 5):
            if s.a[k] > 0:
                assert s.b(k) == pytest.approx(2.0)

    def test_steps_done_counts_matvecs(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, _, _, _ = make_builders(random_irreducible, rewards)
        main.extend_to(25)
        assert main.steps_done == 25
        main.extend_to(10)  # no-op: already there
        assert main.steps_done == 25

    def test_exhausted_stops_stepping(self, two_state):
        model, rewards, *_ = two_state
        main, _, _, _ = make_builders(model, rewards)
        main.extend_to(500)
        assert main.steps_done < 10  # exhausts after ~2 steps


class TestSnapshot:
    def test_extend_then_snapshot_sees_new_length(self, random_absorbing):
        rewards = RewardStructure.constant(14)
        main, _, _, _ = make_builders(random_absorbing, rewards)
        main.extend_to(5)
        first = main.snapshot()
        main.extend_to(12)
        second = main.snapshot()
        assert first.n == 6 and second.n == 13
        assert second.vmass.shape[0] == 12
        assert np.array_equal(second.a[:6], first.a)

    def test_unchanged_builder_returns_same_snapshot(self, random_absorbing):
        rewards = RewardStructure.constant(14)
        main, _, _, _ = make_builders(random_absorbing, rewards)
        main.extend_to(7)
        snap = main.snapshot()
        main.extend_to(3)  # already recorded: no step taken
        assert main.snapshot() is snap

    def test_exhausted_builder_returns_same_snapshot(self, two_state):
        model, rewards, *_ = two_state
        main, _, _, _ = make_builders(model, rewards)
        main.extend_to(500)
        snap = main.snapshot()
        main.step()  # no-op once exhausted
        assert snap.exhausted and main.snapshot() is snap

    def test_snapshot_arrays_are_read_only(self, random_absorbing):
        rewards = RewardStructure.constant(14)
        main, _, _, _ = make_builders(random_absorbing, rewards)
        main.extend_to(4)
        snap = main.snapshot()
        for arr in (snap.a, snap.c, snap.qmass, snap.vmass):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        with pytest.raises(ValueError):
            snap.a[:2] += 1.0

    @pytest.mark.parametrize("chain", ["random_absorbing",
                                       "random_irreducible"])
    def test_incremental_snapshots_equal_one_snapshot(self, chain, request):
        # Snapshots taken along the way copy only the new steps; each must
        # still equal, bit for bit, the prefix of one snapshot taken at
        # the end by a second builder, and stay read-only and unchanged.
        model = request.getfixturevalue(chain)
        rewards = RewardStructure.constant(model.n_states)
        main, _, _, _ = make_builders(model, rewards)
        whole, _, _, _ = make_builders(model, rewards)
        whole.extend_to(60)
        ref = whole.snapshot()
        taken = []
        for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 60):
            main.extend_to(k)
            snap = main.snapshot()
            taken.append((snap, [arr.copy() for arr in (
                snap.a, snap.c, snap.qmass, snap.vmass)]))
        for snap, copies in taken:
            n, m = snap.n, snap.qmass.size
            arrays = (snap.a, snap.c, snap.qmass, snap.vmass)
            for arr, copy, full in zip(arrays, copies,
                                       (ref.a[:n], ref.c[:n],
                                        ref.qmass[:m], ref.vmass[:m])):
                assert arr.tobytes() == copy.tobytes() == full.tobytes()
                assert arr.shape == full.shape and arr.dtype == np.float64
                assert not arr.flags.writeable
        last = taken[-1][0]
        assert last.vmass.shape == ref.vmass.shape
        assert last.exhausted == ref.exhausted


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=12),
       seed=st.integers(min_value=0, max_value=9999),
       absorbing=st.integers(min_value=0, max_value=2))
def test_schedule_properties(n, seed, absorbing):
    """Property: on random chains, a(k) decreasing, flow conserved, and
    conditional branch masses form a probability (q+w+v = 1)."""
    if absorbing >= n - 2:
        absorbing = 0
    model = random_ctmc(n, density=0.4, seed=seed, absorbing=absorbing)
    rewards = RewardStructure.constant(n)
    main, _, rate, abs_idx = ScheduleBuilder.for_model(model, rewards, 0)
    main.extend_to(30)
    s = main.snapshot()
    m = min(30, s.n - 1)
    if m == 0:
        return
    assert np.all(np.diff(s.a[:m + 1]) <= 1e-12)
    total = s.a[1:m + 1] + s.qmass[:m] + s.vmass[:m].sum(axis=1)
    assert np.allclose(total, s.a[:m], rtol=1e-12, atol=1e-15)
