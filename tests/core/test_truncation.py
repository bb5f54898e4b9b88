"""Truncation-point selection: minimality, validity, budget splitting."""

import numpy as np
import pytest

from repro import RewardStructure
from repro.core.schedules import ScheduleBuilder
from repro.core.truncation import (
    TruncationChoice,
    _excess_weights,
    _scan,
    _tail_weights,
    select_truncation,
    truncation_error_bound,
)
from repro.exceptions import TruncationError
from repro.markov.poisson import poisson_expected_excess, poisson_sf
from repro.models import erlang_chain, random_ctmc, two_state_availability


def builders_for(model, rewards, reg=0):
    main, primed, rate, _ = ScheduleBuilder.for_model(model, rewards, reg)
    return main, primed, rate


class TestSelection:
    def test_bound_achieved(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        choice = select_truncation(main, primed, rate, t=10.0,
                                   eps_budget=1e-10, r_max=1.0)
        assert choice.error_bound <= 1e-10

    def test_minimality(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        choice = select_truncation(main, primed, rate, t=10.0,
                                   eps_budget=1e-10, r_max=1.0)
        k = choice.k_point
        if k > 0:
            prev = (main.a_at(k - 1)
                    * poisson_expected_excess(rate * 10.0, k - 1))
            assert prev > 1e-10  # k-1 would not satisfy the budget

    def test_steps_property(self):
        c = TruncationChoice(k_point=7, l_point=3, error_bound=0.0)
        assert c.steps == 10
        c2 = TruncationChoice(k_point=7, l_point=None, error_bound=0.0)
        assert c2.steps == 7

    def test_k_grows_with_t(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        ks = [select_truncation(main, primed, rate, t, 1e-10, 1.0).k_point
              for t in (1.0, 10.0, 100.0)]
        assert ks[0] <= ks[1] <= ks[2]

    def test_k_shrinks_with_eps(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        loose = select_truncation(main, primed, rate, 10.0, 1e-4, 1.0)
        tight = select_truncation(main, primed, rate, 10.0, 1e-13, 1.0)
        assert loose.k_point <= tight.k_point

    def test_zero_rmax_trivial(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        choice = select_truncation(main, primed, rate, 10.0, 1e-10, 0.0)
        assert choice.k_point == 0
        assert choice.error_bound == 0.0

    def test_exhausted_schedule_short_circuit(self, two_state):
        model, rewards, *_ = two_state
        main, primed, rate = builders_for(model, rewards)
        choice = select_truncation(main, primed, rate, 1e6, 1e-13, 1.0)
        assert choice.k_point <= 2  # schedule exhausts at a(2) = 0
        assert choice.error_bound == 0.0

    def test_hard_cap_raises(self):
        # An Erlang chain never regenerates: a(k) stays ~1 for many steps,
        # so a tiny cap must trip the guard.
        model, rewards = erlang_chain(50, 1.0)
        main, primed, rate = builders_for(model, rewards)
        with pytest.raises(TruncationError):
            select_truncation(main, primed, rate, 50.0, 1e-12, 1.0,
                              hard_cap=5)

    def test_validation(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        with pytest.raises(ValueError):
            select_truncation(main, primed, rate, -1.0, 1e-10, 1.0)
        with pytest.raises(ValueError):
            select_truncation(main, primed, rate, 1.0, 0.0, 1.0)


class TestBoundFunction:
    def test_additivity(self):
        b_main = truncation_error_bound(0.5, 3, None, None, 10.0, 2.0)
        b_both = truncation_error_bound(0.5, 3, 0.25, 2, 10.0, 2.0)
        assert b_both > b_main

    def test_scales_with_rmax(self):
        b1 = truncation_error_bound(0.5, 3, None, None, 10.0, 1.0)
        b2 = truncation_error_bound(0.5, 3, None, None, 10.0, 3.0)
        assert b2 == pytest.approx(3.0 * b1)

    def test_primed_uses_tail_probability(self):
        # With a'(L)=1 and L=0 the primed term is r_max·P[N >= 1] <= r_max.
        b = truncation_error_bound(0.0, 0, 1.0, 0, 5.0, 1.0)
        assert 0.9 < b <= 1.0


def scalar_scan(builder, weight, budget):
    """Reference selection: test ``a(k)·weight(k)`` one scalar k at a time
    from k = 0, extending the builder on demand."""
    k = 0
    while True:
        builder.extend_to(k)
        n = builder.n_recorded
        if k >= n:
            return n - 1
        if builder.a_at(k) * weight(k) <= budget:
            return k
        if builder.exhausted and k >= n - 1:
            return n - 1
        k += 1


def primed_model():
    """Random chain with α_r = 0.6, so a primed schedule exists."""
    init = np.zeros(12)
    init[0], init[4] = 0.6, 0.4
    return random_ctmc(12, density=0.3, seed=21, absorbing=1, initial=init)


PREFIX_CASES = {
    "unprimed": lambda: (random_ctmc(15, density=0.3, seed=7),
                         RewardStructure.constant(15)),
    "primed": lambda: (primed_model(),
                       RewardStructure(np.linspace(0.2, 1.5, 12))),
    "exhausted": lambda: two_state_availability(1.0, 10.0),
}


@pytest.mark.parametrize("rate_time", [0.3, 7.0, 1e3, 4.4e6])
def test_array_weights_equal_scalar_weights(rate_time):
    """The array weights of the prefix scan are bit-identical to the
    scalar weights of a step-by-step scan."""
    r_max = 1.7
    lo, hi = (0, 400) if rate_time < 1e6 else (int(rate_time) - 200,
                                                 int(rate_time) + 200)
    excess = _excess_weights(rate_time, r_max, lo, hi)
    tail = _tail_weights(rate_time, r_max, lo, hi)
    for j, k in enumerate(range(lo, hi)):
        assert excess[j] == r_max * poisson_expected_excess(rate_time, k)
        assert tail[j] == r_max * poisson_sf(k, rate_time)
    assert excess.shape == tail.shape == (hi - lo,)


class TestPrefixScan:
    """The recorded prefix is tested as one array: the choice must be the
    one a step-by-step scalar scan from k = 0 makes, bit for bit."""

    TIMES = (0.01, 1.0, 10.0, 300.0)
    EPS = (1e-4, 1e-10, 1e-14)

    @pytest.mark.parametrize("case", sorted(PREFIX_CASES))
    def test_pre_extended_matches_fresh(self, case):
        model, rewards = PREFIX_CASES[case]()
        r_max = rewards.max_rate
        pre_main, pre_primed, rate = builders_for(model, rewards)
        pre_main.extend_to(3000)
        if pre_primed is not None:
            pre_primed.extend_to(3000)
        assert (pre_primed is not None) == (case == "primed")
        assert pre_main.exhausted == (case == "exhausted")
        for t in self.TIMES:
            for eps in self.EPS:
                fresh_main, fresh_primed, _ = builders_for(model, rewards)
                fresh = select_truncation(fresh_main, fresh_primed, rate,
                                          t, eps, r_max)
                steps = pre_main.steps_done
                pre = select_truncation(pre_main, pre_primed, rate, t, eps,
                                        r_max)
                assert pre == fresh, (t, eps)
                assert pre_main.steps_done == steps

                ref_main, ref_primed, _ = builders_for(model, rewards)
                share = eps / (2.0 if ref_primed is not None else 1.0)
                k_ref = scalar_scan(
                    ref_main,
                    lambda k: r_max * poisson_expected_excess(rate * t, k),
                    share)
                assert pre.k_point == k_ref
                if ref_primed is not None:
                    l_ref = scalar_scan(
                        ref_primed,
                        lambda k: r_max * poisson_sf(k, rate * t), share)
                    assert pre.l_point == l_ref
                    assert pre.l_point >= 0
                else:
                    assert pre.l_point is None

    def test_selection_inside_prefix_takes_no_step(self):
        model, rewards = PREFIX_CASES["primed"]()
        main, primed, rate = builders_for(model, rewards)
        first = select_truncation(main, primed, rate, 50.0, 1e-12, 1.5)
        done = (main.steps_done, primed.steps_done)
        again = select_truncation(main, primed, rate, 5.0, 1e-12, 1.5)
        assert (main.steps_done, primed.steps_done) == done
        assert again.k_point <= first.k_point
        assert again.l_point <= first.l_point


def one_step_scan(builder, weights, budget, hard_cap=2_000_000):
    """Reference past-prefix scan: one ``weights(k, k + 1)`` call per new
    step, testing the recorded prefix as one array first."""
    a = builder.snapshot().a[: hard_cap + 1]
    hits = a * weights(0, a.size) <= budget
    if hits.any():
        return int(hits.argmax())
    k = a.size
    while True:
        if builder.exhausted and k >= builder.n_recorded:
            return builder.n_recorded - 1
        builder.extend_to(k)
        if k >= builder.n_recorded:
            return builder.n_recorded - 1
        if builder.a_at(k) * weights(k, k + 1)[0] <= budget:
            return k
        k += 1


class TestChunkedScan:
    """Past the recorded prefix the scan computes weights a growing chunk
    ahead; K and the steps it takes must be the one-step scan's."""

    @pytest.mark.parametrize("case", sorted(PREFIX_CASES))
    @pytest.mark.parametrize("warm", [0, 40])
    def test_matches_one_step_scan(self, case, warm):
        model, rewards = PREFIX_CASES[case]()
        r_max = rewards.max_rate
        for rate_time in (0.5, 30.0, 800.0):
            for budget in (1e-3, 1e-9, 1e-15):
                for kind in (_excess_weights, _tail_weights):
                    def weights(lo, hi, kind=kind):
                        calls.append((lo, hi))
                        return kind(rate_time, r_max, lo, hi)

                    got_b, _, _ = builders_for(model, rewards)
                    ref_b, _, _ = builders_for(model, rewards)
                    got_b.extend_to(warm)
                    ref_b.extend_to(warm)
                    calls = []
                    got = _scan(got_b, weights, budget, 2_000_000)
                    got_calls = len(calls)
                    calls = []
                    ref = one_step_scan(ref_b, weights, budget)
                    assert got == ref, (rate_time, budget, kind)
                    assert got_b.steps_done == ref_b.steps_done
                    assert got_calls <= len(calls)

    def test_long_scan_takes_few_weight_calls(self):
        # a(k) stays 1 until absorption at k = 400: a 400-step scan.
        model, rewards = erlang_chain(400, 1.0)
        main, _, rate = builders_for(model, rewards)
        calls = []

        def weights(lo, hi):
            calls.append((lo, hi))
            return _excess_weights(rate * 500.0, 1.0, lo, hi)

        k = _scan(main, weights, 1e-12, 2_000_000)
        ref_main, _, _ = builders_for(model, rewards)
        assert k == one_step_scan(
            ref_main, lambda lo, hi: _excess_weights(rate * 500.0, 1.0,
                                                     lo, hi), 1e-12)
        assert main.steps_done == ref_main.steps_done
        assert k >= 399
        assert len(calls) < 10
