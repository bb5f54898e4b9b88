"""Damping selection: the chosen `a` must achieve the aliasing budget."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.laplace.error_control import (
    aliasing_error_bounded,
    aliasing_error_cumulative,
    damping_for_bounded,
    damping_for_cumulative,
)


class TestBounded:
    def test_budget_achieved_exactly(self):
        eps4, r_max, T = 2.5e-13, 1.0, 8.0
        a = damping_for_bounded(eps4, r_max, T)
        assert aliasing_error_bounded(a, r_max, T) == pytest.approx(
            eps4, rel=1e-9)

    def test_paper_formula(self):
        # a = log(1 + 4 r_max/eps) / (2T) with eps4 = eps/4.
        eps, r_max, T = 1e-12, 1.0, 8.0
        a = damping_for_bounded(eps / 4.0, r_max, T)
        assert a == pytest.approx(math.log1p(4.0 * r_max / eps) / (2.0 * T))

    def test_zero_bound(self):
        assert damping_for_bounded(1e-12, 0.0, 8.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            damping_for_bounded(0.0, 1.0, 8.0)
        with pytest.raises(ValueError):
            damping_for_bounded(1e-12, 1.0, 0.0)
        with pytest.raises(ValueError):
            damping_for_bounded(1e-12, -1.0, 8.0)


class TestCumulative:
    @pytest.mark.parametrize("t", [1.0, 100.0, 1e5])
    @pytest.mark.parametrize("r_max", [1.0, 20.0])
    def test_budget_achieved(self, t, r_max):
        eps4 = t * 1e-12 / 4.0
        T = 8.0 * t
        a = damping_for_cumulative(eps4, r_max, t, T)
        assert aliasing_error_cumulative(a, r_max, t, T) == pytest.approx(
            eps4, rel=1e-6)

    def test_zero_reward(self):
        assert damping_for_cumulative(1e-12, 0.0, 1.0, 8.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            damping_for_cumulative(0.0, 1.0, 1.0, 8.0)
        with pytest.raises(ValueError):
            damping_for_cumulative(1e-12, 1.0, -1.0, 8.0)


@settings(max_examples=60, deadline=None)
@given(eps_exp=st.integers(min_value=4, max_value=14),
       r_max=st.floats(min_value=1e-3, max_value=1e3),
       t=st.floats(min_value=1e-2, max_value=1e6))
def test_damping_properties(eps_exp, r_max, t):
    """Property: positive damping, achieved budgets, no cancellation."""
    eps = 10.0 ** (-eps_exp)
    T = 8.0 * t
    a_b = damping_for_bounded(eps / 4.0, r_max, T)
    assert a_b > 0.0
    assert aliasing_error_bounded(a_b, r_max, T) <= eps / 4.0 * (1 + 1e-9)
    a_c = damping_for_cumulative(t * eps / 4.0, r_max, t, T)
    assert a_c > 0.0
    achieved = aliasing_error_cumulative(a_c, r_max, t, T)
    assert achieved <= t * eps / 4.0 * (1.0 + 1e-6)
