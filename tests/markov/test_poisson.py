"""Fox–Glynn window, Poisson tails and quantiles — vs scipy.stats and
closed identities, including the huge-rate regime of the paper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.exceptions import TruncationError
from repro.markov.poisson import (
    fox_glynn,
    poisson_cdf,
    poisson_expected_excess,
    poisson_left_quantile,
    poisson_right_quantile,
    poisson_sf,
)

RATES = [0.05, 1.0, 7.3, 24.0, 1000.0, 2.4e6]


class TestSurvival:
    @pytest.mark.parametrize("rate", RATES)
    def test_matches_scipy(self, rate):
        ns = np.array([0, 1, int(rate), int(rate) + int(3 * rate**0.5) + 5])
        ours = poisson_sf(ns, rate)
        ref = stats.poisson.sf(ns, rate)
        assert np.allclose(ours, ref, rtol=1e-11, atol=0.0)

    def test_scalar_output(self):
        out = poisson_sf(3, 2.0)
        assert isinstance(out, float)

    def test_cdf_complements_sf(self):
        for n in (0, 3, 10):
            assert poisson_cdf(n, 4.0) + poisson_sf(n, 4.0) == pytest.approx(
                1.0, abs=1e-14)

    def test_tiny_tail_relative_accuracy(self):
        # P[N > mu + 8 sqrt(mu)] is astronomically small but must not be 0.
        rate = 1e6
        n = int(rate + 8 * rate**0.5)
        val = poisson_sf(n, rate)
        assert 0.0 < val < 1e-12


class TestQuantiles:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_right_quantile_minimal(self, rate, eps):
        r = poisson_right_quantile(rate, eps)
        assert poisson_sf(r, rate) <= eps
        if r > 0:
            assert poisson_sf(r - 1, rate) > eps

    @pytest.mark.parametrize("rate", [5.0, 1000.0])
    def test_left_quantile_maximal(self, rate):
        eps = 1e-10
        left = poisson_left_quantile(rate, eps)
        if left > 0:
            assert poisson_cdf(left - 1, rate) <= eps
            assert poisson_cdf(left, rate) > eps

    def test_zero_rate(self):
        assert poisson_right_quantile(0.0, 1e-12) == 0
        assert poisson_left_quantile(0.0, 1e-12) == 0

    def test_bad_eps_raises(self):
        with pytest.raises(ValueError):
            poisson_right_quantile(1.0, 0.0)
        with pytest.raises(ValueError):
            poisson_left_quantile(1.0, -1.0)

    @pytest.mark.parametrize("eps", [1.0, 1.5, 271.8])
    def test_right_quantile_rejects_eps_at_or_above_one(self, eps):
        # A tail "probability" of 1 or more is a caller bug, not a budget:
        # it must fail with the same message as fox_glynn, not take the
        # square root of a negative log.
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            poisson_right_quantile(1.0, eps)

    def test_paper_sr_steps(self):
        # The paper's Table 2 SR step counts are Poisson right quantiles
        # at eps = 1e-12 for the RAID Λ values; spot-check the largest.
        lam = 23.752151  # G=20 availability-model max output rate
        q = poisson_right_quantile(lam * 1e5, 1e-12)
        assert abs(q - 2386068) < 200  # paper: 2,386,068


class TestExpectedExcess:
    @pytest.mark.parametrize("rate", [0.5, 12.0, 300.0])
    def test_against_direct_sum(self, rate):
        k = int(rate) + 2
        n = np.arange(0, int(rate + 12 * rate**0.5) + 60)
        pmf = stats.poisson.pmf(n, rate)
        direct = float(np.maximum(n - k, 0) @ pmf)
        assert poisson_expected_excess(rate, k) == pytest.approx(
            direct, rel=1e-9, abs=1e-300)

    def test_k_zero_is_mean(self):
        assert poisson_expected_excess(7.0, 0) == pytest.approx(7.0)

    def test_negative_k(self):
        assert poisson_expected_excess(3.0, -2) == pytest.approx(5.0)

    def test_monotone_in_k(self):
        vals = [poisson_expected_excess(20.0, k) for k in range(0, 60, 5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_never_negative(self):
        assert poisson_expected_excess(1e6, 2 * 10**6) >= 0.0


class TestFoxGlynn:
    @pytest.mark.parametrize("rate", RATES)
    def test_window_matches_scipy_pmf(self, rate):
        w = fox_glynn(rate, 1e-10)
        ns = np.arange(w.left, w.right + 1)
        ref = stats.poisson.pmf(ns, rate)
        # Normalization redistributes <= eps mass, and the multiplicative
        # recursion accumulates O(window)·ulp relative drift (~1e-8 for the
        # 20k-wide window at Λt = 2.4e6) — both harmless for the absolute
        # error budgets the solvers run on.
        assert np.allclose(w.weights, ref, rtol=1e-7, atol=1e-13)

    def test_weights_sum_to_one(self):
        for rate in RATES:
            w = fox_glynn(rate, 1e-9)
            assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_accessor(self):
        w = fox_glynn(10.0, 1e-9)
        assert w.pmf(w.left - 1) == 0.0
        assert w.pmf(w.right + 1) == 0.0
        assert w.pmf(10) > 0.0
        assert w.size == w.right - w.left + 1

    def test_zero_rate(self):
        w = fox_glynn(0.0, 1e-9)
        assert w.left == w.right == 0
        assert w.weights[0] == 1.0

    def test_mass_outside_window_small(self):
        rate, eps = 500.0, 1e-8
        w = fox_glynn(rate, eps)
        outside = (stats.poisson.cdf(w.left - 1, rate)
                   + stats.poisson.sf(w.right, rate))
        assert outside <= eps

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            fox_glynn(1.0, 0.0)
        with pytest.raises(ValueError):
            fox_glynn(1.0, 1.5)

    def test_huge_rate_window_is_narrow(self):
        w = fox_glynn(2.4e6, 1e-12)
        # Window should be O(sqrt(rate)), not O(rate).
        assert w.size < 40_000

    def test_window_limit(self):
        # A window that would need ~1.4e10 entries must refuse, not OOM.
        with pytest.raises(TruncationError):
            fox_glynn(1e18, 1e-12)


@settings(max_examples=60, deadline=None)
@given(rate=st.floats(min_value=1e-3, max_value=1e5),
       eps_exp=st.integers(min_value=3, max_value=12))
def test_fox_glynn_properties(rate, eps_exp):
    """Property: any window is normalized, non-negative, covers the mode."""
    eps = 10.0 ** (-eps_exp)
    w = fox_glynn(rate, eps)
    assert np.all(w.weights >= 0.0)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert w.left <= int(rate) <= w.right


@settings(max_examples=60, deadline=None)
@given(rate=st.floats(min_value=1e-3, max_value=1e5),
       k=st.integers(min_value=0, max_value=200_000))
def test_excess_identity(rate, k):
    """Property: E[(N-k)^+] - E[(N-k-1)^+] = P[N >= k+1]."""
    lhs = (poisson_expected_excess(rate, k)
           - poisson_expected_excess(rate, k + 1))
    rhs = poisson_sf(k, rate)
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-12)
