"""Closed-form transforms vs the explicitly built V_{K,L} chain.

The decisive validation of Section 2.1: invert the closed-form transform
numerically and compare against solving the *materialized* V_{K,L} with
standard randomization — the two must agree to the inversion budget for
any schedule, truncation point and initial split.
"""

import numpy as np
import pytest

from repro import TRR, MRR, RewardStructure, StandardRandomizationSolver
from repro.core.schedules import ScheduleBuilder
from repro.core.transforms import _BLOCK, VklTransform
from repro.core.vkl import build_vkl
from repro.exceptions import ModelError
from repro.laplace.inversion import invert_bounded, invert_cumulative
from repro.models import random_ctmc


def make_case(n=10, seed=3, absorbing=1, alpha_r=1.0, k=8, lp=6):
    if alpha_r >= 1.0:
        initial = 0
    else:
        initial = np.zeros(n)
        initial[0] = alpha_r
        initial[2] = 1.0 - alpha_r
    model = random_ctmc(n, density=0.4, seed=seed, absorbing=absorbing,
                        initial=initial)
    rewards = RewardStructure(np.linspace(0.3, 1.0, n))
    main, primed, rate, abs_idx = ScheduleBuilder.for_model(model, rewards, 0)
    main.extend_to(k + 1)
    if primed is not None:
        primed.extend_to(lp + 1)
    main_s = main.snapshot()
    primed_s = primed.snapshot() if primed is not None else None
    lp_eff = lp if primed is not None else None
    tr = VklTransform(main_s, primed_s, k, lp_eff, rate,
                      rewards.rates[abs_idx])
    vmodel, vrewards = build_vkl(main_s, primed_s, k, lp_eff, rate,
                                 rewards.rates[abs_idx], alpha_r)
    return tr, vmodel, vrewards


CASES = [
    dict(alpha_r=1.0, absorbing=1),
    dict(alpha_r=1.0, absorbing=0),
    dict(alpha_r=0.6, absorbing=1),
    dict(alpha_r=0.6, absorbing=2, seed=9),
    dict(alpha_r=0.0, absorbing=0, seed=5),
]


class TestClosedFormAgainstExplicitChain:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("t", [0.5, 3.0, 20.0])
    def test_trr_transform(self, case, t):
        tr, vmodel, vrewards = make_case(**case)
        res = invert_bounded(tr.trr, t, eps=1e-10, bound=vrewards.max_rate)
        ref = StandardRandomizationSolver().solve(vmodel, vrewards, TRR,
                                                  [t], eps=1e-13)
        assert res.value == pytest.approx(ref.values[0], abs=2e-10)

    @pytest.mark.parametrize("case", CASES[:3])
    @pytest.mark.parametrize("t", [0.5, 10.0])
    def test_cumulative_transform(self, case, t):
        tr, vmodel, vrewards = make_case(**case)
        res = invert_cumulative(tr.cumulative, t, eps=1e-10,
                                r_max=vrewards.max_rate)
        ref = StandardRandomizationSolver().solve(vmodel, vrewards, MRR,
                                                  [t], eps=1e-13)
        assert res.value / t == pytest.approx(ref.values[0], abs=2e-10)

    @pytest.mark.parametrize("case", CASES[:3])
    def test_p0_transform(self, case):
        # p̃_0 inverted = P[V(t) = s_0], checked via an indicator reward.
        tr, vmodel, vrewards = make_case(**case)
        ind = RewardStructure.indicator(vmodel.n_states, [0])
        t = 2.0
        res = invert_bounded(tr.p0, t, eps=1e-10, bound=1.0)
        ref = StandardRandomizationSolver().solve(vmodel, ind, TRR, [t],
                                                  eps=1e-13)
        assert res.value == pytest.approx(ref.values[0], abs=2e-10)

    @pytest.mark.parametrize("case", CASES[:3])
    def test_p_absorbed_a(self, case):
        tr, vmodel, vrewards = make_case(**case)
        sink = vmodel.n_states - 1
        ind = RewardStructure.indicator(vmodel.n_states, [sink])
        t = 5.0
        res = invert_bounded(tr.p_absorbed_a, t, eps=1e-10, bound=1.0)
        ref = StandardRandomizationSolver().solve(vmodel, ind, TRR, [t],
                                                  eps=1e-13)
        assert res.value == pytest.approx(ref.values[0], abs=2e-10)


class TestAnalyticStructure:
    def test_initial_value_theorem(self):
        # s·TRR̃(s) → TRR(0) = b(0) (reward at the start) as s → ∞.
        tr, vmodel, vrewards = make_case(alpha_r=1.0, absorbing=1)
        s = np.array([1e7 + 0.0j])
        val = (s * tr.trr(s)).real[0]
        assert val == pytest.approx(vrewards.rates[0], rel=1e-4)

    def test_conservation_via_p0_pole(self):
        # s·(p̃_0 + Σ p̃_k + ...) = 1 at any s: total probability is 1.
        # Check with the constant-reward trick: a reward of 1 everywhere
        # (including absorbing and the sink) has TRR(t) = 1 ⇒ transform
        # 1/s. Our TRR̃ excludes the sink (reward 0), so 1/s − p̃_a.
        tr, vmodel, _ = make_case(alpha_r=0.6, absorbing=1, k=8, lp=6)
        # Rebuild transform with unit rewards on everything:
        main, primed, rate, abs_idx = None, None, None, None
        # simpler: evaluate identity TRR̃_unit(s) + p̃_a(s) = 1/s using the
        # explicit chain's unit rewards through a fresh transform.
        n = 10
        initial = np.zeros(n)
        initial[0], initial[2] = 0.6, 0.4
        model = random_ctmc(n, density=0.4, seed=3, absorbing=1,
                            initial=initial)
        unit = RewardStructure.constant(n, 1.0)
        mainb, primedb, rate, abs_idx = ScheduleBuilder.for_model(
            model, unit, 0)
        mainb.extend_to(9)
        primedb.extend_to(7)
        tru = VklTransform(mainb.snapshot(), primedb.snapshot(), 8, 6, rate,
                           unit.rates[abs_idx])
        s = np.array([0.37 + 1.1j, 2.0 + 0.0j, 0.01 + 5.0j])
        lhs = tru.trr(s) + tru.p_absorbed_a(s)
        assert np.allclose(lhs, 1.0 / s, rtol=1e-10)

    def test_k_zero_edge(self):
        tr, vmodel, vrewards = make_case(alpha_r=1.0, absorbing=1, k=0)
        s = np.array([1.0 + 1.0j])
        # With K = 0: p̃_0 = 1/(s + Λ).
        rate = vmodel.max_output_rate
        assert np.allclose(tr.p0(s), 1.0 / (s + rate), rtol=1e-12)

    def test_too_short_schedule_rejected(self):
        model = random_ctmc(6, seed=1)
        rewards = RewardStructure.constant(6)
        main, primed, rate, abs_idx = ScheduleBuilder.for_model(
            model, rewards, 0)
        main.extend_to(3)
        with pytest.raises(ModelError):
            VklTransform(main.snapshot(), None, 100, None, rate,
                         rewards.rates[abs_idx])


class TestPowersReuse:
    """Each public transform builds one powers matrix per chain per call,
    shared between ``p̃_0`` and its own sums."""

    @pytest.mark.parametrize("alpha_r", [1.0, 0.6])
    @pytest.mark.parametrize("name", ["trr", "cumulative", "p_absorbed_a",
                                      "p0"])
    def test_one_matrix_per_chain(self, monkeypatch, alpha_r, name):
        tr, _, _ = make_case(alpha_r=alpha_r, absorbing=1, k=8, lp=6)
        widths = []
        powers = VklTransform._powers

        def spy(self, s, n):
            widths.append(n)
            return powers(self, s, n)

        monkeypatch.setattr(VklTransform, "_powers", spy)
        getattr(tr, name)(np.array([0.4 + 1.0j, 2.0 + 0.0j, 0.1 - 3.0j]))
        expected = [tr.k_point + 1]
        if tr.l_point is not None:
            expected.append(tr.l_point + 1)
        assert widths == expected
        assert (tr.l_point is None) == (alpha_r == 1.0)


def _gamma_powers_mp(s, rate, n, dps=40):
    """``γ(s)^k`` for ``k < n`` at ``dps`` digits, from the exact binary
    values of ``s`` and ``rate``."""
    mpmath = pytest.importorskip("mpmath")
    out = np.empty((s.size, n), dtype=np.complex128)
    with mpmath.workdps(dps):
        lam = mpmath.mpf(float(rate))
        for i, si in enumerate(s):
            gamma = lam / (mpmath.mpc(si.real, si.imag) + lam)
            power = mpmath.mpc(1)
            for k in range(n):
                out[i, k] = complex(power)
                power *= gamma
    return out


class TestBlockedPowers:
    """``_powers`` builds ``γ^(qB+r)`` from two small ``exp`` tables; its
    error must stay within a few ulps per unit of ``k`` of the exact
    power."""

    RATE = 2.5
    N_MAX = 6001  # k <= 6000

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(2024)
        re = 10.0 ** rng.uniform(-6.0, 0.0, 24)
        im = np.sign(rng.uniform(-1.0, 1.0, 24)) \
            * self.RATE * 10.0 ** rng.uniform(-4.0, 4.0, 24)
        im[:3] = (0.0, self.RATE * 1e4, -self.RATE * 1e4)
        re[:3] = (1e-6, 1e-6, 1.0)
        s = re + 1j * im
        return s, _gamma_powers_mp(s, self.RATE, self.N_MAX)

    def _transform(self):
        model = random_ctmc(6, seed=1)
        rewards = RewardStructure.constant(6)
        main, _, _, abs_idx = ScheduleBuilder.for_model(model, rewards, 0)
        main.extend_to(2)
        return VklTransform(main.snapshot(), None, 1, None, self.RATE,
                            rewards.rates[abs_idx])

    @pytest.mark.parametrize("n", [
        1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 7,
        93 * _BLOCK, 6001])
    def test_against_mpmath(self, grid, n):
        s, exact = grid
        pw = self._transform()._powers(s, n)
        assert pw.shape == (s.size, n)
        assert np.all(pw[:, 0] == 1.0)
        ref = exact[:, :n]
        ks = np.arange(n)
        bound = 16.0 * (ks + 1) * 2.0 ** -53
        # Relative error where γ^k is a normal double, absolute below.
        scale = np.maximum(np.abs(ref), 1e-290)
        assert np.all(np.abs(pw - ref) <= bound * scale)

    def test_prefix_is_independent_of_width(self, grid):
        s, _ = grid
        tr = self._transform()
        wide = tr._powers(s, 3 * _BLOCK + 7)
        for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK):
            assert np.array_equal(tr._powers(s, n), wide[:, :n])


def _reference_transforms(main, primed, k, lp, rate, rf, s):
    """The transforms evaluated sum by sum, each with its own product
    against a per-entry ``exp(k·log γ)`` powers matrix."""
    lam = rate
    a, c = main.a[: k + 1], main.c[: k + 1]
    n_trans = min(k, main.vmass.shape[0])
    vsum, rfv = np.zeros(k), np.zeros(k)
    if main.vmass.shape[1]:
        vsum[:n_trans] = main.vmass[:n_trans].sum(axis=1)
        rfv[:n_trans] = main.vmass[:n_trans] @ rf

    def powers(n):
        gamma = lam / (s + lam)
        return np.exp(np.log(gamma)[:, None] * np.arange(n)[None, :])

    pw = powers(k + 1)
    b_val = s * (pw @ a) + lam * (pw[:, :k] @ vsum) + lam * a[k] * pw[:, k]
    trr = pw @ c + (lam / s) * (pw[:, :k] @ rfv)
    absorbed = (lam / s) * a[k] * pw[:, k]
    if primed is None:
        p0 = 1.0 / b_val
        return dict(p0=p0, trr=trr * p0, cumulative=trr * p0 / s,
                    p_absorbed_a=absorbed * p0)
    ap, cp = primed.a[: lp + 1], primed.c[: lp + 1]
    n_t = min(lp, primed.vmass.shape[0])
    vsum_p, rfv_p = np.zeros(lp), np.zeros(lp)
    if primed.vmass.shape[1]:
        vsum_p[:n_t] = primed.vmass[:n_t].sum(axis=1)
        rfv_p[:n_t] = primed.vmass[:n_t] @ rf
    pwp = powers(lp + 1)
    a_val = (1.0 - (s / (s + lam)) * (pwp[:, :lp] @ ap[:lp])
             - (lam / (s + lam)) * (pwp[:, :lp] @ vsum_p)
             - ap[lp] * pwp[:, lp])
    p0 = a_val / b_val
    trr = (trr * p0 + (pwp @ cp) / (s + lam)
           + (lam / (s + lam) / s) * (pwp[:, :lp] @ rfv_p))
    absorbed = absorbed * p0 + (lam / s) * ap[lp] * pwp[:, lp] / (s + lam)
    return dict(p0=p0, trr=trr, cumulative=trr / s, p_absorbed_a=absorbed)


class TestStackedProducts:
    """Each public transform, read from one stacked coefficient product
    per chain, agrees with the sums evaluated one by one."""

    @pytest.mark.parametrize("alpha_r", [1.0, 0.6])
    @pytest.mark.parametrize("absorbing", [0, 1, 2])
    @pytest.mark.parametrize("k,lp", [(8, 6), (_BLOCK - 1, _BLOCK),
                                      (300, 200)])
    def test_matches_per_sum_reference(self, alpha_r, absorbing, k, lp):
        n = 10
        initial = 0 if alpha_r == 1.0 else np.r_[alpha_r, 0.0,
                                                  1.0 - alpha_r,
                                                  np.zeros(n - 3)]
        model = random_ctmc(n, density=0.3, seed=11, absorbing=absorbing,
                            initial=initial)
        rewards = RewardStructure(np.linspace(0.3, 1.0, n))
        main, primed, rate, abs_idx = ScheduleBuilder.for_model(
            model, rewards, 0)
        main.extend_to(k + 1)
        if primed is not None:
            primed.extend_to(lp + 1)
        main_s = main.snapshot()
        primed_s = primed.snapshot() if primed is not None else None
        lp_eff = lp if primed is not None else None
        rf = rewards.rates[abs_idx]
        tr = VklTransform(main_s, primed_s, k, lp_eff, rate, rf)
        assert tr.k_point == k and tr.l_point == lp_eff
        t_period = 8.0 * 3.0
        s = 0.4 + 1j * np.pi / t_period * np.arange(40.0)
        s = np.r_[s, 2.0 + 0.5j, 1e-3 - 7.0j, 30.0 + 300.0j]
        ref = _reference_transforms(main_s, primed_s, k, lp_eff, rate, rf,
                                    s)
        for name, want in ref.items():
            np.testing.assert_allclose(getattr(tr, name)(s), want,
                                       rtol=1e-13, atol=0.0, err_msg=name)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999),
       n=st.integers(min_value=4, max_value=10),
       k=st.integers(min_value=1, max_value=12),
       absorbing=st.integers(min_value=0, max_value=2))
def test_conservation_property(seed, n, k, absorbing):
    """Property: TRR̃_unit(s) + p̃_a(s) = 1/s on random schedules —
    probability is conserved by the closed-form transform for any
    truncation point, chain and absorbing-state count."""
    if absorbing >= n - 2:
        absorbing = 0
    model = random_ctmc(n, density=0.5, seed=seed, absorbing=absorbing)
    unit = RewardStructure.constant(n, 1.0)
    main, primed, rate, abs_idx = ScheduleBuilder.for_model(model, unit, 0)
    main.extend_to(k + 1)
    tr = VklTransform(main.snapshot(), None, k, None, rate,
                      unit.rates[abs_idx])
    s = np.array([0.9 + 0.7j, 3.0 + 0.0j, 0.05 + 9.0j, 11.0 - 2.0j])
    lhs = tr.trr(s) + tr.p_absorbed_a(s)
    assert np.allclose(lhs, 1.0 / s, rtol=1e-9)
