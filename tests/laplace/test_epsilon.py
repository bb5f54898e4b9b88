"""Wynn epsilon algorithm: acceleration of classic slowly-convergent
series and degeneracy handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedules import ScheduleBuilder
from repro.core.transforms import VklTransform
from repro.laplace.durbin import durbin_partial_sums
from repro.laplace.epsilon import (
    _DEGENERATE_RTOL,
    _TINY,
    EpsilonAccelerator,
    wynn_epsilon,
)
from repro.laplace.error_control import damping_for_bounded
from repro.models import Raid5Params, build_raid5_reliability


def partial_sums(terms):
    return np.cumsum(np.asarray(terms, dtype=float))


class TestAcceleration:
    def test_geometric_series_exact(self):
        # Σ x^k = 1/(1-x): the Shanks transform is exact for geometric
        # sequences after a handful of terms.
        x = 0.7
        sums = partial_sums(x ** np.arange(12))
        est = wynn_epsilon(sums)
        assert est == pytest.approx(1.0 / (1.0 - x), abs=1e-12)

    def test_alternating_log2(self):
        # Σ (-1)^{k+1}/k = ln 2 converges like 1/n; epsilon makes 20 terms
        # worth ~1e-12 — the same mechanism Crump's inversion relies on.
        k = np.arange(1, 22, dtype=float)
        sums = partial_sums((-1.0) ** (k + 1) / k)
        est = wynn_epsilon(sums)
        assert est == pytest.approx(np.log(2.0), abs=1e-10)
        # Raw partial sums are nowhere near that accurate.
        assert abs(sums[-1] - np.log(2.0)) > 1e-2

    def test_pi_leibniz(self):
        k = np.arange(0, 25, dtype=float)
        sums = partial_sums((-1.0) ** k / (2.0 * k + 1.0))
        est = wynn_epsilon(sums)
        assert est == pytest.approx(np.pi / 4.0, abs=1e-10)

    def test_incremental_matches_batch(self):
        x = 0.5
        sums = partial_sums(x ** np.arange(10))
        acc = EpsilonAccelerator()
        last = None
        for s in sums:
            last = acc.add(s)
        assert last == pytest.approx(wynn_epsilon(sums), abs=0.0)
        assert acc.n_terms == 10
        assert acc.estimate == last


class TestDegeneracy:
    def test_constant_sequence(self):
        # Identical partial sums (already converged): no division blowup.
        acc = EpsilonAccelerator()
        for _ in range(8):
            est = acc.add(4.25)
        assert est == 4.25

    def test_eventually_constant(self):
        sums = [1.0, 1.5, 1.75, 2.0, 2.0, 2.0, 2.0]
        acc = EpsilonAccelerator()
        for s in sums:
            est = acc.add(s)
        assert est == pytest.approx(2.0)
        assert np.isfinite(est)

    def test_zero_terms(self):
        acc = EpsilonAccelerator()
        assert acc.n_terms == 0
        assert acc.estimate == 0.0

    def test_single_term(self):
        acc = EpsilonAccelerator()
        assert acc.add(3.0) == 3.0


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(min_value=-0.9, max_value=0.9),
       scale=st.floats(min_value=0.1, max_value=100.0),
       n=st.integers(min_value=6, max_value=25))
def test_geometric_property(ratio, scale, n):
    """Property: epsilon recovers the limit of any geometric series to
    near machine precision, regardless of sign/scale."""
    if abs(ratio) < 1e-6:
        ratio = 0.5
    sums = partial_sums(scale * ratio ** np.arange(n))
    est = wynn_epsilon(sums)
    limit = scale / (1.0 - ratio)
    assert est == pytest.approx(limit, rel=1e-8, abs=1e-8)


def indexed_add(old, partial_sum):
    """Reference: the recurrence written with explicit list indexing.

    Returns the next anti-diagonal and its best estimate; the
    accelerator must reproduce both bit for bit.
    """
    s = float(partial_sum)
    new = [s]
    for k in range(1, len(old) + 1):
        denom = new[k - 1] - old[k - 1]
        prev = old[k - 2] if k >= 2 else 0.0
        scale = abs(new[k - 1]) + abs(old[k - 1])
        if (not math.isfinite(denom)
                or abs(denom) <= _DEGENERATE_RTOL * scale + _TINY):
            break
        nxt = prev + 1.0 / denom
        if not math.isfinite(nxt):
            break
        new.append(nxt)
    top = len(new) - 1
    if top % 2 == 1:
        top -= 1
    return new, new[top]


def durbin_sums_of_paper_model(n_terms=200):
    """Durbin partial sums of a RAID-5 ``VklTransform.trr`` (G = 2)."""
    model, rewards, _ = build_raid5_reliability(Raid5Params(groups=2))
    main, primed, rate, absorbing = ScheduleBuilder.for_model(
        model, rewards, 0)
    assert primed is None
    k = 30
    main.extend_to(k + 1)
    transform = VklTransform(main.snapshot(), None, k, None, rate,
                             rewards.rates[absorbing])
    t = 1e3
    t_period = 8.0 * t
    a = damping_for_bounded(1e-12 / 4.0, 1.0, t_period)
    sums = list(durbin_partial_sums(transform.trr, t, a, t_period,
                                    n_terms))
    assert len(sums) == n_terms
    return sums


REFERENCE_INPUTS = {
    "geometric": lambda: partial_sums(0.7 ** np.arange(40)),
    "alternating_log2": lambda: partial_sums(
        (-1.0) ** np.arange(2, 62) / np.arange(1, 61)),
    "leibniz": lambda: partial_sums(
        (-1.0) ** np.arange(60) / (2.0 * np.arange(60) + 1.0)),
    "constant": lambda: [4.25] * 10,
    "eventually_constant": lambda: [1.0, 1.5, 1.75, 2.0, 2.0, 2.0, 2.0,
                                    2.0],
    "with_inf": lambda: [1.0, 1.5, math.inf, 1.8, 1.9, 1.95, -math.inf,
                         2.0, 2.01],
    "with_nan": lambda: [1.0, math.nan, 1.5, 1.75, 1.875, math.nan,
                         1.9, 1.95, 1.97],
    "random_walk": lambda: partial_sums(
        np.random.default_rng(4).standard_normal(120)),
    "durbin_raid5": durbin_sums_of_paper_model,
}


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
def test_add_matches_indexed_reference_bitwise(name):
    """Estimates and anti-diagonals equal the indexed recurrence bit for
    bit, cuts (degenerate and non-finite) included."""
    acc = EpsilonAccelerator()
    diag: list[float] = []
    lengths = []
    for s in REFERENCE_INPUTS[name]():
        diag, want = indexed_add(diag, s)
        got = acc.add(s)
        assert bits([got]) == bits([want])
        assert bits(acc._diag) == bits(diag)
        lengths.append(len(diag))
    if name == "constant":
        # The degenerate cut keeps the anti-diagonal at depth 1.
        assert max(lengths) == 1
    if name == "random_walk":
        # Never degenerate: the table grows by one entry per term.
        assert lengths == list(range(1, len(lengths) + 1))
