"""Stationary solvers: GTH vs the sparse pinned solve vs closed forms.

The sparse path solves the pinned system with ILU-preconditioned GMRES
and falls back to the complete sparse LU. Its tests compare it with a
local complete-LU solve of the same pinned system: on a paper RAID chain,
on stiff chains against GTH, and on the two fallback triggers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from repro import CTMC
from repro.analysis.experiments import ExperimentConfig
from repro.exceptions import ModelError
from repro.markov import steady_state
from repro.markov.steady_state import (
    gth_solve,
    stationary_distribution,
    stationary_residual,
)
from repro.models import (
    birth_death,
    block_structured_ctmc,
    build_raid5_availability,
    random_ctmc,
)


def _complete_lu(q):
    """The pinned system at the bulk state, solved by one complete LU."""
    n = q.shape[0]
    j = steady_state._bulk_state(q)
    keep = np.arange(n) != j
    qt = q.T.tocsc()
    x = spsolve(qt[keep][:, keep].tocsc(),
                -qt[keep][:, [j]].toarray().ravel())
    pi = np.empty(n)
    pi[keep] = x
    pi[j] = 1.0
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _l1(a, b):
    return float(np.abs(a - b).sum())


@pytest.fixture(scope="module")
def raid_g20():
    """Generator of the paper's G=20 RAID availability chain (5521 states)."""
    params = ExperimentConfig.paper().params_for(20)
    model, _, _ = build_raid5_availability(params)
    return model


class TestGth:
    def test_two_state(self):
        q = np.array([[-1.0, 1.0], [10.0, -10.0]])
        pi = gth_solve(q)
        assert np.allclose(pi, [10.0 / 11.0, 1.0 / 11.0])

    def test_birth_death_geometric(self):
        model = birth_death(6, birth=2.0, death=3.0)
        pi = gth_solve(model.generator.toarray())
        rho = 2.0 / 3.0
        expected = rho ** np.arange(6)
        expected /= expected.sum()
        assert np.allclose(pi, expected, rtol=1e-12)

    def test_diagonal_ignored(self):
        q = np.array([[5.0, 1.0], [10.0, 77.0]])  # garbage diagonals
        pi = gth_solve(q)
        assert np.allclose(pi, [10.0 / 11.0, 1.0 / 11.0])

    def test_reducible_raises(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ModelError):
            gth_solve(q)

    def test_stiff_rates_stable(self):
        # GTH is subtraction-free: 12 orders of magnitude are fine.
        q = np.array([[-1e-6, 1e-6, 0.0],
                      [1e6, -1e6 - 1e-6, 1e-6],
                      [0.0, 1e6, -1e6]])
        pi = gth_solve(q)
        flow = pi @ q
        np.fill_diagonal(q, 0.0)
        assert np.all(pi > 0.0)
        assert np.allclose(flow, 0.0, atol=1e-12 * np.abs(q).max())


class TestDispatch:
    @pytest.mark.parametrize("method", ["gth", "sparse"])
    def test_methods_agree(self, method, random_irreducible):
        pi = stationary_distribution(random_irreducible, method=method)
        q = random_irreducible.generator
        assert np.allclose(pi @ q, 0.0, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0)

    def test_dtmc_input(self, random_irreducible):
        dtmc, _ = random_irreducible.uniformize(slack=1.1)
        pi_c = stationary_distribution(random_irreducible)
        pi_d = stationary_distribution(dtmc)
        assert np.allclose(pi_c, pi_d, atol=1e-10)

    def test_unknown_method(self, random_irreducible):
        with pytest.raises(ValueError):
            stationary_distribution(random_irreducible, method="magic")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            stationary_distribution(np.eye(2))  # type: ignore[arg-type]

    def test_auto_uses_sparse_for_large(self):
        model = birth_death(1500, 1.0, 2.0)
        pi = stationary_distribution(model)  # must not take O(n^3) forever
        rho = 0.5
        expected = rho ** np.arange(1500)
        expected /= expected.sum()
        assert np.allclose(pi[:50], expected[:50], rtol=1e-8)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10_000))
def test_gth_sparse_agree_property(n, seed):
    """Property: both solvers produce the same stationary vector."""
    model = random_ctmc(n, density=0.5, seed=seed)
    pi_g = stationary_distribution(model, method="gth")
    pi_s = stationary_distribution(model, method="sparse")
    assert np.allclose(pi_g, pi_s, atol=1e-9)


class TestSparsePath:
    def test_raid_matches_complete_lu(self, raid_g20, monkeypatch):
        q = raid_g20.generator
        want = _complete_lu(q)

        def no_lu(*args, **kwargs):
            raise AssertionError("complete LU called")

        monkeypatch.setattr(steady_state, "spsolve", no_lu)
        pi = stationary_distribution(raid_g20, method="sparse")
        assert _l1(pi, want) <= 1e-14
        assert stationary_residual(raid_g20, pi) <= 1e-8 * np.abs(q.data).max()

    @pytest.mark.parametrize("model", [
        birth_death(1000, 0.99, 1.0),
        random_ctmc(600, density=0.01, seed=5),
    ], ids=["birth-death-0.99", "random-sparse"])
    def test_as_close_to_gth_as_complete_lu(self, model):
        q = model.generator
        exact = gth_solve(q.toarray())
        pi = stationary_distribution(model, method="sparse")
        assert _l1(pi, exact) <= _l1(_complete_lu(q), exact) + 1e-14

    @pytest.mark.parametrize("inter_scale", [1e-3, 1e-6, 1e-9])
    def test_nearly_decomposable_as_close_to_gth_as_complete_lu(
            self, inter_scale):
        # Both pinned solves lose digits to the conditioning here (L1
        # errors of ~1e-11 / 1e-8 / 1e-5 against GTH), and which of the
        # two lands closer on one chain is rounding noise. Over 8 chains
        # the totals must agree within that noise.
        got = lu = 0.0
        for seed in range(8):
            model, _ = block_structured_ctmc(8, 40, inter_scale=inter_scale,
                                             seed=seed)
            q = model.generator
            exact = gth_solve(q.toarray())
            got += _l1(stationary_distribution(model, method="sparse"),
                       exact)
            lu += _l1(_complete_lu(q), exact)
        assert got <= 2.0 * lu + 1e-14

    def test_ilu_failure_falls_back_to_complete_lu(self, raid_g20,
                                                   monkeypatch):
        def failing_ilu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(steady_state, "spilu", failing_ilu)
        pi = stationary_distribution(raid_g20, method="sparse")
        assert np.array_equal(pi, _complete_lu(raid_g20.generator))

    def test_gmres_non_convergence_falls_back_to_complete_lu(
            self, raid_g20, monkeypatch):
        def stalled_gmres(a, b, **kwargs):
            return np.zeros_like(b), 100

        monkeypatch.setattr(steady_state, "gmres", stalled_gmres)
        pi = stationary_distribution(raid_g20, method="sparse")
        assert np.array_equal(pi, _complete_lu(raid_g20.generator))
