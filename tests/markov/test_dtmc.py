"""DTMC container: validation and renormalization."""

import numpy as np
import pytest
from scipy import sparse

from repro import DTMC
from repro.exceptions import ModelError


def simple_p():
    return np.array([[0.5, 0.5, 0.0],
                     [0.2, 0.3, 0.5],
                     [0.0, 0.0, 1.0]])


class TestConstruction:
    def test_basic(self):
        d = DTMC(simple_p())
        assert d.n_states == 3

    def test_rows_must_be_stochastic(self):
        p = simple_p()
        p[0, 0] = 0.6
        with pytest.raises(ModelError):
            DTMC(p)

    def test_negative_rejected(self):
        p = simple_p()
        p[0, 0], p[0, 1] = -0.1, 1.1
        with pytest.raises(ModelError):
            DTMC(p)

    def test_renormalize_fixes_roundoff(self):
        p = simple_p() * (1.0 + 1e-13)
        d = DTMC(p, renormalize=True)
        sums = np.asarray(d.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-15)

    def test_renormalize_gives_zero_rows_self_loop(self):
        p = sparse.csr_matrix((3, 3))
        d = DTMC(p, renormalize=True)
        assert np.allclose(d.transition_matrix.diagonal(), 1.0)

    def test_bad_initial(self):
        with pytest.raises(ModelError):
            DTMC(simple_p(), initial=np.array([0.5, 0.0, 0.0]))

    def test_labels_mismatch(self):
        with pytest.raises(ModelError):
            DTMC(simple_p(), labels=["x"])

