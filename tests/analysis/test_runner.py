"""Solver registry and the one-call solve() front door."""

import numpy as np
import pytest

from repro import TRR, RRLSolver
from repro.analysis import get_solver, solve
from repro.solvers import registry
from tests.conftest import exact_two_state_ua


class TestRegistry:
    def test_all_methods_present(self):
        assert set(registry.known_methods()) == {"RRL", "RR", "SR", "RSD"}

    def test_case_insensitive(self):
        assert isinstance(get_solver("rrl"), RRLSolver)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_solver("FFT")

    def test_kwargs_forwarded(self):
        s = get_solver("RRL", t_factor=4.0)
        assert s._t_factor == 4.0


class TestSolve:
    @pytest.mark.parametrize("method", ["RRL", "RR", "SR", "RSD"])
    def test_every_method_solves(self, method, two_state):
        model, rewards, *_ = two_state
        sol = solve(model, rewards, TRR, [1.0], eps=1e-9, method=method)
        assert sol.values[0] == pytest.approx(exact_two_state_ua(1.0),
                                              abs=1e-9)
        assert sol.method == method

    def test_scalar_time(self, two_state):
        model, rewards, *_ = two_state
        sol = solve(model, rewards, TRR, 2.5, eps=1e-9)
        assert sol.times.shape == (1,)

    @pytest.mark.parametrize("times", [np.float64(2.5), np.array(2.5),
                                       np.array([2.5])[0]],
                             ids=["np.float64", "0-d array", "indexed"])
    def test_numpy_scalar_times(self, two_state, times):
        # np.isscalar(np.array(2.5)) is False while
        # np.isscalar(np.float64(2.5)) is True — every scalar spelling
        # must land on the same single-time solve.
        model, rewards, *_ = two_state
        sol = solve(model, rewards, TRR, times, eps=1e-9)
        assert sol.times.shape == (1,)
        assert sol.values[0] == pytest.approx(exact_two_state_ua(2.5),
                                              abs=1e-8)

    @pytest.mark.parametrize("empty", [[], (), np.array([])],
                             ids=["list", "tuple", "array"])
    def test_empty_times_rejected_early(self, two_state, empty):
        model, rewards, *_ = two_state
        with pytest.raises(ValueError, match="at least one time point"):
            solve(model, rewards, TRR, empty, eps=1e-9)

    def test_default_method_is_rrl(self, two_state):
        model, rewards, *_ = two_state
        sol = solve(model, rewards, TRR, [1.0], eps=1e-9)
        assert sol.method == "RRL"
