"""Unit tests for the shared uniformization kernel.

The load-bearing property: a kernel step, and a step of several chains
stacked block-diagonally, must be *bit-for-bit* identical to the
reference product — the solvers that were rewired onto the kernel may
not change a single ulp.
"""

import numpy as np
import pytest

from repro.batch.kernel import (
    UniformizationKernel,
    fox_glynn_cache_clear,
    fox_glynn_cache_info,
    kernel_build_count,
    shared_fox_glynn,
)
from repro.exceptions import ModelError
from repro.markov.poisson import fox_glynn
from repro.models.library import random_ctmc, two_state_availability


def _steps(kernel, x, n):
    """``n`` uniformized steps of a copy of ``x``."""
    out = np.array(x, dtype=np.float64)
    for _ in range(n):
        out = kernel.step(out)
    return out


@pytest.fixture
def kernel_and_model():
    model = random_ctmc(40, density=0.2, seed=7)
    kernel = UniformizationKernel.from_model(model)
    return kernel, kernel.dtmc, kernel.rate, model


class TestPropagation:
    def test_step_matches_dtmc_step_bitwise(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        pi = dtmc.initial.copy()
        assert np.array_equal(kernel.step(pi), dtmc.step(pi))

    def test_step_into_out_buffer_bitwise(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        x = dtmc.initial
        out = np.full_like(x, np.nan)  # stale contents are cleared
        before = kernel.steps_done
        got = kernel.step(x, out=out)
        assert got is out
        assert np.array_equal(out, kernel.step(x))
        assert kernel.steps_done - before == 2

    def test_step_out_buffer_checks(self, kernel_and_model):
        kernel, dtmc, _, model = kernel_and_model
        pi = dtmc.initial.copy()
        with pytest.raises(ValueError):
            kernel.step(pi, out=np.empty(model.n_states + 1))
        with pytest.raises(ValueError):
            kernel.step(pi, out=pi)

    # Zeroing ``out`` first would wipe an operand it overlaps.
    def test_step_out_rejects_same_row_view(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        rows = np.tile(dtmc.initial, (2, 1))
        with pytest.raises(ValueError, match="sharing no memory"):
            kernel.step(rows[0], out=rows[0])

    def test_step_out_rejects_overlapping_slice(self, kernel_and_model):
        kernel, _, _, model = kernel_and_model
        buf = np.ones(model.n_states + 1)
        with pytest.raises(ValueError, match="sharing no memory"):
            kernel.step(buf[:-1], out=buf[1:])

    def test_step_out_allows_disjoint_rows(self, kernel_and_model):
        # Disjoint rows of one buffer stay allowed (the π_n walk's case).
        kernel, dtmc, _, _ = kernel_and_model
        rows = np.tile(dtmc.initial, (2, 1))
        got = kernel.step(rows[0], out=rows[1])
        assert np.shares_memory(got, rows[1])
        assert np.array_equal(rows[1], kernel.step(dtmc.initial))

    def test_step_into_strided_out_bitwise(self, kernel_and_model):
        # A column of a 2-D buffer is a strided vector; the product lands
        # in it bit for bit and leaves the other column alone.
        kernel, dtmc, _, model = kernel_and_model
        buf = np.full((model.n_states, 2), np.nan)
        got = kernel.step(dtmc.initial, out=buf[:, 1])
        assert np.shares_memory(got, buf)
        assert np.array_equal(buf[:, 1], kernel.step(dtmc.initial))
        assert np.isnan(buf[:, 0]).all()

    def test_step_returns_a_fresh_array(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        before = dtmc.initial.copy()
        out = kernel.step(dtmc.initial)
        # Never the cached chain's own initial vector: writing to it
        # must leave the shared kernel's chain untouched.
        assert not np.shares_memory(out, dtmc.initial)
        out[:] = -1.0
        assert np.array_equal(kernel.dtmc.initial, before)

    def test_step_counter(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        assert kernel.steps_done == 0
        _steps(kernel, dtmc.initial, 4)
        assert kernel.steps_done == 4


class TestStack:
    """``UniformizationKernel.stack``: a block-diagonal kernel whose step
    equals each chain's own step bit for bit."""

    @staticmethod
    def _kernels():
        return [UniformizationKernel.from_model(
            random_ctmc(n, density=0.3, seed=n)) for n in (5, 40, 17)]

    def test_stacked_step_equals_each_kernel_bitwise(self):
        kernels = self._kernels()
        stacked = UniformizationKernel.stack(kernels)
        rng = np.random.default_rng(9)
        parts = [rng.dirichlet(np.ones(k.n_states)) for k in kernels]
        pi = np.concatenate(parts)
        for _ in range(12):
            pi = stacked.step(pi)
            parts = [k.step(p) for k, p in zip(kernels, parts)]
            assert np.array_equal(pi, np.concatenate(parts))
        assert stacked.n_states == sum(k.n_states for k in kernels)
        assert stacked.steps_done == 12
        assert stacked.rate is None and stacked.dtmc is None

    def test_is_no_kernel_build_and_shares_no_counter(self):
        kernels = self._kernels()
        built = kernel_build_count()
        stacked = UniformizationKernel.stack(kernels)
        stacked.step(np.ones(stacked.n_states))
        assert kernel_build_count() == built
        assert [k.steps_done for k in kernels] == [0, 0, 0]

    def test_one_kernel_stacks_to_itself(self):
        kernel = self._kernels()[0]
        assert UniformizationKernel.stack([kernel]) is kernel

    def test_needs_transition_matrices(self):
        model = random_ctmc(6, density=0.5, seed=1)
        with pytest.raises(ModelError):
            UniformizationKernel.stack(
                [UniformizationKernel.from_generator(model),
                 self._kernels()[0]])
        with pytest.raises(ModelError):
            UniformizationKernel.stack([])


class TestDirectProduct:
    """``step``/``step_rate`` call scipy's CSR routines directly; these
    pin them to the ``@`` operator bit for bit, so a scipy release that
    changes its private ``_sparsetools`` routines fails here."""

    @pytest.fixture
    def kernel(self, kernel_and_model):
        return kernel_and_model[0]

    @pytest.fixture
    def q_kernel(self, kernel_and_model):
        """Generator kernel of the same model, with its rate."""
        _, _, rate, model = kernel_and_model
        return UniformizationKernel.from_generator(model), rate

    @staticmethod
    def operands(n):
        rng = np.random.default_rng(5)
        return {
            "vector": rng.random(n),
            "strided_column": rng.random((n, 4))[:, 2],
            "float32": rng.random(n).astype(np.float32),
            "int": np.arange(n),
        }

    @pytest.mark.parametrize("name", ["vector", "strided_column",
                                      "float32", "int"])
    def test_step_is_bitwise_matmul(self, kernel, name):
        x = self.operands(kernel.n_states)[name]
        out = kernel.step(x)
        expected = kernel._pt @ x
        assert out.dtype == expected.dtype == np.float64
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("name", ["vector", "strided_column"])
    def test_step_rate_is_bitwise_formula(self, q_kernel, name):
        kernel, lam = q_kernel
        x = self.operands(kernel.n_states)[name]
        rate = 1.5 * lam
        expected = x + (kernel._qt @ x) / rate
        assert np.array_equal(kernel.step_rate(x, rate), expected)

    @pytest.mark.parametrize("name", ["vector", "strided_column"])
    def test_every_call_returns_a_new_array(self, kernel, q_kernel, name):
        x = self.operands(kernel.n_states)[name]
        q, lam = q_kernel
        for out in (kernel.step(x), q.step_rate(x, lam)):
            assert out is not x
            assert not np.shares_memory(out, x)
        first, second = kernel.step(x), kernel.step(x)
        assert first is not second

    def test_wrong_length_raises(self, kernel, q_kernel):
        n = kernel.n_states
        q, lam = q_kernel
        # A column stack is refused too: every product steps one vector.
        for bad in (np.ones(n + 1), np.ones(n - 1), np.ones((n, 2)),
                    np.ones((n + 1, 2)), np.ones((n, 2, 2)),
                    np.float64(1.0)):
            with pytest.raises(ValueError):
                kernel.step(bad)
            with pytest.raises(ValueError):
                q.step_rate(bad, lam)


class TestStepRate:
    def test_matches_explicit_generator_step(self):
        model, _ = two_state_availability()
        kernel = UniformizationKernel.from_generator(model)
        v = model.initial.copy()
        lam = model.max_output_rate
        expected = v + (model.generator.T @ v) / lam
        assert np.allclose(kernel.step_rate(v, lam), expected,
                           rtol=0.0, atol=0.0)

    def test_requires_generator(self):
        model, _ = two_state_availability()
        dtmc, rate = model.uniformize()
        kernel = UniformizationKernel(dtmc.transition_matrix, rate=rate)
        with pytest.raises(ModelError):
            kernel.step_rate(dtmc.initial, 1.0)

    def test_from_model_kernel_has_no_generator(self):
        # Solvers never step at a varying rate, so the kernel they build
        # keeps no Qᵀ.
        model, _ = two_state_availability()
        kernel = UniformizationKernel.from_model(model)
        assert not kernel.has_generator
        with pytest.raises(ModelError):
            kernel.step_rate(kernel.dtmc.initial, kernel.rate)

    def test_rejects_nonpositive_rate(self):
        model, _ = two_state_availability()
        kernel = UniformizationKernel.from_generator(model)
        with pytest.raises(ValueError):
            kernel.step_rate(model.initial, 0.0)

    def test_generator_only_kernel(self):
        # No P is built, step_rate still works and fixed-rate stepping
        # is refused.
        model, _ = two_state_availability()
        kernel = UniformizationKernel.from_generator(model)
        assert kernel.n_states == model.n_states
        v = model.initial.copy()
        lam = model.max_output_rate
        expected = v + (model.generator.T @ v) / lam
        assert np.array_equal(kernel.step_rate(v, lam), expected)
        with pytest.raises(ModelError):
            kernel.step(v)
        with pytest.raises(ModelError):
            UniformizationKernel(None)


class TestFoxGlynnCache:
    def test_hit_behavior(self):
        fox_glynn_cache_clear()
        w1 = shared_fox_glynn(50.0, 1e-10)
        info = fox_glynn_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        w2 = shared_fox_glynn(50.0, 1e-10)
        info = fox_glynn_cache_info()
        assert info["hits"] == 1
        assert w1 is w2  # same cached object, not a recomputation
        shared_fox_glynn(50.0, 1e-8)  # different eps → different key
        assert fox_glynn_cache_info()["misses"] == 2

    def test_cached_window_matches_direct(self):
        fox_glynn_cache_clear()
        cached = shared_fox_glynn(123.5, 1e-9)
        direct = fox_glynn(123.5, 1e-9)
        assert cached.left == direct.left and cached.right == direct.right
        assert np.array_equal(cached.weights, direct.weights)

    def test_kernel_window_uses_shared_cache(self):
        model, _ = two_state_availability()
        kernel = UniformizationKernel.from_model(model)
        fox_glynn_cache_clear()
        kernel.window(5.0, 1e-10)
        kernel.window(5.0, 1e-10)
        info = fox_glynn_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_window_requires_rate(self):
        model, _ = two_state_availability()
        dtmc, _ = model.uniformize()
        kernel = UniformizationKernel(dtmc.transition_matrix)
        with pytest.raises(ModelError):
            kernel.window(1.0, 1e-10)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ModelError):
            UniformizationKernel(np.ones((2, 3)))


class TestModelKernel:
    """``CTMC.kernel``: a model keeps its default-rate kernel; a pinned
    rate builds a fresh one."""

    def test_default_kernel_is_built_once(self):
        model, _ = two_state_availability()
        before = kernel_build_count()
        kernel = model.kernel()
        assert model.kernel() is kernel
        assert kernel_build_count() - before == 1
        assert kernel.rate == model.max_output_rate
        assert np.array_equal(kernel.dtmc.initial,
                              model.uniformize()[0].initial)

    def test_default_kernel_steps_as_a_fresh_build_bitwise(self):
        model = random_ctmc(40, density=0.2, seed=7)
        shared = model.kernel()
        fresh = UniformizationKernel.from_model(model)
        x = fresh.dtmc.initial
        assert _steps(shared, x, 5).tobytes() == \
            _steps(fresh, x, 5).tobytes()
        assert shared.rate == fresh.rate

    def test_pinned_rate_builds_a_fresh_kernel_per_call(self):
        model, _ = two_state_availability()
        rate = 2.0 * model.max_output_rate
        before = kernel_build_count()
        first, second = model.kernel(rate), model.kernel(rate)
        assert first is not second and first is not model.kernel()
        assert first.rate == second.rate == rate
        assert kernel_build_count() - before == 3

    def test_rate_below_max_output_rate_is_refused(self):
        model, _ = two_state_availability()
        with pytest.raises(ModelError, match="below max output rate"):
            model.kernel(0.5 * model.max_output_rate)


_NO_SPARSETOOLS = r"""
import sys

import numpy as np
import scipy.sparse

# The import of repro.batch.kernel below now fails to find the module.
del scipy.sparse._sparsetools
sys.modules["scipy.sparse._sparsetools"] = None

from repro.batch import kernel
from repro.batch.kernel import UniformizationKernel
from repro.models.library import random_ctmc

assert kernel._sparsetools is None
step = UniformizationKernel.from_model(
    random_ctmc(40, density=0.2, seed=7))
x = np.random.default_rng(5).random(40)
expected = step._pt @ x
assert step.step(x).tobytes() == expected.tobytes()
out = np.full(x.shape, 7.0)
assert step.step(x, out=out) is out
assert out.tobytes() == expected.tobytes()
print("ok")
"""


def test_products_fall_back_to_matmul_without_private_sparsetools():
    # A scipy without ``scipy.sparse._sparsetools``, simulated in a fresh
    # interpreter: the kernel imports, and its products stay bit-for-bit
    # ``Pᵀ @ x``.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NO_SPARSETOOLS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
