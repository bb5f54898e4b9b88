"""Multistep randomization — the Reibman–Trivedi variant (paper §1).

For large ``Λt`` the Poisson weights concentrate in a window of width
``O(√(Λt))`` around ``Λt``; the ``L ≈ Λt`` steps needed just to *reach*
that window dominate SR's cost. Multistep replaces them by ``O(log L)``
squarings/multiplications with powers of the randomized matrix:

    π_L = π · P^L,   P^L built from the binary expansion of L,

then sums the window with ordinary steps. The catch — the very reason
the paper dismisses it — is **fill-in**: powers of a sparse transition
matrix densify, so memory/time per multiplication grow toward ``n²``
while plain SR keeps the original sparsity forever. This implementation
is faithful to that trade-off: it tracks the densification and refuses
(with :class:`~repro.exceptions.TruncationError`) past a configurable
nnz budget rather than silently thrashing.

Only the instant-of-time measure is supported (the interval measure
needs every ``d_n``, which defeats step-skipping).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.batch.kernel import UniformizationKernel, ensure_model_kernel
from repro.exceptions import TruncationError
from repro.markov.base import TransientSolution, as_time_array
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.solvers.registry import SolverSpec, register

__all__ = ["MultistepRandomizationSolver"]


class MultistepRandomizationSolver:
    """Transient TRR solver using multistep (power-skipping) randomization.

    Parameters
    ----------
    rate:
        Randomization rate; defaults to the model's maximum output rate.
    max_power_nnz:
        Abort when any accumulated matrix power exceeds this many stored
        nonzeros (fill-in guard). Defaults to 5 million (~80 MB).
    """

    method_name = "MS"

    def __init__(self, rate: float | None = None,
                 max_power_nnz: int = 5_000_000) -> None:
        self._rate = rate
        self._max_power_nnz = int(max_power_nnz)

    def _skip_to(self, p: sparse.csr_matrix, pi: np.ndarray,
                 skip: int) -> tuple[np.ndarray, int, int]:
        """Compute ``pi P^skip`` by binary powering.

        Returns ``(vector, matrix_multiplications, max_nnz_seen)``.
        """
        matmuls = 0
        max_nnz = p.nnz
        power = p
        out = pi
        k = skip
        while k:
            if k & 1:
                out = power.T @ out
            k >>= 1
            if k:
                power = (power @ power).tocsr()
                power.eliminate_zeros()
                matmuls += 1
                max_nnz = max(max_nnz, power.nnz)
                if power.nnz > self._max_power_nnz:
                    raise TruncationError(
                        f"multistep fill-in: P^(2^j) reached {power.nnz} "
                        f"nonzeros (> {self._max_power_nnz}); this is the "
                        "drawback the paper cites for the method")
        return np.asarray(out).ravel(), matmuls, max_nnz

    def solve(self,
              model: CTMC,
              rewards: RewardStructure,
              measure: Measure,
              times: np.ndarray | list[float],
              eps: float = 1e-12,
              *,
              kernel: UniformizationKernel | None = None
              ) -> TransientSolution:
        """Compute TRR at every time point with total error ``eps``.

        ``kernel`` may be a pre-built (cached/shared) kernel from
        ``UniformizationKernel.from_model(model)``; results are
        bit-identical to letting the solver build its own.
        """
        if measure is not Measure.TRR:
            raise ValueError("multistep randomization supports TRR only")
        rewards.check_model(model)
        t_arr = as_time_array(times)
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        kernel, dtmc, rate = ensure_model_kernel(model, kernel, self._rate)
        r_max = rewards.max_rate
        if r_max == 0.0:
            return TransientSolution(
                times=t_arr, values=np.zeros_like(t_arr), measure=measure,
                eps=eps, steps=np.zeros(t_arr.size, dtype=int),
                method=self.method_name, stats={"rate": rate})

        p = dtmc.transition_matrix
        r = rewards.rates
        values = np.empty(t_arr.size)
        steps = np.empty(t_arr.size, dtype=np.int64)
        total_matmuls = 0
        worst_nnz = p.nnz
        for i, t in enumerate(t_arr):
            window = kernel.window(t, eps / r_max)
            pi, matmuls, max_nnz = self._skip_to(p, dtmc.initial.copy(),
                                                 window.left)
            total_matmuls += matmuls
            worst_nnz = max(worst_nnz, max_nnz)
            acc = 0.0
            for j in range(window.size):
                acc += window.weights[j] * float(r @ pi)
                if j + 1 < window.size:
                    pi = kernel.step(pi)
            values[i] = acc
            # Cost metric: window steps + log-many (dense-ish) matmuls.
            steps[i] = window.size - 1 + matmuls
        return TransientSolution(
            times=t_arr, values=values, measure=measure, eps=eps,
            steps=steps, method=self.method_name,
            stats={"rate": rate,
                   "matrix_multiplications": total_matmuls,
                   "max_power_nnz": worst_nnz,
                   "base_nnz": p.nnz})


register(SolverSpec(
    name="MS",
    constructor=MultistepRandomizationSolver,
    summary="Multistep (power-skipping) randomization for TRR",
    kernel_aware=True,
    measures=("TRR",),
))
