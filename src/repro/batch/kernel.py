"""Shared uniformized-stepping kernel.

Every randomization-based solver in this package ultimately does the same
two things:

1. step one or more row vectors through the randomized DTMC,
   ``π ↦ π P`` with ``P = I + Q/Λ`` (the one ``π_n`` sweep that SR and RSD
   share, :mod:`repro.markov.sweep`; the regenerative schedule recursions
   of RR/RRL; multistep's window summation; adaptive uniformization's
   per-level steps ``π ↦ π (I + Q/Λ_n)``);
2. weight the results with Poisson probabilities from a Fox–Glynn window
   for some ``(Λt, ε)`` pair.

The :class:`UniformizationKernel` centralizes (1). It stores ``P`` once as
the CSR form of ``Pᵀ`` — the layout scipy's matvec walks sequentially for
the left product ``π P = (Pᵀ πᵀ)ᵀ`` — and propagates a whole *stack* of
vectors per step with a single CSR × dense-matrix product. Column ``j`` of
a stacked product is bit-for-bit identical to propagating vector ``j``
alone (scipy's CSR multi-vector product accumulates each column in the
same order as its matvec), so batching never changes any solver's
numerics — a property the unit tests pin down. Stacking buys that
bit-identity and one shared traversal of the index arrays, not speed on
large chains: on the G=40 paper model (20,641 states, 157k nonzeros) one
2-column ``csr_matvecs`` took 552 µs against 2 × 173 µs for two separate
matvecs (2-CPU Xeon host).

Every product calls scipy's CSR routines (``csr_matvec``/``csr_matvecs``)
directly on the matrix's own arrays. That is what ``Pᵀ @ stack`` runs
after its operand dispatch, so results are bit-identical to the operator.
The dispatch it skips costs 2–3 µs per call: about half of each product
on the small chains of a scenario sweep (5–253 states), under a tenth
from a few thousand states up.

:func:`shared_fox_glynn` centralizes (2) behind a process-wide LRU cache
keyed on ``(Λt, ε)``. Sweeps revisit the same key constantly — a
multi-``t`` SR solve, RR's truncation selection plus its inner SR solve,
and a batch run fanning one scenario grid over several methods all ask for
identical windows. Windows are treated as immutable (callers only read
``weights``), so one cache serves the whole process; the
:class:`~repro.batch.runner.BatchRunner` workers each build their own as
they warm up.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.exceptions import ModelError
from repro.markov.poisson import FoxGlynnWindow, fox_glynn, poisson_sf

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.markov.ctmc import CTMC
    from repro.markov.dtmc import DTMC

__all__ = [
    "UniformizationKernel",
    "ensure_model_kernel",
    "shared_fox_glynn",
    "fox_glynn_cache_info",
    "fox_glynn_cache_clear",
    "shared_poisson_tail",
    "poisson_tail_cache_info",
    "poisson_tail_cache_clear",
    "kernel_build_count",
]

#: Process-wide count of kernel constructions. The fusion planner's whole
#: point is that a grid over one model builds the CSR once per (model,
#: worker), so the benchmarks assert sharing by diffing this counter.
_BUILD_COUNT = 0


def _record_kernel_build() -> None:
    global _BUILD_COUNT
    _BUILD_COUNT += 1


def kernel_build_count() -> int:
    """How many :class:`UniformizationKernel` objects this process built."""
    return _BUILD_COUNT

#: Distinct (Λt, ε) windows kept alive; a paper-style grid touches a few
#: dozen, so 512 keeps every realistic sweep fully cached while bounding
#: memory (windows are O(√Λt) floats each).
_FOX_GLYNN_CACHE_SIZE = 512


@lru_cache(maxsize=_FOX_GLYNN_CACHE_SIZE)
def _fox_glynn_cached(rate_time: float, eps: float) -> FoxGlynnWindow:
    return fox_glynn(rate_time, eps)


def shared_fox_glynn(rate_time: float, eps: float) -> FoxGlynnWindow:
    """Fox–Glynn window from the process-wide ``(Λt, ε)`` LRU cache.

    The returned window is shared: callers must treat ``weights`` as
    read-only (every in-tree consumer only slices it).
    """
    return _fox_glynn_cached(float(rate_time), float(eps))


def fox_glynn_cache_info():
    """``functools.lru_cache`` statistics of the shared window cache."""
    return _fox_glynn_cached.cache_info()


def fox_glynn_cache_clear() -> None:
    """Drop every cached window (tests; long-lived worker hygiene)."""
    _fox_glynn_cached.cache_clear()


#: Distinct (Λt, n) Poisson right-tail arrays kept alive. One array is
#: O(n) floats and a paper-style MRR sweep touches one (Λt, n) pair per
#: (model, t, ε) cell, so a small cache covers every realistic grid.
_POISSON_TAIL_CACHE_SIZE = 256

#: Largest ``n`` worth caching (~0.5 MB per array). SR at extreme Λt
#: needs tails millions of entries long; 256 of those pinned
#: process-wide would hold gigabytes in a long-lived service worker, so
#: oversized requests are computed fresh (and garbage-collected per
#: cell, exactly the pre-cache behaviour) instead of cached.
_POISSON_TAIL_MAX_N = 65_536


@lru_cache(maxsize=_POISSON_TAIL_CACHE_SIZE)
def _poisson_tail_cached(rate_time: float, n: int) -> np.ndarray:
    tails = poisson_sf(np.arange(n, dtype=np.float64), rate_time)
    tails.setflags(write=False)  # shared across callers: read-only
    return tails


def shared_poisson_tail(rate_time: float, n: int) -> np.ndarray:
    """``P[N(Λt) > k]`` for ``k = 0 .. n-1`` from a process-wide LRU.

    The MRR weighting of :mod:`repro.markov.standard` recomputes this
    array for every cell sharing a ``(Λt, n)`` key — a grid fans the same
    model/horizon pair over many reward structures.
    The returned array is shared and marked read-only; values are
    bit-identical to an uncached ``poisson_sf(np.arange(n), Λt)`` call
    (it *is* that call, performed once). Arrays beyond
    ``_POISSON_TAIL_MAX_N`` entries bypass the cache — identical values,
    per-call lifetime — so pathological horizons cannot pin gigabytes.
    """
    n = int(n)
    if n > _POISSON_TAIL_MAX_N:
        return poisson_sf(np.arange(n, dtype=np.float64),
                          float(rate_time))
    return _poisson_tail_cached(float(rate_time), n)


def poisson_tail_cache_info():
    """``functools.lru_cache`` statistics of the shared tail cache."""
    return _poisson_tail_cached.cache_info()


def poisson_tail_cache_clear() -> None:
    """Drop every cached tail array (tests; worker hygiene)."""
    _poisson_tail_cached.cache_clear()


def _csr_product(a: sparse.csr_matrix, stack: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``a @ stack`` for a square ``a`` and a dense vector or column stack.

    The steps scipy's ``_matmul_vector``/``_matmul_multivector`` take once
    ``@`` has classified the operand: a float64 view or cast of it, a
    zeroed float64 output and one call of ``csr_matvec`` (1-D) or
    ``csr_matvecs`` (2-D, raveled in C order) over ``a``'s own
    ``indptr/indices/data``. Same routine, same arrays, same accumulation
    order, so the result is bit-for-bit ``a @ stack``. ``out``, when
    given, is zeroed and used as that output instead of a fresh array.
    """
    n = a.shape[0]
    x = np.asarray(stack, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: matrix is {n}×{n}, operand {x.shape}")
    if out is None:
        out = np.zeros(x.shape)
    elif (out.shape != x.shape or out is x
          or (x.ndim == 2 and not out.flags.c_contiguous)):
        # A float64 dtype is checked by the csr routine itself.
        raise ValueError(
            f"out must be a C-contiguous float64 {x.shape} array apart "
            "from the operand")
    else:
        out.fill(0.0)
    if x.ndim == 1:
        _sparsetools.csr_matvec(n, n, a.indptr, a.indices, a.data, x, out)
    else:
        _sparsetools.csr_matvecs(n, n, x.shape[1], a.indptr, a.indices,
                                 a.data, x.ravel(), out.ravel())
    return out


class UniformizationKernel:
    """Vectorized stepping engine for one randomized DTMC.

    Parameters
    ----------
    transition:
        Row-stochastic (or sub-stochastic) transition matrix ``P``.
    rate:
        Randomization rate ``Λ`` the matrix was built with; optional for
        stepping-only use, required for :meth:`window`.
    generator:
        The CTMC generator ``Q``; optional, required only for
        :meth:`step_rate` (adaptive uniformization re-randomizes each
        step with the current active rate instead of a fixed ``Λ``).

    Notes
    -----
    Stacks are stored *column-wise*: shape ``(n_states, k)`` holds ``k``
    distributions, so one ``Pᵀ @ stack`` product advances all of them.
    1-D vectors work everywhere a stack does.

    A kernel is safe to share between solves: stepping only reads the
    CSR matrices, and every stepping method — :meth:`step`,
    :meth:`step_rate` and :meth:`propagate`, even for zero steps —
    returns a fresh array (or the ``out`` buffer the caller passed to
    :meth:`step`), never the caller's input (or the cached chain's)
    vector.
    """

    def __init__(self,
                 transition: sparse.spmatrix | np.ndarray | None,
                 rate: float | None = None,
                 generator: sparse.spmatrix | None = None) -> None:
        _record_kernel_build()
        if transition is None and generator is None:
            raise ModelError("need a transition matrix or a generator")
        self._pt: sparse.csr_matrix | None = None
        self._qt: sparse.csr_matrix | None = None
        n: int | None = None
        if transition is not None:
            p = sparse.csr_matrix(transition, dtype=np.float64)
            if p.shape[0] != p.shape[1]:
                raise ModelError(
                    f"transition matrix must be square, got {p.shape}")
            self._pt = p.T.tocsr()
            n = p.shape[0]
        if generator is not None:
            q = sparse.csr_matrix(generator, dtype=np.float64)
            if q.shape[0] != q.shape[1]:
                raise ModelError(f"generator must be square, got {q.shape}")
            if n is not None and q.shape[0] != n:
                raise ModelError("generator shape does not match transition")
            self._qt = q.T.tocsr()
            n = q.shape[0]
        self._rate = float(rate) if rate is not None else None
        self._n = int(n)  # type: ignore[arg-type]
        self._steps = 0
        self._dtmc: "DTMC | None" = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_model(cls, model: "CTMC", rate: float | None = None,
                   slack: float = 1.0
                   ) -> tuple["UniformizationKernel", "DTMC", float]:
        """Uniformize ``model`` and wrap the result.

        Returns ``(kernel, dtmc, Λ)`` — the solvers also need the
        randomized chain's initial distribution and the realized rate.
        The kernel keeps a reference to the randomized chain (see
        :attr:`dtmc`), so a cached kernel can be handed to any solver
        without re-uniformizing the model.
        """
        dtmc, lam = model.uniformize(rate, slack)
        kernel = cls(dtmc.transition_matrix, rate=lam,
                     generator=model.generator)
        kernel._dtmc = dtmc
        return kernel, dtmc, lam

    @classmethod
    def from_dtmc(cls, dtmc: "DTMC",
                  rate: float | None = None) -> "UniformizationKernel":
        """Wrap an already-randomized chain."""
        return cls(dtmc.transition_matrix, rate=rate)

    @classmethod
    def from_generator(cls, model: "CTMC") -> "UniformizationKernel":
        """Rate-adaptive kernel over ``Q`` only (no fixed-rate ``P``).

        For adaptive uniformization, which re-randomizes every step with
        the current active rate — building ``P = I + Q/Λ`` would be
        wasted work.
        """
        return cls(None, generator=model.generator)

    # -- properties --------------------------------------------------------

    @property
    def n_states(self) -> int:
        """State-space size ``n``."""
        return self._n

    @property
    def rate(self) -> float | None:
        """Randomization rate ``Λ`` (``None`` for stepping-only kernels)."""
        return self._rate

    @property
    def steps_done(self) -> int:
        """Matrix–vector/matrix products performed through this kernel."""
        return self._steps

    @property
    def has_generator(self) -> bool:
        """Whether ``Q`` is available (required by :meth:`step_rate`)."""
        return self._qt is not None

    @property
    def dtmc(self) -> "DTMC | None":
        """The randomized chain this kernel was built from, when known.

        Set by :meth:`from_model`; ``None`` for kernels wrapped around a
        bare matrix. Solvers accepting an injected kernel need the chain
        for its initial distribution (and MS for its row-form ``P``).
        """
        return self._dtmc

    # -- stepping ----------------------------------------------------------

    def step(self, stack: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """One uniformized step of every column: ``stack ↦ Pᵀ stack``.

        ``out``, a C-contiguous float64 buffer of the result's shape other
        than ``stack``, receives the product instead of a fresh array.
        """
        if self._pt is None:
            raise ModelError(
                "kernel was built without a transition matrix; "
                "fixed-rate stepping needs P")
        self._steps += 1
        return _csr_product(self._pt, stack, out)

    def propagate(self, stack: np.ndarray, n_steps: int) -> np.ndarray:
        """Apply ``n_steps >= 0`` uniformized steps to a copy of the stack."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        out = np.array(stack, dtype=np.float64)
        for _ in range(n_steps):
            out = self.step(out)
        return out

    def step_rate(self, stack: np.ndarray, rate: float) -> np.ndarray:
        """One step of ``I + Q/rate`` (adaptive uniformization).

        ``rate`` must dominate the exit rates of every state carrying
        mass; the caller (AU) guarantees this by construction.
        """
        if self._qt is None:
            raise ModelError(
                "kernel was built without a generator; step_rate needs Q")
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self._steps += 1
        return stack + _csr_product(self._qt, stack) / rate

    def window(self, t: float, eps: float) -> FoxGlynnWindow:
        """Cached Fox–Glynn window for ``(Λ·t, eps)``."""
        if self._rate is None:
            raise ModelError("kernel has no randomization rate")
        return shared_fox_glynn(self._rate * t, eps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"UniformizationKernel(n_states={self._n}, "
                f"rate={self._rate}, steps_done={self._steps})")


def ensure_model_kernel(model: "CTMC",
                        kernel: UniformizationKernel | None,
                        rate: float | None = None
                        ) -> tuple[UniformizationKernel, "DTMC", float]:
    """Validate an injected kernel against ``(model, rate)`` or build one.

    The common preamble of every solver that accepts a pre-built kernel:
    with ``kernel=None`` it is exactly ``UniformizationKernel.from_model``;
    otherwise the injected kernel must have been produced by
    ``from_model`` **for this model**, at the requested randomization
    rate if the solver pinned one. Since ``from_model`` is deterministic,
    a kernel built once (by the planner or a worker cache) and injected
    everywhere yields bit-identical results to per-solve construction.

    Validation is sanity-level, not cryptographic: state-space size, a
    rate lower bound and the initial distribution are checked (catching
    kernels built from a genuinely different model), but matrix contents
    are not re-hashed — callers sharing kernels across cells are expected
    to key them on a real model fingerprint, as the planner's worker
    cache does.
    """
    if kernel is None:
        return UniformizationKernel.from_model(model, rate)
    dtmc = kernel.dtmc
    if dtmc is None or kernel.rate is None:
        raise ModelError(
            "injected kernel must come from UniformizationKernel.from_model "
            "(it carries no randomized chain)")
    if kernel.n_states != model.n_states:
        raise ModelError(
            f"injected kernel has {kernel.n_states} states, "
            f"model has {model.n_states}")
    if rate is not None and not np.isclose(kernel.rate, rate,
                                           rtol=1e-12, atol=0.0):
        raise ModelError(
            f"injected kernel rate {kernel.rate} != requested rate {rate}")
    if kernel.rate < model.max_output_rate * (1.0 - 1e-12):
        raise ModelError(
            f"injected kernel rate {kernel.rate} is below the model's "
            f"max output rate {model.max_output_rate} — built from a "
            "different model?")
    # Tight-but-tolerant: uniformization renormalizes the initial vector,
    # which may perturb the last ulp relative to model.initial.
    if not np.allclose(dtmc.initial, model.initial, rtol=1e-12,
                       atol=1e-15):
        raise ModelError(
            "injected kernel was built from a model with a different "
            "initial distribution")
    return kernel, dtmc, float(kernel.rate)
