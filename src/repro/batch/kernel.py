"""Shared uniformized-stepping kernel.

Every randomization-based solver in this package ultimately does the same
two things:

1. step row vectors through the randomized DTMC,
   ``π ↦ π P`` with ``P = I + Q/Λ`` (the one ``π_n`` sweep that SR and RSD
   share, :mod:`repro.markov.sweep`; the regenerative schedule recursions
   of RR/RRL);
2. weight the results with Poisson probabilities from a Fox–Glynn window
   for some ``(Λt, ε)`` pair.

The :class:`UniformizationKernel` centralizes (1). It stores ``P`` once as
the CSR form of ``Pᵀ`` — the layout scipy's matvec walks sequentially for
the left product ``π P = (Pᵀ πᵀ)ᵀ`` — and steps one vector per product.

:meth:`UniformizationKernel.stack` steps several *chains* at once: one
block-diagonal ``Pᵀ`` over several models, each row with its own
kernel's entries in its own order, so one matvec steps every chain bit
for bit as its own kernel would. That does buy speed on small chains,
where the per-call overhead below dwarfs the flops: the ``π_n`` walks of
:mod:`repro.markov.sweep` step up to 8 scenario-sweep models (5–253
states each) per call, and ``scenario_sweep`` takes 23,349 products
instead of 113,474 (``kernel.step_s`` 0.48 → 0.14 s, 2-CPU Xeon host).

Every product calls scipy's CSR matvec routine (``csr_matvec``) directly
on the matrix's own arrays. That is what ``Pᵀ @ x`` runs after its
operand dispatch, so results are bit-identical to the operator.
The dispatch it skips costs 2–3 µs per call: about half of each product
on the small chains of a scenario sweep (5–253 states), under a tenth
from a few thousand states up. Those routines live in scipy's private
``scipy.sparse._sparsetools``; a scipy without it gets ``@`` itself.

:func:`shared_fox_glynn` centralizes (2) behind the process-wide
``"fox_glynn"`` cache of :mod:`repro.cache`, keyed on ``(Λt, ε)``, and
:func:`shared_poisson_tail` keeps MRR's Poisson tails in
``"poisson_tail"``. Sweeps revisit the same keys constantly — a
multi-``t`` SR solve, RR's truncation selection plus its inner SR solve,
and a batch run fanning one scenario grid over several methods all ask for
identical windows. Windows and tails are read-only once cached, so one
cache serves the whole process; each pool worker builds its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

try:  # private to scipy: where it is missing, products go through ``@``
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - tested in a fresh interpreter
    _sparsetools = None

from repro.cache import BoundedCache, shared_cache
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
#: worker), so the tests assert sharing by diffing this counter.
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
_FOX_GLYNN = shared_cache("fox_glynn", BoundedCache(512))


def shared_fox_glynn(rate_time: float, eps: float) -> FoxGlynnWindow:
    """Fox–Glynn window from the process-wide ``(Λt, ε)`` LRU cache.

    The returned window is shared: callers must treat ``weights`` as
    read-only (every in-tree consumer only slices it).
    """
    rate_time, eps = float(rate_time), float(eps)
    return _FOX_GLYNN.get((rate_time, eps),
                          lambda: fox_glynn(rate_time, eps))[0]


#: Per-cache statistics and reset, which ``perfbench/`` calls by name.
fox_glynn_cache_info = _FOX_GLYNN.info
fox_glynn_cache_clear = _FOX_GLYNN.clear

#: Distinct (Λt, n) Poisson right-tail arrays kept alive. One array is
#: O(n) floats and a paper-style MRR sweep touches one (Λt, n) pair per
#: (model, t, ε) cell, so a small cache covers every realistic grid.
_POISSON_TAIL = shared_cache("poisson_tail", BoundedCache(256))

#: Largest ``n`` worth caching (~0.5 MB per array). SR at extreme Λt
#: needs tails millions of entries long; 256 of those pinned
#: process-wide would hold gigabytes in a long-lived service worker, so
#: oversized requests are computed fresh (and garbage-collected per
#: cell, exactly the pre-cache behaviour) instead of cached.
_POISSON_TAIL_MAX_N = 65_536


def _poisson_tail(rate_time: float, n: int) -> np.ndarray:
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
    rate_time = float(rate_time)
    return _POISSON_TAIL.get((rate_time, n),
                             lambda: _poisson_tail(rate_time, n))[0]


#: Per-cache statistics and reset, which ``perfbench/`` calls by name.
poisson_tail_cache_info = _POISSON_TAIL.info
poisson_tail_cache_clear = _POISSON_TAIL.clear


def _csr_product(a: sparse.csr_matrix, x: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``a @ x`` for an ``m × n`` CSR ``a`` and a dense vector ``x``.

    The steps scipy's ``_matmul_vector`` takes once ``@`` has classified
    the operand: a float64 view or cast of it, a zeroed float64 output
    and one call of ``csr_matvec`` over ``a``'s own
    ``indptr/indices/data``. Same routine, same arrays, same accumulation
    order, so the result is bit-for-bit ``a @ x``. ``out``, when given,
    is zeroed and used as that output instead of a fresh array; it must
    share no memory with the operand, which zeroing it would wipe before
    the product reads it. Without scipy's private ``_sparsetools``
    module the product is ``a @ x`` itself, copied into ``out`` when one
    is given.
    """
    m, n = a.shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(
            f"dimension mismatch: matrix is {m}×{n}, operand {x.shape}")
    if out is None:
        out = np.zeros(m)
    elif out.shape != (m,) or np.may_share_memory(out, x):
        # A float64 dtype is checked by the csr routine itself.
        raise ValueError(
            f"out must be a float64 {(m,)} array sharing no memory "
            "with the operand")
    else:
        out.fill(0.0)
    if _sparsetools is None:
        np.copyto(out, a @ x, casting="no")
    else:
        _sparsetools.csr_matvec(m, n, a.indptr, a.indices, a.data, x, out)
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
        :meth:`step_rate`, and passed only by :meth:`from_generator`
        (:meth:`from_model` keeps no ``Qᵀ``). No solver steps at a
        varying rate since adaptive uniformization was removed (6.0.0);
        this path stays only because ``perfbench/layers.py`` hooks
        ``step_rate`` by name, and goes once the benchmark drops that
        hook.

    Notes
    -----
    Every product steps one vector of length ``n_states``; several
    chains step side by side through :meth:`stack`, not through column
    stacks (one 2-column product was slower than two vector products on
    the G=40 paper model).

    A kernel is safe to share between solves: stepping only reads the
    CSR matrices, and both stepping methods — :meth:`step` and
    :meth:`step_rate` — return a fresh array (or the ``out`` buffer the
    caller passed to :meth:`step`), never the caller's input (or the
    cached chain's) vector.
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
        without re-uniformizing the model. It keeps no generator, so its
        :meth:`step_rate` raises.
        """
        dtmc, lam = model.uniformize(rate, slack)
        kernel = cls(dtmc.transition_matrix, rate=lam)
        kernel._dtmc = dtmc
        return kernel, dtmc, lam

    @classmethod
    def from_generator(cls, model: "CTMC") -> "UniformizationKernel":
        """Rate-adaptive kernel over ``Q`` only (no fixed-rate ``P``).

        Part of the generator path that stays only for perfbench's
        ``step_rate`` hook (see ``generator`` above); no solver calls it.
        """
        return cls(None, generator=model.generator)

    @classmethod
    def stack(cls, kernels: Sequence["UniformizationKernel"]
              ) -> "UniformizationKernel":
        """One kernel stepping several chains side by side.

        Its ``Pᵀ`` is block-diagonal: the kernels' own CSR arrays
        concatenated in order, column indices shifted by the states
        before them. No transpose and no uniformization is redone, and
        the result does not count as a kernel build. Each row keeps its
        entries in its own kernel's order, so a stacked step equals each
        chain's own step bit for bit. One kernel stacks to itself.
        """
        kernels = list(kernels)
        if len(kernels) == 1:
            return kernels[0]
        if not kernels or any(k._pt is None for k in kernels):
            raise ModelError("stacking needs kernels with transition "
                             "matrices")
        indptr, indices = [np.zeros(1, dtype=np.int64)], []
        states = entries = 0
        for k in kernels:
            pt = k._pt
            indptr.append(pt.indptr[1:] + entries)
            indices.append(pt.indices + states)
            states += k.n_states
            entries += pt.nnz
        stacked = cls.__new__(cls)
        stacked._pt = sparse.csr_matrix(
            (np.concatenate([k._pt.data for k in kernels]),
             np.concatenate(indices), np.concatenate(indptr)),
            shape=(states, states))
        stacked._qt = None
        stacked._rate = None
        stacked._n = states
        stacked._steps = 0
        stacked._dtmc = None
        return stacked

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
        for its initial distribution.
        """
        return self._dtmc

    # -- stepping ----------------------------------------------------------

    def step(self, x: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """One uniformized step of a vector: ``x ↦ Pᵀ x``.

        ``out``, a float64 buffer of length ``n_states`` that shares no
        memory with ``x``, receives the product instead of a fresh array.
        """
        if self._pt is None:
            raise ModelError(
                "kernel was built without a transition matrix; "
                "fixed-rate stepping needs P")
        self._steps += 1
        return _csr_product(self._pt, x, out)

    def step_rate(self, x: np.ndarray, rate: float) -> np.ndarray:
        """One step of ``I + Q/rate``.

        ``rate`` must dominate the exit rates of every state carrying
        mass, or the result is not a distribution. No solver calls this;
        it stays only because perfbench hooks it by name (see
        ``generator`` above).
        """
        if self._qt is None:
            raise ModelError(
                "kernel was built without a generator; step_rate needs Q")
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self._steps += 1
        return x + _csr_product(self._qt, x) / rate

    def rows(self, index: np.ndarray) -> sparse.csr_matrix:
        """The rows ``index`` of ``Pᵀ``, each with its entries in order.

        A product with this block (through :func:`_csr_product`) gives
        those entries of :meth:`step`'s result bit for bit, and does not
        count as a step.
        """
        if self._pt is None:
            raise ModelError("kernel was built without a transition matrix")
        return self._pt[np.asarray(index, dtype=np.intp)]

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
