"""Sparse continuous-time Markov chain container.

A :class:`CTMC` owns the infinitesimal generator ``Q`` in CSR form plus an
initial probability distribution, and provides the operations every solver
in this package needs: validation, uniformization (randomization) into a
:class:`repro.markov.dtmc.DTMC`, structural queries (absorbing states,
reachability) and convenience constructors from transition lists.

Conventions
-----------
* States are integers ``0 .. n-1``; an optional ``labels`` sequence maps
  indices to arbitrary hashable descriptions (the RAID model stores its
  symbolic state tuples there).
* ``Q[i, j]`` for ``i != j`` is the transition rate ``i -> j``;
  ``Q[i, i] = -sum_j Q[i, j]``.
* Distributions are *row* vectors; evolution is ``dπ/dt = π Q``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Hashable

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.markov.dtmc import DTMC

__all__ = ["CTMC"]


def _with_diagonal(q: sparse.csr_matrix, off_diag_mask: np.ndarray
                   ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """``q``'s off-diagonal entries with the negated row sums on the
    diagonal (one canonical CSR, explicit zeros dropped), and the sums.

    The off-diagonal part is ``q`` itself when ``q`` is canonical and
    has no diagonal entries, as model builders emit it. The diagonal
    goes in by one sparse subtraction of a CSR built directly, not
    through a ``dia`` matrix.
    """
    n = q.shape[0]
    off = q
    if not (off_diag_mask.all() and q.has_canonical_format):
        kept = np.concatenate(([0], np.cumsum(off_diag_mask)))
        off = sparse.csr_matrix((q.data[off_diag_mask],
                                 q.indices[off_diag_mask], kept[q.indptr]),
                                shape=(n, n))
        off.sum_duplicates()
    out_rates = np.asarray(off.sum(axis=1)).ravel()
    on = np.flatnonzero(out_rates)
    diag = sparse.csr_matrix(
        (out_rates[on], on, np.searchsorted(on, np.arange(n + 1))),
        shape=(n, n))
    return off - diag, out_rates


class CTMC:
    """Finite homogeneous continuous-time Markov chain.

    Parameters
    ----------
    generator:
        ``(n, n)`` sparse or dense matrix; off-diagonal entries are the
        transition rates and must not be negative. Any diagonal given is
        ignored: the constructor stores the negated off-diagonal row sums
        there, which is what every model builder relies on (builders emit
        rates only).
    initial:
        Initial probability row vector of length ``n``. Defaults to mass 1
        on state 0.
    labels:
        Optional per-state descriptions (any hashables).
    """

    def __init__(self,
                 generator: sparse.spmatrix | np.ndarray,
                 initial: np.ndarray | None = None,
                 labels: Sequence[Hashable] | None = None) -> None:
        q = sparse.csr_matrix(generator, dtype=np.float64)
        if q.shape[0] != q.shape[1]:
            raise ModelError(f"generator must be square, got {q.shape}")
        n = q.shape[0]
        if n == 0:
            raise ModelError("empty state space")

        rows = np.repeat(np.arange(n, dtype=q.indices.dtype),
                         np.diff(q.indptr))
        off_diag_mask = q.indices != rows
        if np.any(q.data[off_diag_mask] < 0.0):
            raise ModelError("negative off-diagonal rate in generator")

        q, out_rates = _with_diagonal(q, off_diag_mask)
        self._q = q
        self._out_rates = np.maximum(out_rates, 0.0)
        self._n = n

        if initial is None:
            initial = np.zeros(n)
            initial[0] = 1.0
        initial = np.asarray(initial, dtype=np.float64)
        if initial.shape != (n,):
            raise ModelError(
                f"initial distribution shape {initial.shape} != ({n},)")
        if np.any(initial < -1e-15):
            raise ModelError("initial distribution has negative entries")
        total = initial.sum()
        if not np.isclose(total, 1.0, rtol=1e-9, atol=1e-12):
            raise ModelError(f"initial distribution sums to {total}, not 1")
        self._initial = np.clip(initial, 0.0, None)
        self._initial = self._initial / self._initial.sum()

        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise ModelError("labels length does not match state count")
        self._labels = labels
        self._content_digest: str | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_transitions(cls,
                         n_states: int,
                         transitions: Iterable[tuple[int, int, float]],
                         initial: np.ndarray | int | None = None,
                         labels: Sequence[Hashable] | None = None) -> "CTMC":
        """Build a chain from ``(src, dst, rate)`` triplets.

        Duplicate ``(src, dst)`` pairs are summed. ``initial`` may be a
        state index (mass 1 there) or a full distribution.
        """
        rows, cols, vals = [], [], []
        for i, j, r in transitions:
            if i == j:
                raise ModelError(f"self-loop rate on state {i}")
            if r < 0.0:
                raise ModelError(f"negative rate {r} on {i}->{j}")
            if not (0 <= i < n_states and 0 <= j < n_states):
                raise ModelError(f"transition ({i},{j}) out of range")
            if r == 0.0:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(r)
        q = sparse.coo_matrix((vals, (rows, cols)),
                              shape=(n_states, n_states))
        if isinstance(initial, (int, np.integer)):
            init = np.zeros(n_states)
            init[int(initial)] = 1.0
        else:
            init = initial
        return cls(q, initial=init, labels=labels)

    # -- basic properties --------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._n

    @property
    def generator(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` (CSR, diagonal included)."""
        return self._q

    @property
    def initial(self) -> np.ndarray:
        """Initial probability row vector (copy-safe view)."""
        return self._initial

    @property
    def labels(self) -> Sequence[Hashable] | None:
        """Optional per-state labels."""
        return self._labels

    @property
    def output_rates(self) -> np.ndarray:
        """Total exit rate of every state (``-diag(Q)``)."""
        return self._out_rates

    @property
    def max_output_rate(self) -> float:
        """``max_i -Q[i,i]`` — the minimal valid randomization rate."""
        return float(self._out_rates.max())

    def content_digest(self) -> str:
        """Stable SHA-1 of the generator structure + initial distribution.

        Two models with equal digests step bit-identically, which is what
        makes cross-cell sharing (the planner's worker cache and the
        RR/RRL schedule memo) safe. Computed once per instance — CTMCs
        are immutable in practice.
        """
        if self._content_digest is None:
            import hashlib

            h = hashlib.sha1()
            h.update(np.int64(self._n).tobytes())
            h.update(np.ascontiguousarray(self._q.indptr).tobytes())
            h.update(np.ascontiguousarray(self._q.indices).tobytes())
            h.update(np.ascontiguousarray(self._q.data).tobytes())
            h.update(np.ascontiguousarray(self._initial).tobytes())
            self._content_digest = h.hexdigest()
        return self._content_digest

    @property
    def n_transitions(self) -> int:
        """Number of nonzero off-diagonal rate entries."""
        return int(self._q.nnz - np.count_nonzero(self._q.diagonal()))

    def absorbing_states(self) -> np.ndarray:
        """Indices of states with zero exit rate."""
        return np.flatnonzero(self._out_rates == 0.0)

    # -- operations --------------------------------------------------------

    def uniformize(self, rate: float | None = None,
                   slack: float = 1.0) -> tuple[DTMC, float]:
        """Randomize the chain: return ``(DTMC with P = I + Q/Λ, Λ)``.

        ``rate`` defaults to ``slack * max_output_rate``. ``slack >= 1``
        may be used to make ``P`` aperiodic (any state keeps a self-loop).
        """
        if rate is None:
            rate = slack * self.max_output_rate
        if rate < self.max_output_rate * (1.0 - 1e-12) or rate <= 0.0:
            raise ModelError(
                f"randomization rate {rate} below max output rate "
                f"{self.max_output_rate}")
        p = sparse.eye(self._n, format="csr") + self._q.multiply(1.0 / rate)
        p = sparse.csr_matrix(p)
        # Clip the tiny negative diagonal round-off that I + Q/Λ can create.
        p.data[p.data < 0.0] = 0.0
        return DTMC(p, initial=self._initial, labels=self._labels,
                    renormalize=True), float(rate)

    def is_irreducible(self) -> bool:
        """True when every state can reach every other state."""
        import scipy.sparse.csgraph as csgraph
        n_comp, _ = csgraph.connected_components(
            self._q, directed=True, connection="strong")
        return n_comp == 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CTMC(n_states={self._n}, "
                f"n_transitions={self.n_transitions}, "
                f"max_output_rate={self.max_output_rate:.6g})")
