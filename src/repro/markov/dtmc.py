"""Sparse discrete-time Markov chain container.

The randomized (uniformized) chain ``X̂`` with ``P = I + Q/Λ`` is the
workhorse of every method in this package: standard randomization sums
Poisson-weighted powers of ``P`` applied to the initial distribution, and
regenerative randomization steps two sub-stochastic vectors through ``P``.
Both only ever need row-vector/matrix products, so the container is thin:
a validated CSR matrix plus an initial distribution.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError

__all__ = ["DTMC"]

_ROW_SUM_TOL = 1e-9


class DTMC:
    """Finite discrete-time Markov chain with sparse transition matrix.

    Parameters
    ----------
    transition:
        ``(n, n)`` row-stochastic matrix (sparse or dense).
    initial:
        Initial probability row vector; defaults to mass 1 on state 0.
    labels:
        Optional per-state descriptions.
    renormalize:
        When True, rows are rescaled to sum to exactly 1 (used after
        uniformization, where round-off can leave ``1 ± 1e-16`` sums).
        Rows summing to 0 (possible for artificial sink rows) are given a
        self-loop.
    """

    def __init__(self,
                 transition: sparse.spmatrix | np.ndarray,
                 initial: np.ndarray | None = None,
                 labels: Sequence[Hashable] | None = None,
                 *,
                 renormalize: bool = False) -> None:
        p = sparse.csr_matrix(transition, dtype=np.float64)
        if p.shape[0] != p.shape[1]:
            raise ModelError(f"transition matrix must be square, got {p.shape}")
        n = p.shape[0]
        if n == 0:
            raise ModelError("empty state space")
        if np.any(p.data < 0.0):
            raise ModelError("negative transition probability")

        row_sums = np.asarray(p.sum(axis=1)).ravel()
        if renormalize:
            zero_rows = np.flatnonzero(row_sums == 0.0)
            if zero_rows.size:
                p = p.tolil()
                for i in zero_rows:
                    p[i, i] = 1.0
                p = p.tocsr()
                row_sums = np.asarray(p.sum(axis=1)).ravel()
            scale = sparse.diags(1.0 / row_sums)
            p = sparse.csr_matrix(scale @ p)
        else:
            if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
                bad = int(np.argmax(np.abs(row_sums - 1.0)))
                raise ModelError(
                    f"row {bad} sums to {row_sums[bad]}, not 1")

        p.eliminate_zeros()
        p.sum_duplicates()
        self._p = p
        self._n = n

        if initial is None:
            initial = np.zeros(n)
            initial[0] = 1.0
        initial = np.asarray(initial, dtype=np.float64)
        if initial.shape != (n,):
            raise ModelError(
                f"initial distribution shape {initial.shape} != ({n},)")
        if np.any(initial < -1e-15) or not np.isclose(initial.sum(), 1.0,
                                                      rtol=1e-9, atol=1e-12):
            raise ModelError("invalid initial distribution")
        self._initial = np.clip(initial, 0.0, None)
        self._initial /= self._initial.sum()

        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise ModelError("labels length does not match state count")
        self._labels = labels

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._n

    @property
    def transition_matrix(self) -> sparse.csr_matrix:
        """Row-stochastic transition matrix ``P``."""
        return self._p

    @property
    def initial(self) -> np.ndarray:
        """Initial probability row vector."""
        return self._initial

    @property
    def labels(self) -> Sequence[Hashable] | None:
        """Optional per-state labels."""
        return self._labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DTMC(n_states={self._n}, nnz={self._p.nnz})"
