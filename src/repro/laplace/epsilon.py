"""Wynn's epsilon algorithm for nonlinear series acceleration.

Crump's inversion method [Crump, JACM 1976] — and the paper's RRL, which
follows it with ``T = 8t`` — feeds the partial sums of the Durbin Fourier
series through the epsilon algorithm, which computes Shanks transforms
recursively:

    ε_{-1}^{(j)} = 0,   ε_0^{(j)} = S_j,
    ε_{k+1}^{(j)} = ε_{k-1}^{(j+1)} + 1 / (ε_k^{(j+1)} − ε_k^{(j)}).

Even columns ``ε_{2m}^{(j)}`` converge (often dramatically faster than the
raw sums) to the series limit; odd columns are intermediates.

The incremental :class:`EpsilonAccelerator` keeps only the current
anti-diagonal of the table, so accepting the ``n``-th partial sum costs
``O(n)`` time and memory, and exposes the best current even-column
estimate after each term — exactly what the inversion loop's convergence
test consumes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["EpsilonAccelerator", "wynn_epsilon"]

#: Denominators smaller than this (relative to the working scale) signal an
#: exactly-converged (or degenerate) column; the algorithm then reuses the
#: lower-order estimate rather than dividing by ~0.
_TINY = 1e-300

#: Relative degeneracy threshold: a denominator within round-off of the
#: column entries means the column has converged to working precision —
#: dividing by it would inject ``1/round-off`` garbage into deeper columns
#: (the classic epsilon-table failure on exactly-geometric input, where
#: ``ε_2`` is already exact and every deeper column is pure noise). A
#: looser threshold also fires on chance near-ties of columns still off
#: by ~1e-9 and restarts the table shallow on a wrong plateau.
_DEGENERATE_RTOL = 1e-14


class EpsilonAccelerator:
    """Incremental epsilon-algorithm table over a stream of partial sums.

    Usage::

        acc = EpsilonAccelerator()
        for s in partial_sums:
            estimate = acc.add(s)

    ``add`` returns the current best accelerated estimate (the deepest
    even-column entry available). :attr:`n_terms` counts the partial sums
    consumed.
    """

    def __init__(self) -> None:
        self._diag: list[float] = []  # current anti-diagonal, ε_k^{(n-k)}
        self._n = 0
        self._last_estimate = 0.0

    @property
    def n_terms(self) -> int:
        """Number of partial sums consumed so far."""
        return self._n

    @property
    def estimate(self) -> float:
        """Best accelerated estimate seen so far."""
        return self._last_estimate

    def add(self, partial_sum: float) -> float:
        """Consume one partial sum; return the current best estimate."""
        s = float(partial_sum)
        old = self._diag
        new: list[float] = [s]
        # Build the next anti-diagonal: new[k] = ε_k^{(n-k)} where
        # ε_k = ε_{k-2}(shifted) + 1/(ε_{k-1}(new) − ε_{k-1}(old)).
        # The anti-diagonal is cut at a degenerate depth (below), so it
        # can be shorter than the term count; each term lengthens it by at
        # most one entry. The loop walks the old anti-diagonal, carrying
        # ``last`` = new[k-1] and ``prev`` = old[k-2] in locals.
        isfinite = math.isfinite
        append = new.append
        last = s
        prev = 0.0
        for above in old:
            denom = last - above
            scale = abs(last) + abs(above)
            if (not isfinite(denom)
                    or abs(denom) <= _DEGENERATE_RTOL * scale + _TINY):
                # Exact convergence at this depth (or an inf/inf collision
                # in an odd column): cut the anti-diagonal here. The last
                # finished even column already holds the limit.
                break
            nxt = prev + 1.0 / denom
            if not isfinite(nxt):
                break
            append(nxt)
            last = nxt
            prev = above
        self._diag = new
        self._n += 1
        # Deepest even-column entry on the anti-diagonal.
        top = len(new) - 1
        if top % 2 == 1:
            top -= 1
        self._last_estimate = new[top]
        return self._last_estimate


def wynn_epsilon(partial_sums: "np.ndarray | list[float]") -> float:
    """One-shot acceleration of a finite sequence of partial sums."""
    acc = EpsilonAccelerator()
    est = 0.0
    for s in np.asarray(partial_sums, dtype=np.float64):
        est = acc.add(float(s))
    return est
