"""Stationary distribution solvers for irreducible chains.

Two algorithms:

* **GTH elimination** (Grassmann–Taksar–Heyman) — subtraction-free Gaussian
  elimination on the generator; numerically exact to relative precision and
  the reference method, but dense ``O(n^3)``, so reserved for chains up to a
  size threshold.
* **Sparse pinned solve** — fix ``π_j = 1`` at a high-probability state
  ``j``, drop that state's balance equation, solve the remaining sparse
  nonsingular system, then clip and renormalize. The system is solved by
  GMRES preconditioned with an incomplete LU (``spilu``); when the
  incomplete factorization fails, GMRES does not converge, or the
  residual gate rejects the result, the complete sparse LU (SuperLU) of
  the same system takes over. This is what the RSD baseline uses on the
  RAID chains (5.5k and 20.6k states), where the complete LU fills to
  ~15 M nonzeros at G=40 and the incomplete one keeps ~0.37 M.

Both accept a :class:`~repro.markov.ctmc.CTMC` or a
:class:`~repro.markov.dtmc.DTMC` (for a DTMC, ``Q = P - I``; for a
uniformized chain the two stationary vectors coincide).
:func:`stationary_residual` reports how well a vector balances ``Q``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, spilu, spsolve

from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.dtmc import DTMC

__all__ = ["stationary_distribution", "stationary_residual", "gth_solve"]

_GTH_MAX_STATES = 1200


def gth_solve(generator: np.ndarray) -> np.ndarray:
    """GTH elimination on a dense generator matrix.

    Parameters
    ----------
    generator:
        Dense ``(n, n)`` generator of an irreducible CTMC (or ``P - I`` of
        an irreducible DTMC). The diagonal is ignored — GTH only ever uses
        off-diagonal rates, which is where its subtraction-free stability
        comes from.

    Returns
    -------
    numpy.ndarray
        Stationary probability vector.
    """
    a = np.array(generator, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ModelError("generator must be square")
    np.fill_diagonal(a, 0.0)
    if np.any(a < 0.0):
        raise ModelError("negative off-diagonal rate")
    # Forward elimination: censor state k out of the chain on {0..k}. After
    # the loop, column k above the diagonal holds the censored rates j -> k
    # of the chain restricted to {0..k}, and s_vals[k] the exit rate of k in
    # that censored chain.
    s_vals = np.zeros(n)
    for k in range(n - 1, 0, -1):
        total = a[k, :k].sum()
        if total <= 0.0:
            raise ModelError(
                f"state {k} cannot reach lower-numbered states; "
                "chain not irreducible (or needs reordering)")
        s_vals[k] = total
        a[k, :k] /= total
        # Rank-1 update with only additions/multiplications of positives.
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    # Back substitution: flow balance of state k in the censored chain,
    # π_k s_k = Σ_{j<k} π_j ã_{jk}.
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = (x[:k] @ a[:k, k]) / s_vals[k]
    total = x.sum()
    return x / total


def _bulk_state(q: sparse.csr_matrix) -> int:
    """Cheap guess of a high-probability state: a few uniformized power
    steps from the uniform vector (finds the bulk of the stationary
    mass, which is where the pinned component must sit to avoid
    overflow in the fixed-component solve)."""
    n = q.shape[0]
    out_rates = -q.diagonal()
    lam = float(out_rates.max())
    if lam <= 0.0:
        return 0
    pt = (q.T.multiply(1.0 / lam)).tocsr()
    pi = np.full(n, 1.0 / n)
    for _ in range(64):
        pi = pi + pt @ pi
        pi /= pi.sum()
    return int(np.argmax(pi))


#: ``spilu`` drop tolerance of the GMRES preconditioner. On the G=40 RAID
#: chain it keeps ~0.37 M factor nonzeros, where the complete LU fills to
#: ~15 M.
_ILU_DROP_TOL = 1e-3

#: Relative residual GMRES must reach: what the complete LU itself
#: reaches on the RAID chains (~3e-14). A tighter target only stalls.
_GMRES_RTOL = 3e-14

#: GMRES restart length and restart cycles. Started from the ILU solution,
#: a solve that converges takes ~6 iterations on the RAID chains; the cap
#: bounds a stalled one.
_GMRES_RESTART = 20
_GMRES_CYCLES = 5


def _residual(q: sparse.csr_matrix, pi: np.ndarray) -> float:
    """``max|π Q|``: how far ``π`` is from balancing the generator."""
    return float(np.abs(pi @ q).max())


def _pinned_solves(a: sparse.csc_matrix, b: np.ndarray):
    """Yield solutions of ``a x = b``, cheapest first.

    First GMRES preconditioned by an incomplete LU and started from the
    ILU solution (where nothing is dropped, e.g. on a birth–death chain,
    that start already meets the target and comes back unchanged). It is
    skipped when ``spilu`` fails or GMRES misses ``_GMRES_RTOL``. Then
    the complete LU (SuperLU, COLAMD ordering), which the caller only
    asks for when the first solution is rejected.
    """
    try:
        ilu = spilu(a, drop_tol=_ILU_DROP_TOL)
    except RuntimeError:  # an exactly singular incomplete factor
        pass
    else:
        precond = LinearOperator(a.shape, ilu.solve)
        x, info = gmres(a, b, x0=ilu.solve(b), M=precond, rtol=_GMRES_RTOL,
                        atol=0.0, restart=_GMRES_RESTART,
                        maxiter=_GMRES_CYCLES)
        if info == 0:
            yield x
    yield spsolve(a, b)


def _sparse_stationary(q: sparse.csr_matrix) -> np.ndarray:
    """Solve ``π Q = 0`` by pinning one component and renormalizing.

    Setting ``π_j = 1`` for a bulk state ``j`` and dropping that state's
    balance equation leaves a sparse nonsingular system ``A x = b``.
    Pinning a *bulk* state keeps the remaining components
    ``<= O(1/π_j)``, avoiding overflow on strongly skewed chains. Each
    solution of the pinned system (see :func:`_pinned_solves`) is
    clipped at 0, normalized and accepted only if its residual
    ``max|π Q|`` is at most ``1e-8`` times the largest rate; a rejected
    GMRES solution falls back to the complete LU of the same system, a
    rejected LU solution to the next pin (states 0 and ``n-1``).
    """
    n = q.shape[0]
    qt = q.T.tocsc()
    scale = float(np.abs(q.data).max()) if q.nnz else 1.0
    candidates = [_bulk_state(q), 0, n - 1]
    last_error: Exception | None = None
    for j in dict.fromkeys(candidates):
        keep = np.arange(n) != j
        rows = qt[keep]
        a = rows[:, keep].tocsc()
        b = -rows[:, [j]].toarray().ravel()
        with np.errstate(all="ignore"):
            for x in _pinned_solves(a, b):
                x = np.asarray(x).ravel()
                if np.any(~np.isfinite(x)):
                    last_error = ModelError(
                        f"fixed-component solve at state {j} produced "
                        "non-finite entries")
                    continue
                pi = np.empty(n)
                pi[keep] = x
                pi[j] = 1.0
                pi = np.clip(pi, 0.0, None)
                s = pi.sum()
                if not np.isfinite(s) or s <= 0.0:
                    last_error = ModelError("stationary solve produced a "
                                            "zero or non-finite vector")
                    continue
                pi /= s
                resid = _residual(q, pi)
                if resid <= 1e-8 * scale:
                    return pi
                last_error = ModelError(
                    f"stationary residual {resid} too large")
    raise ModelError(
        "sparse stationary solve failed (chain not irreducible, or "
        f"numerically degenerate): {last_error}")


def _generator(chain: CTMC | DTMC) -> sparse.csr_matrix:
    """``Q`` of a CTMC, or ``P - I`` of a DTMC."""
    if isinstance(chain, CTMC):
        return chain.generator
    if isinstance(chain, DTMC):
        n = chain.n_states
        return (chain.transition_matrix
                - sparse.eye(n, format="csr")).tocsr()
    raise TypeError("chain must be a CTMC or DTMC")


def stationary_residual(chain: CTMC | DTMC, pi: np.ndarray) -> float:
    """``max|π Q|`` of a candidate stationary vector ``π``.

    ``Q`` is formed exactly as :func:`stationary_distribution` forms it,
    so for a vector from the sparse path this is the value its residual
    gate accepted.
    """
    return _residual(_generator(chain), pi)


def stationary_distribution(chain: CTMC | DTMC, *,
                            method: str = "auto") -> np.ndarray:
    """Stationary distribution of an irreducible CTMC or DTMC.

    Parameters
    ----------
    chain:
        The chain. A DTMC is converted through ``Q = P - I``.
    method:
        ``"gth"`` (dense, exact), ``"sparse"`` (pinned system solved by
        ILU-preconditioned GMRES, falling back to a complete sparse LU),
        or ``"auto"`` (GTH up to ``1200`` states, sparse above).
    """
    q = _generator(chain)
    n = q.shape[0]
    if method == "auto":
        method = "gth" if n <= _GTH_MAX_STATES else "sparse"
    if method == "gth":
        return gth_solve(q.toarray())
    if method == "sparse":
        return _sparse_stationary(q)
    raise ValueError(f"unknown method {method!r}")
