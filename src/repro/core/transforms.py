"""Closed-form Laplace transforms of the truncated transformed model.

Given the regenerative schedules and truncation points ``K, L`` the chain
``V_{K,L}`` admits closed-form transforms (paper, Section 2.1). With
``γ = Λ/(s+Λ)`` and the *unnormalized* schedule masses
(``c(k) = a(k)b(k)``, ``vmass_k = Σ_i v_k^i a(k)``,
``rfv_k = Σ_i r_{f_i} v_k^i a(k)``):

    p̃_0(s) = A(s) / B(s)
    A(s) = 1 − (s/(s+Λ)) Σ_{k=0}^{L-1} a'(k)γ^k
             − (Λ/(s+Λ)) Σ_{k=0}^{L-1} vmass'_k γ^k − a'(L) γ^L
    B(s) = s Σ_{k=0}^{K} a(k)γ^k + Λ Σ_{k=0}^{K-1} vmass_k γ^k
             + Λ a(K) γ^K

    TRR̃(s) = [ Σ_{k=0}^{K} c(k)γ^k + (Λ/s) Σ_{k=0}^{K-1} rfv_k γ^k ] p̃_0(s)
              + (1/(s+Λ)) Σ_{k=0}^{L} c'(k)γ^k
              + (1/s) Σ_{k=0}^{L-1} rfv'_k γ^{k+1}

    C̃(s)   = TRR̃(s)/s              (C(t) = t·MRR(t))

(The paper prints A(s) with sums to ``L`` and a trailing ``a'(L)γ^{L+1}``;
the two forms are algebraically identical since ``s/(s+Λ) + γ = 1``. We
re-derived the expressions from the chain's balance equations, and
``tests/core/test_transforms.py`` / ``tests/core/test_vkl.py`` verify them
against a direct solution of the explicitly-built ``V_{K,L}``.)

When ``α_r = 1`` there is no primed chain: ``A(s) = 1`` and the primed
sums vanish (the paper's ``V_K`` case).

Evaluation strategy: every sum is a polynomial in ``γ`` with non-negative
coefficients, and ``|γ| < 1`` for ``Re s > 0``. For a batch of abscissae
each chain gets one matrix of powers ``γ^k`` (``K + 1`` columns for the
main chain, ``L + 1`` for the primed one). Its entries come from two small
tables of ``exp(j·log γ)``, one for ``j = 0 .. B−1`` and one for
``j = 0, B, 2B, …``: ``γ^(qB+r) = γ^(qB)·γ^r``, one complex multiply per
entry instead of one complex ``exp``, and no less accurate (checked
against 40-digit powers in ``tests/core/test_transforms.py``). Each
chain's coefficient vectors are stacked once per transform into a
complex matrix, zero-padded to the chain's power count (main:
``a, c, vmass, rfv``; primed: ``a'`` up to ``L − 1``, ``vmass', c',
rfv'``), so each public transform costs one matrix product per chain;
``p̃_0`` and the transform's own sums read their columns. The transform
also exposes ``p_absorbed_a`` — the transform of the probability of the
truncation state — used by a-posteriori error checks.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedules import RegenerativeSchedule
from repro.exceptions import ModelError

__all__ = ["VklTransform"]

#: Block length ``B`` of the factored powers ``γ^(qB+r) = γ^(qB)·γ^r``.
#: A power of two, so ``q·B·log γ`` rounds the same however it is grouped.
_BLOCK = 64


class VklTransform:
    """Vectorized evaluator of the closed-form transforms of ``V_{K,L}``.

    Parameters
    ----------
    main:
        Main-chain schedule snapshot (must cover steps ``0..K``).
    primed:
        Primed-chain snapshot covering ``0..L``, or ``None`` for
        ``α_r = 1``.
    k_point, l_point:
        Truncation points ``K`` and ``L`` (``l_point`` must be ``None``
        iff ``primed`` is).
    rate:
        Randomization rate ``Λ``.
    absorbing_rewards:
        Reward rates of the ``A`` absorbing states, aligned with the
        ``vmass`` columns of the schedules.
    """

    def __init__(self,
                 main: RegenerativeSchedule,
                 primed: RegenerativeSchedule | None,
                 k_point: int,
                 l_point: int | None,
                 rate: float,
                 absorbing_rewards: np.ndarray) -> None:
        if (primed is None) != (l_point is None):
            raise ModelError("primed schedule and l_point must come together")
        k = int(k_point)
        if k >= main.n:
            if not main.exhausted:
                raise ModelError(f"main schedule too short for K={k}")
            k = main.n - 1
        self._k = k
        self._rate = float(rate)
        rf = np.asarray(absorbing_rewards, dtype=np.float64)

        # Main-chain columns over γ^0..γ^K: a, c, vmass, rfv (the last
        # two stop at K−1 and are zero at K).
        self._coef = _stack_columns(k + 1, main.a[: k + 1], main.c[: k + 1],
                                    *_absorbed_sums(main, k, rf))
        self._a_tail = main.a[k]

        # Primed-chain columns over γ^0..γ^L: a' (to L−1), vmass', c',
        # rfv'.
        if primed is not None:
            lp = int(l_point)  # type: ignore[arg-type]
            if lp >= primed.n:
                if not primed.exhausted:
                    raise ModelError(f"primed schedule too short for L={lp}")
                lp = primed.n - 1
            vsum_p, rfv_p = _absorbed_sums(primed, lp, rf)
            self._coef_p = _stack_columns(lp + 1, primed.a[:lp], vsum_p,
                                          primed.c[: lp + 1], rfv_p)
            self._ap_tail = primed.a[lp]
        self._l = lp if primed is not None else None

    # -- helpers -----------------------------------------------------------

    @property
    def k_point(self) -> int:
        """Effective main truncation point ``K``."""
        return self._k

    @property
    def l_point(self) -> int | None:
        """Effective primed truncation point ``L`` (``None`` if α_r = 1)."""
        return self._l

    def _powers(self, s: np.ndarray, n: int) -> np.ndarray:
        """Matrix ``γ(s)^k`` of shape ``(len(s), n)``, built blockwise as
        ``exp(qB·log γ)·exp(r·log γ)`` for ``k = qB + r``."""
        log_gamma = np.log(self._rate / (s + self._rate))[:, None]
        n_blocks = (n + _BLOCK - 1) // _BLOCK
        low = np.exp(log_gamma * np.arange(_BLOCK, dtype=np.float64))
        high = np.exp(log_gamma * np.arange(0, n_blocks * _BLOCK, _BLOCK,
                                            dtype=np.float64))
        full = high[:, :, None] * low[:, None, :]
        return full.reshape(s.shape[0], n_blocks * _BLOCK)[:, :n]

    def _sums(self, s: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray,
                         np.ndarray | None, np.ndarray | None]:
        """Each chain's column sums and its last power: main sums
        ``(len(s), 4)`` and ``γ^K``, then primed sums and ``γ^L`` (both
        ``None`` if α_r = 1)."""
        pw = self._powers(s, self._k + 1)
        main = pw @ self._coef
        if self._l is None:
            return main, pw[:, self._k], None, None
        pwp = self._powers(s, self._l + 1)
        return main, pw[:, self._k], pwp @ self._coef_p, pwp[:, self._l]

    def _p0(self, s: np.ndarray, main: np.ndarray, gamma_k: np.ndarray,
            primed: np.ndarray | None,
            gamma_l: np.ndarray | None) -> np.ndarray:
        """``p̃_0(s)`` from the chains' column sums (see :meth:`_sums`)."""
        lam = self._rate
        b_val = (s * main[:, 0] + lam * main[:, 2]
                 + lam * self._a_tail * gamma_k)
        if primed is None:
            return 1.0 / b_val
        a_val = (1.0
                 - (s / (s + lam)) * primed[:, 0]
                 - (lam / (s + lam)) * primed[:, 1]
                 - self._ap_tail * gamma_l)
        return a_val / b_val

    # -- transform components ---------------------------------------------

    def p0(self, s: np.ndarray) -> np.ndarray:
        """Transform of ``P[V(t) = s_0]`` at complex abscissae ``s``."""
        s = np.asarray(s, dtype=np.complex128)
        return self._p0(s, *self._sums(s))

    def trr(self, s: np.ndarray) -> np.ndarray:
        """Transform of ``TRR^a_{K,L}(t)`` at complex abscissae ``s``."""
        s = np.asarray(s, dtype=np.complex128)
        lam = self._rate
        main, gamma_k, primed, gamma_l = self._sums(s)
        p0 = self._p0(s, main, gamma_k, primed, gamma_l)
        out = (main[:, 1] + (lam / s) * main[:, 3]) * p0
        if primed is not None:
            gamma = lam / (s + lam)
            out = out + primed[:, 2] / (s + lam)
            out = out + (gamma / s) * primed[:, 3]
        return out

    def cumulative(self, s: np.ndarray) -> np.ndarray:
        """Transform of ``C_{K,L}(t) = t·MRR^a_{K,L}(t)``."""
        s = np.asarray(s, dtype=np.complex128)
        return self.trr(s) / s

    def p_absorbed_a(self, s: np.ndarray) -> np.ndarray:
        """Transform of ``P[V(t) = a]`` — the realized truncation loss.

        Flow into ``a`` comes from ``s_K`` at rate ``Λ`` and (primed case)
        from ``s'_L`` at rate ``Λ``:
        ``p̃_a = (Λ/s)[a(K)γ^K p̃_0 + a'(L)γ^L/(s+Λ)]``.
        Useful as an a-posteriori truncation-error certificate:
        ``err <= r_max · p_a(t)``.
        """
        s = np.asarray(s, dtype=np.complex128)
        lam = self._rate
        main, gamma_k, primed, gamma_l = self._sums(s)
        p0 = self._p0(s, main, gamma_k, primed, gamma_l)
        out = (lam / s) * self._a_tail * gamma_k * p0
        if gamma_l is not None:
            out = out + (lam / s) * self._ap_tail * gamma_l / (s + lam)
        return out


def _absorbed_sums(schedule: RegenerativeSchedule, n: int,
                   rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``vmass_k`` summed over the absorbing states, and weighted by their
    rewards, for ``k < n`` (zero past the recorded transitions)."""
    n_trans = min(n, schedule.vmass.shape[0])
    vm = schedule.vmass[:n_trans]
    vsum = np.zeros(n)
    rfv = np.zeros(n)
    if vm.shape[1]:
        vsum[:n_trans] = vm.sum(axis=1)
        rfv[:n_trans] = vm @ rf
    return vsum, rfv


def _stack_columns(rows: int, *columns: np.ndarray) -> np.ndarray:
    """Complex ``(rows, len(columns))`` matrix of the columns, each
    zero-padded at the end to ``rows``."""
    out = np.zeros((rows, len(columns)), dtype=np.complex128)
    for j, col in enumerate(columns):
        out[: col.shape[0], j] = col
    return out
