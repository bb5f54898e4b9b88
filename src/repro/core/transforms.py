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

Evaluation strategy: all sums are polynomials in ``γ`` with non-negative
coefficients. For a batch of abscissae we form each chain's matrix of
powers ``γ^k`` via ``exp(k·log γ)`` (``|γ| < 1`` for ``Re s > 0``, so this
is stable and fully vectorized) and take inner products with the
coefficient vectors. Every public transform builds each chain's powers
matrix once per call and shares it between ``p̃_0`` and its own sums. The
transform also exposes ``p_absorbed_a`` — the transform of the probability
of the truncation state — used by a-posteriori error checks.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedules import RegenerativeSchedule
from repro.exceptions import ModelError

__all__ = ["VklTransform"]


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

        # Main-chain coefficient vectors (lengths K+1 / K).
        self._a = main.a[: k + 1]
        self._c = main.c[: k + 1]
        n_trans = min(k, main.vmass.shape[0])
        vm = main.vmass[:n_trans]
        self._vsum = np.zeros(k)
        self._rfv = np.zeros(k)
        if vm.shape[1]:
            self._vsum[:n_trans] = vm.sum(axis=1)
            self._rfv[:n_trans] = vm @ rf
        self._a_tail = self._a[k] if k < main.n else 0.0

        # Primed-chain coefficient vectors.
        self._has_primed = primed is not None
        if primed is not None:
            lp = int(l_point)  # type: ignore[arg-type]
            if lp >= primed.n:
                if not primed.exhausted:
                    raise ModelError(f"primed schedule too short for L={lp}")
                lp = primed.n - 1
            self._l = lp
            self._ap = primed.a[: lp + 1]
            self._cp = primed.c[: lp + 1]
            n_t = min(lp, primed.vmass.shape[0])
            vmp = primed.vmass[:n_t]
            self._vsum_p = np.zeros(lp)
            self._rfv_p = np.zeros(lp)
            if vmp.shape[1]:
                self._vsum_p[:n_t] = vmp.sum(axis=1)
                self._rfv_p[:n_t] = vmp @ rf
            self._ap_tail = self._ap[lp]
        else:
            self._l = None

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
        """Matrix ``γ(s)^k`` of shape ``(len(s), n)``."""
        gamma = self._rate / (s + self._rate)
        ks = np.arange(n, dtype=np.float64)
        return np.exp(np.log(gamma)[:, None] * ks[None, :])

    def _chain_powers(self, s: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray | None]:
        """Powers matrices of the main chain (``K + 1`` columns) and of the
        primed chain (``L + 1`` columns, ``None`` if α_r = 1)."""
        pw = self._powers(s, self._k + 1)
        if not self._has_primed:
            return pw, None
        return pw, self._powers(s, self._l + 1)

    def _p0(self, s: np.ndarray, pw: np.ndarray,
            pwp: np.ndarray | None) -> np.ndarray:
        """``p̃_0(s)`` from precomputed powers matrices."""
        lam = self._rate
        b_val = (s * (pw @ self._a)
                 + lam * (pw[:, : self._k] @ self._vsum)
                 + lam * self._a_tail * pw[:, self._k])
        if pwp is None:
            return 1.0 / b_val
        lp = self._l
        a_val = (1.0
                 - (s / (s + lam)) * (pwp[:, :lp] @ self._ap[:lp])
                 - (lam / (s + lam)) * (pwp[:, :lp] @ self._vsum_p)
                 - self._ap_tail * pwp[:, lp])
        return a_val / b_val

    # -- transform components ---------------------------------------------

    def p0(self, s: np.ndarray) -> np.ndarray:
        """Transform of ``P[V(t) = s_0]`` at complex abscissae ``s``."""
        s = np.asarray(s, dtype=np.complex128)
        return self._p0(s, *self._chain_powers(s))

    def trr(self, s: np.ndarray) -> np.ndarray:
        """Transform of ``TRR^a_{K,L}(t)`` at complex abscissae ``s``."""
        s = np.asarray(s, dtype=np.complex128)
        lam = self._rate
        pw, pwp = self._chain_powers(s)
        main_reward = pw @ self._c
        main_absorb = (lam / s) * (pw[:, : self._k] @ self._rfv)
        out = (main_reward + main_absorb) * self._p0(s, pw, pwp)
        if pwp is not None:
            lp = self._l
            gamma = lam / (s + lam)
            out = out + (pwp @ self._cp) / (s + lam)
            out = out + (gamma / s) * (pwp[:, :lp] @ self._rfv_p)
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
        pw, pwp = self._chain_powers(s)
        p0 = self._p0(s, pw, pwp)
        out = (lam / s) * self._a_tail * pw[:, self._k] * p0
        if pwp is not None:
            out = out + (lam / s) * self._ap_tail * pwp[:, self._l] / (s + lam)
        return out
