"""Regenerative schedules: the quantities RR extracts from the model.

Regenerative randomization picks a regenerative state ``r`` and describes
the randomized DTMC ``X̂`` through the statistics of its excursions away
from ``r``. Stepping the sub-stochastic vector

    u_0 = e_r,     u_{k+1} = (u_k P) with the entries at r and at the
                   absorbing states zeroed after recording them,

yields, for every step ``k``:

* ``a(k) = Σ u_k``         — probability the excursion is still running,
* ``c(k) = Σ u_k(i) r_i``  — reward mass carried (``c = a·b`` of the paper),
* ``qmass(k) = (u_k P)_r`` — mass regenerating at step ``k+1``
  (``= q_k a(k)``),
* ``vmass(k, i) = (u_k P)_{f_i}`` — mass absorbed into ``f_i`` at step
  ``k+1`` (``= v_k^i a(k)``).

The same recursion started from the initial distribution restricted to
``S \\ {r}`` (mass ``1 − α_r``) produces the primed schedules ``a'(k)``
etc. Working with the *unnormalized* masses is deliberate: the transforms
of Section 2.1 only ever consume the products ``a(k)b(k)``, ``v_k^i a(k)``
— so no divisions occur and the computation stays subtraction-free, the
stability property randomization methods are prized for.

A :class:`ScheduleBuilder` is *incremental*: truncation-point selection
extends it on demand, and a sweep over increasing ``t`` reuses all
previously computed steps (this is why RR/RRL step counts in the paper's
tables are cumulative-friendly).

Two builders can share one walk (:meth:`ScheduleBuilder.link_twin`).
The *twin* chain equals its *base* except that it makes a set ``D`` of
states absorbing, where the base's rows of ``D`` lead only to ``r`` or
back into ``D``: the paper's UR model is its UA model with FAILED
absorbed instead of repaired to the all-up hub. The twin's vector is
then always the base's with ``D`` zeroed, and one step of both takes
one full product ``Pᵀ w`` of the twin's vector ``w`` (exact for the
twin: the extra entries multiply ``+0.0``, and adding ``+0.0`` to a
sequential row sum of non-negative products changes no bit) plus one
product of the ``|D| + 1`` rows ``r ∪ D`` of the base's ``Pᵀ``, the
only entries where the base's next vector differs. Both schedules stay
bit-identical to stepping each builder alone. A builder without a twin
is a walk without a twin, not a second path: :meth:`ScheduleBuilder.step`
is the one stepping loop. On the paper grid the UR schedules ride the
UA walks, and ``kernel.matvecs`` falls from 24,799 to 15,689.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.batch.kernel import (
    UniformizationKernel,
    _csr_product,
    ensure_model_kernel,
)
from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import RewardStructure

__all__ = ["RegenerativeSchedule", "ScheduleBuilder"]

#: Below this total excursion mass the schedule is declared exhausted:
#: the truncation error of any longer chain is zero at double precision.
_EXHAUSTED = 1e-305


@dataclass(frozen=True)
class RegenerativeSchedule:
    """Frozen snapshot of a schedule prefix (length ``n``).

    ``a`` and ``c`` have length ``n``; ``qmass`` and ``vmass`` have length
    ``n - 1`` (they describe transitions *out of* step ``k`` and the last
    recorded step has not been stepped yet) unless the excursion is
    exhausted, in which case all mass is gone and trailing entries vanish.
    """

    a: np.ndarray
    c: np.ndarray
    qmass: np.ndarray
    vmass: np.ndarray  # shape (n-1, A)
    exhausted: bool

    @property
    def n(self) -> int:
        """Number of recorded steps (entries of ``a``)."""
        return int(self.a.size)

    def b(self, k: int) -> float:
        """Conditional expected reward ``b(k) = c(k)/a(k)`` (0 if a=0)."""
        if self.a[k] <= 0.0:
            return 0.0
        return float(self.c[k] / self.a[k])


class ScheduleBuilder:
    """Incrementally computes a regenerative schedule by stepping ``P``.

    Parameters
    ----------
    transition:
        CSR transition matrix of the randomized DTMC ``X̂``.
    regenerative:
        Index of the regenerative state ``r``.
    absorbing:
        Indices of the absorbing states ``f_1 .. f_A`` (may be empty).
    reward:
        Reward rate vector over the full state space.
    u0:
        Starting sub-stochastic vector (``e_r`` for the main schedule, the
        initial distribution restricted to ``S \\ {r}`` for the primed
        one). Entries at ``r``/absorbing states must already be zero
        except that ``u0 = e_r`` is of course allowed for the main chain.
    kernel:
        Optional pre-built stepping kernel over the same ``P``. The main
        and primed builders (and any other consumer of the model) can
        share one kernel — and hence one CSR transpose — instead of each
        converting ``transition`` privately; stepping is bit-identical
        either way.
    """

    def __init__(self,
                 transition: sparse.csr_matrix,
                 regenerative: int,
                 absorbing: np.ndarray,
                 reward: np.ndarray,
                 u0: np.ndarray,
                 kernel: UniformizationKernel | None = None) -> None:
        self._kernel = kernel if kernel is not None \
            else UniformizationKernel(transition)
        if self._kernel.n_states != transition.shape[0]:
            raise ModelError("kernel does not match transition matrix")
        self._r_idx = int(regenerative)
        self._abs_idx = np.asarray(absorbing, dtype=int)
        self._reward = np.asarray(reward, dtype=np.float64)
        self._u = np.asarray(u0, dtype=np.float64).copy()
        if np.any(self._u < 0.0):
            raise ModelError("u0 must be non-negative")
        if self._abs_idx.size and np.any(self._u[self._abs_idx] > 0.0):
            raise ModelError("u0 must carry no mass on absorbing states")

        self._a: list[float] = [float(self._u.sum())]
        # c, qmass and vmass entries not yet copied into the snapshot
        # buffers below.
        self._c: list[float] = [float(self._reward @ self._u)]
        self._qmass: list[float] = []
        self._vmass: list[np.ndarray] = []
        self._exhausted = self._a[0] <= _EXHAUSTED
        self._steps_done = 0
        self._snapshot: RegenerativeSchedule | None = None
        # Snapshot buffers (a, c, qmass, vmass) and their filled lengths;
        # snapshots are read-only views of their prefixes.
        self._buffers = (np.empty(0), np.empty(0), np.empty(0),
                         np.empty((0, self.n_absorbing)))
        self._filled = (0, 0)
        # Once :meth:`link_twin` has run, a base holds its twin and the
        # rows ``r ∪ D`` of its ``Pᵀ``; a twin refers back to its base
        # weakly, so an evicted pair is freed without the cycle
        # collector.
        self._twin: ScheduleBuilder | None = None
        self._base: weakref.ref[ScheduleBuilder] | None = None
        self._fix_rows = np.zeros(0, dtype=np.intp)
        self._fix: sparse.csr_matrix | None = None

    @classmethod
    def for_model(cls, model: CTMC, rewards: RewardStructure,
                  regenerative: int,
                  rate: float | None = None,
                  kernel: UniformizationKernel | None = None
                  ) -> tuple["ScheduleBuilder", "ScheduleBuilder | None",
                             float, np.ndarray]:
        """Build the main and primed builders for a model.

        Returns ``(main, primed_or_None, rate, absorbing_indices)``.
        The primed builder is ``None`` when the initial distribution is
        concentrated on ``r`` (``α_r = 1``), the paper's ``V_K`` case.
        With a pre-built ``kernel`` (from
        ``UniformizationKernel.from_model(model)``) the model is not
        re-uniformized and both builders step through the shared kernel;
        the schedules are bit-identical either way.
        """
        rewards.check_model(model)
        kernel, dtmc, lam = ensure_model_kernel(model, kernel, rate)
        absorbing = model.absorbing_states()
        if regenerative in set(int(i) for i in absorbing):
            raise ModelError("the regenerative state cannot be absorbing")
        init = model.initial
        if absorbing.size and float(init[absorbing].sum()) > 0.0:
            raise ModelError(
                "initial probability on absorbing states must be zero "
                "(paper assumption P[X(0)=f_i]=0)")
        p = dtmc.transition_matrix
        r_vec = rewards.rates

        e_r = np.zeros(model.n_states)
        e_r[regenerative] = 1.0
        main = cls(p, regenerative, absorbing, r_vec, e_r, kernel=kernel)

        alpha_r = float(init[regenerative])
        primed: ScheduleBuilder | None = None
        if alpha_r < 1.0:
            u0 = init.copy()
            u0[regenerative] = 0.0
            primed = cls(p, regenerative, absorbing, r_vec, u0,
                         kernel=kernel)
        return main, primed, lam, absorbing

    # -- incremental stepping ---------------------------------------------

    @property
    def kernel(self) -> UniformizationKernel:
        """The kernel this builder steps through when it walks alone."""
        return self._kernel

    @property
    def n_recorded(self) -> int:
        """Number of steps with ``a(k)`` recorded (``k = 0 .. n-1``)."""
        return len(self._a)

    @property
    def steps_done(self) -> int:
        """Number of steps recorded past ``u0`` (a twin's are taken on
        its base's products)."""
        return self._steps_done

    @property
    def exhausted(self) -> bool:
        """True once the excursion mass has vanished (no truncation error
        beyond the recorded prefix)."""
        return self._exhausted

    @property
    def n_absorbing(self) -> int:
        """Number of absorbing states ``A``."""
        return int(self._abs_idx.size)

    def a_last(self) -> float:
        """Most recent ``a(k)`` value."""
        return self._a[-1]

    def a_at(self, k: int) -> float:
        """``a(k)`` for an already-recorded step ``k`` (O(1))."""
        return self._a[k]

    def link_twin(self, twin: "ScheduleBuilder",
                  drained: np.ndarray) -> None:
        """Record ``twin`` on this builder's walk from now on.

        ``twin`` must be a fresh builder over the same chain except that
        it makes the states ``drained`` (``D``) absorbing, where this
        chain's rows of ``D`` lead only to ``r`` or back into ``D``. The
        caller checks that, once, on the matrices and vectors
        (:func:`repro.core._setup.link_twins`); this method only refuses
        builders that have stepped or are linked already.
        Then the twin's vector is always this builder's with ``D``
        zeroed, so one product ``Pᵀ w`` of the twin's vector ``w`` gives
        its next vector exactly: the entries it lacks against the twin's
        own ``Pᵀ`` multiply ``+0.0``, and adding ``+0.0`` to a sum of
        non-negative products changes no bit. This builder's next vector
        differs from that product only at ``r`` and ``D``, and a product
        of those ``|D| + 1`` rows of ``Pᵀ`` with its own vector fills
        them in, each row summed in its own order. Both schedules stay
        bit-identical to stepping each builder alone.
        """
        if self._steps_done or twin._steps_done \
                or self._twin is not None or self._base is not None \
                or twin._twin is not None or twin._base is not None:
            raise ModelError("only two fresh, unlinked builders can be "
                             "linked as twins")
        drained = np.unique(np.asarray(drained, dtype=np.intp))
        self._fix_rows = np.concatenate(([self._r_idx], drained))
        self._fix = self._kernel.rows(self._fix_rows)
        self._twin = twin
        twin._base = weakref.ref(self)

    def step(self) -> None:
        """Advance one step (no-op when exhausted).

        A linked pair (see :meth:`link_twin`) advances together, whichever
        of the two is asked: one walk records the base and, while it is
        not exhausted, its twin. A builder without a live partner walks
        alone on its own vector and kernel.
        """
        if self._exhausted:
            return
        base = self._base() if self._base is not None else None
        lead = base if base is not None and not base._exhausted else self
        twin = lead._twin
        if twin is None or twin._exhausted:
            lead._record(lead._kernel.step(lead._u))
            return
        y = lead._kernel.step(twin._u)
        full = y.copy()
        full[lead._fix_rows] = _csr_product(lead._fix, lead._u)
        lead._record(full)
        twin._record(y)

    def _record(self, y: np.ndarray) -> None:
        """Take step ``k + 1`` from ``y = u_k P``, which becomes ``u``."""
        q = float(y[self._r_idx])
        y[self._r_idx] = 0.0
        if self._abs_idx.size:
            v = y[self._abs_idx].copy()
            y[self._abs_idx] = 0.0
        else:
            v = np.zeros(0)
        self._qmass.append(q)
        self._vmass.append(v)
        self._u = y
        self._a.append(float(y.sum()))
        self._c.append(float(self._reward @ y))
        self._steps_done += 1
        if self._a[-1] <= _EXHAUSTED:
            self._exhausted = True

    def extend_to(self, k: int) -> None:
        """Ensure ``a(k)`` is recorded (or the schedule is exhausted)."""
        while len(self._a) <= k and not self._exhausted:
            self.step()

    def snapshot(self) -> RegenerativeSchedule:
        """Freeze the current prefix into read-only arrays.

        While no step has been taken since the last call, that snapshot
        is returned again; its arrays are read-only so consumers sharing
        it cannot see each other's writes. A new snapshot copies only
        the steps taken since the last one: its arrays are views of
        buffers that grow by doubling, and the entries an earlier
        snapshot shows are never written again.
        """
        snap = self._snapshot
        if snap is not None and snap.n == len(self._a) \
                and snap.exhausted == self._exhausted:
            return snap
        buf_a, buf_c, buf_q, buf_v = self._buffers
        n_old, m_old = self._filled
        n, m = len(self._a), m_old + len(self._qmass)
        buf_a = _append(buf_a, n_old, self._a[n_old:])
        buf_c = _append(buf_c, n_old, self._c)
        buf_q = _append(buf_q, m_old, self._qmass)
        buf_v = _append(buf_v, m_old, self._vmass)
        self._c, self._qmass, self._vmass = [], [], []
        self._buffers = (buf_a, buf_c, buf_q, buf_v)
        self._filled = (n, m)
        arrays = (buf_a[:n], buf_c[:n], buf_q[:m], buf_v[:m])
        for arr in arrays:
            arr.flags.writeable = False
        snap = RegenerativeSchedule(*arrays, exhausted=self._exhausted)
        self._snapshot = snap
        return snap


def _append(buf: np.ndarray, filled: int, rows) -> np.ndarray:
    """Write ``rows`` after the first ``filled`` entries of ``buf``; when
    they do not fit, into a copy of that prefix twice as long instead."""
    if not len(rows):
        return buf
    end = filled + len(rows)
    if end > len(buf):
        grown = np.empty((max(end, 2 * len(buf)),) + buf.shape[1:])
        grown[:filled] = buf[:filled]
        buf = grown
    buf[filled:end] = rows
    return buf
