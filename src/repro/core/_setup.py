"""Shared preparation code for the RR and RRL solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.kernel import UniformizationKernel
from repro.core.schedules import ScheduleBuilder
from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import RewardStructure

__all__ = ["RegenerativeSetup", "link_twins", "prepare"]


@dataclass
class RegenerativeSetup:
    """Everything both regenerative solvers need before per-``t`` work.

    Holds the incremental schedule builders (shared across all requested
    time points — larger horizons extend, never recompute), the
    randomization rate, the absorbing-state bookkeeping and ``α_r``.
    """

    main: ScheduleBuilder
    primed: ScheduleBuilder | None
    rate: float
    absorbing: np.ndarray
    absorbing_rewards: np.ndarray
    alpha_r: float
    regenerative: int


def default_regenerative_state(model: CTMC) -> int:
    """The paper's choice: the (most likely) initial state.

    Ties are broken by index; absorbing states are excluded (an absorbing
    regenerative state would make the excursion description degenerate).
    """
    mask = np.ones(model.n_states, dtype=bool)
    mask[model.absorbing_states()] = False
    masked = np.where(mask, model.initial, -1.0)
    idx = int(np.argmax(masked))
    if masked[idx] < 0.0:
        raise ModelError("model has no non-absorbing state")
    return idx


def prepare(model: CTMC, rewards: RewardStructure,
            regenerative: int | None, rate: float | None,
            kernel: UniformizationKernel | None = None
            ) -> RegenerativeSetup:
    """Uniformize the model and construct the schedule builders.

    An injected pre-built ``kernel`` skips the re-uniformization and lets
    both schedule builders step through the shared CSR; the resulting
    setup is bit-identical.
    """
    if regenerative is None:
        regenerative = default_regenerative_state(model)
    main, primed, lam, absorbing = ScheduleBuilder.for_model(
        model, rewards, regenerative, rate, kernel=kernel)
    return RegenerativeSetup(
        main=main,
        primed=primed,
        rate=lam,
        absorbing=absorbing,
        absorbing_rewards=rewards.rates[absorbing],
        alpha_r=float(model.initial[regenerative]),
        regenerative=int(regenerative),
    )


def link_twins(first: tuple[CTMC, RegenerativeSetup],
               second: tuple[CTMC, RegenerativeSetup]) -> bool:
    """Step two fresh ``(model, setup)`` pairs on one walk when exact
    twins; return whether they were linked.

    The base is the setup with fewer absorbing states; its twin makes the
    extra states ``D`` absorbing. They are linked only when all of this
    holds exactly: the same number of states, the same resolved ``Λ``
    and ``r``, the same initial vector, bit-equal CSR rows of the
    uniformized ``P`` outside ``D``, and base rows of ``D`` whose
    entries all lie in ``{r} ∪ D``. Then every schedule entry of both
    setups is bit-identical to stepping them apart
    (:meth:`~repro.core.schedules.ScheduleBuilder.link_twin`), at one
    full product per step instead of two. A pair that fails the check is
    left as it is. This is the one place the twin condition is checked:
    ``link_twin`` only refuses, with :class:`~repro.exceptions.ModelError`,
    setups that have stepped or are linked already. Equal initial vectors
    and ``r`` give equal start vectors, since :func:`prepare` derives
    both builders' from them.
    """
    (base_model, base), (twin_model, twin) = first, second
    if twin.absorbing.size < base.absorbing.size:
        (base_model, base), (twin_model, twin) = second, first
    drained = np.setdiff1d(twin.absorbing, base.absorbing)
    if (base_model.n_states != twin_model.n_states
            or base.rate != twin.rate
            or base.regenerative != twin.regenerative
            or not np.array_equal(base_model.initial, twin_model.initial)
            or not drained.size
            or not np.isin(base.absorbing, twin.absorbing).all()):
        return False
    p = base.main.kernel.dtmc.transition_matrix
    q = twin.main.kernel.dtmc.transition_matrix
    if not (_rows_outside(p, drained) == _rows_outside(q, drained)):
        return False
    hub_or_drained = np.append(drained, base.regenerative)
    for d in drained:
        if not np.isin(p.indices[p.indptr[d]:p.indptr[d + 1]],
                       hub_or_drained).all():
            return False
    base.main.link_twin(twin.main, drained)
    if base.primed is not None:
        base.primed.link_twin(twin.primed, drained)
    return True


def _rows_outside(p, drained: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """The raw CSR layout of ``p``'s rows outside ``drained``: row
    lengths, column indices and the bits of the values."""
    counts = np.diff(p.indptr)
    keep = np.ones(p.shape[0], dtype=bool)
    keep[drained] = False
    entries = np.repeat(keep, counts)
    return (counts[keep].astype(np.int64).tobytes(),
            p.indices[entries].astype(np.int64).tobytes(),
            np.ascontiguousarray(p.data[entries],
                                 dtype=np.float64).tobytes())
