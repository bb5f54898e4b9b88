"""Shared preparation code for the RR and RRL solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.kernel import UniformizationKernel
from repro.core.schedules import ScheduleBuilder
from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import RewardStructure

__all__ = ["RegenerativeSetup", "prepare"]


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
