"""Cross-cell memoization of the RR/RRL schedule transformation.

The expensive, cell-independent part of both regenerative solvers is the
*transformation phase*: stepping the randomized DTMC to extract the
regenerative schedules (``K + L`` matrix–vector products per model). The
per-``t`` work — truncation-point selection, building/inverting
``V_{K,L}`` — only ever *reads* schedule prefixes. Two properties make the
phase memoizable across solve calls:

* a :class:`~repro.core.schedules.ScheduleBuilder` is **incremental and
  prefix-stable** — extending it for a larger horizon never changes any
  already-recorded ``a(k)/c(k)/q_k/v_k`` entry, and truncation selection
  plus the transforms consume only the ``[0..K]`` (``[0..L]``) prefix;
* the schedules depend only on ``(model, rewards, regenerative state,
  randomization rate)`` — **not** on ``t`` or ``ε`` (those only decide
  how far the prefix must extend) and not on solver tuning knobs like
  RRL's ``t_factor`` or RR's ``inner_max_steps``.

So a grid of RR/RRL cells sharing a model pays the stepping phase once:
the first cell builds the :class:`~repro.core._setup.RegenerativeSetup`,
later cells (RR *and* RRL — the key carries no method) reuse and at most
extend it, with bit-for-bit identical values and step counts (pinned by
``tests/core/test_schedule_cache.py`` and ``run_paper_grid.py
--verify``, which compares every grid cell with a direct solve).

Workers use the process-wide instance (:func:`process_schedule_cache`),
registered in :mod:`repro.cache` as ``"schedules"``; the planner's
:func:`repro.batch.planner.run_request` injects it into every solver
whose :class:`~repro.solvers.registry.SolverSpec` declares
``schedule_memoizable``. A direct ``solve`` call without a
``schedule_cache`` builds its own schedules.

Setups can also be *linked*. :meth:`ScheduleCache.prepare_twins` builds
the setups of one planner twin group (the RR/RRL cells of a model's
variants) together, and links each pair that passes the exact check of
:func:`~repro.core._setup.link_twins`: the same ``n``, resolved ``Λ``
and ``r`` and initial vector, bit-equal CSR rows of ``P`` outside the
twin's extra absorbing states ``D``, and base rows of ``D`` that lead
only to ``r`` or ``D``. A linked pair steps on one walk, one full
product per step instead of two (see :mod:`repro.core.schedules` for
why that is exact). The check runs once per pair, when both setups are
built; a warm pass finds them cached and repeats neither the check nor
any product.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from typing import TYPE_CHECKING

from repro.cache import BoundedCache, shared_cache
from repro.core._setup import (
    RegenerativeSetup,
    default_regenerative_state,
    link_twins,
    prepare,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.kernel import UniformizationKernel
    from repro.markov.ctmc import CTMC
    from repro.markov.rewards import RewardStructure

__all__ = [
    "ScheduleCache",
    "process_schedule_cache",
    "process_schedule_cache_clear",
    "process_schedule_cache_info",
]

#: Setups a process keeps warm. A paper-style grid touches a handful of
#: models; RR and RRL share entries (the key has no method), so 16 covers
#: every in-tree sweep while bounding a long-lived worker's memory.
_DEFAULT_MAX_ENTRIES = 16


class ScheduleCache(BoundedCache):
    """LRU of :class:`~repro.core._setup.RegenerativeSetup` objects keyed
    on ``(model digest, rewards digest, regenerative state, rate)``.

    Entries are *live* builders: a consumer may extend them (that is the
    point — later cells inherit the prefix), but must never mutate
    recorded entries; :class:`~repro.core.schedules.ScheduleBuilder` has
    no API to do so.
    """

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        super().__init__(max_entries)

    @staticmethod
    def key_for(model: "CTMC", rewards: "RewardStructure",
                regenerative: int | None, rate: float | None,
                kernel: "UniformizationKernel | None" = None) -> tuple:
        """The cache identity of a transformation request.

        ``regenerative``/``rate`` are resolved to the same defaults the
        solvers use (paper's choice of the initial state; the model's
        maximum output rate), so explicit-default and implicit-default
        requests share one entry.
        """
        if regenerative is None:
            regenerative = default_regenerative_state(model)
        if rate is None:
            if kernel is not None and kernel.rate is not None:
                rate = kernel.rate
            else:
                rate = model.max_output_rate
        return (model.content_digest(), rewards.content_digest(),
                int(regenerative), float(rate))

    def setup_for(self, model: "CTMC", rewards: "RewardStructure",
                  regenerative: int | None = None,
                  rate: float | None = None,
                  *,
                  kernel: "UniformizationKernel | None" = None
                  ) -> tuple[RegenerativeSetup, bool]:
        """``(setup, was_hit)`` — cached when available, built otherwise.

        A hit returns the *same* setup object earlier cells stepped, so
        the ``K + L`` prefix those cells paid for is free here; results
        remain bit-identical to a cold build (prefix stability).
        """
        key = self.key_for(model, rewards, regenerative, rate,
                           kernel=kernel)
        return self.get(key, lambda: prepare(model, rewards, regenerative,
                                             rate, kernel=kernel))

    def prepare_twins(self, members: Sequence[tuple]) -> int:
        """Build the setups of ``members`` together, linking exact twins.

        Each member is ``(model, rewards, regenerative, rate, kernel)``,
        as :meth:`setup_for` takes them. When none of their setups is
        cached yet, all are built (each counts one miss) and every pair
        of distinct models that :func:`~repro.core._setup.link_twins`
        accepts steps on one walk from then on; a setup joins at most
        one pair. When any is cached already, nothing is built or
        checked: a warm pass repeats neither the check nor a product,
        and a cold setup is left to its solver. Returns the number of
        linked pairs.
        """
        by_key = {self.key_for(model, rewards, regenerative, rate,
                               kernel=kernel): (model, rewards,
                                                regenerative, rate, kernel)
                  for model, rewards, regenerative, rate, kernel in members}
        if any(key in self for key in by_key):
            return 0
        built = []
        for key, (model, rewards, regenerative, rate, kernel) \
                in by_key.items():
            setup, _ = self.get(key, lambda: prepare(
                model, rewards, regenerative, rate, kernel=kernel))
            built.append((key[0], model, setup))
        linked: set[int] = set()
        for (i, (digest_a, model_a, setup_a)), \
                (j, (digest_b, model_b, setup_b)) \
                in combinations(enumerate(built), 2):
            if digest_a != digest_b and not linked & {i, j} \
                    and link_twins((model_a, setup_a), (model_b, setup_b)):
                linked |= {i, j}
        return len(linked) // 2


#: The per-process instance batch workers share (one per pool worker —
#: exactly the "per-worker LRU" granularity of the planner's model/kernel
#: cache, and cleared together with it by ``worker_cache_clear``).
_PROCESS_CACHE = shared_cache("schedules", ScheduleCache())


def process_schedule_cache() -> ScheduleCache:
    """This process's shared schedule-transformation cache."""
    return _PROCESS_CACHE


#: Per-cache statistics and reset, which ``perfbench/`` calls by name.
process_schedule_cache_clear = _PROCESS_CACHE.clear
process_schedule_cache_info = _PROCESS_CACHE.info
