"""Generic symbolic state-space exploration engine.

High-level model generators describe a CTMC implicitly: a hashable
initial state plus a function mapping a state to its outgoing
``(successor, rate)`` pairs. The :class:`StateSpaceBuilder` explores the
reachable state space breadth-first, interns states as dense integer
indices, accumulates duplicate arcs, and hands back a
:class:`repro.markov.ctmc.CTMC` with the symbolic states preserved as
labels.

This is the standard construction used by dependability tools (SAN/SPN
front-ends such as the one used by [13] do exactly this). The
multiprocessor model, ``examples/custom_model.py`` and the test-suite's
bespoke models are built through it. The paper's RAID-5 model is not:
:mod:`repro.models.raid5` builds its 10⁴-state chains from array rules,
in this builder's state order and arc order, and its tests explore the
per-state RAID-5 generator here as the oracle for that build.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC

__all__ = ["StateSpaceBuilder", "ExploredModel"]

TransitionFn = Callable[[Hashable], Iterable[tuple[Hashable, float]]]


@dataclass
class ExploredModel:
    """Result of a state-space exploration.

    Attributes
    ----------
    model:
        The assembled :class:`~repro.markov.ctmc.CTMC` (labels carry the
        symbolic states).
    index:
        Mapping from symbolic state to dense index.
    """

    model: CTMC
    index: dict[Hashable, int]

    def state_index(self, state: Hashable) -> int:
        """Dense index of a symbolic state (KeyError if unreachable)."""
        return self.index[state]


class StateSpaceBuilder:
    """Breadth-first reachability exploration of an implicit CTMC.

    Parameters
    ----------
    transitions:
        Function returning the outgoing ``(successor_state, rate)`` pairs
        of a symbolic state. Rates must be non-negative; zero-rate arcs
        and self-loops are dropped. Duplicate ``(src, dst)`` pairs are
        accumulated (useful when distinct physical events lead to the same
        aggregated state).
    max_states:
        Exploration is aborted with :class:`~repro.exceptions.ModelError`
        beyond this many states — a typo in a model generator tends to
        produce an unintentionally infinite state space, and a crisp error
        beats an out-of-memory kill.
    """

    def __init__(self, transitions: TransitionFn,
                 max_states: int = 2_000_000) -> None:
        self._transitions = transitions
        self._max_states = int(max_states)

    def explore(self, initial: Hashable,
                initial_probability: dict[Hashable, float] | None = None
                ) -> ExploredModel:
        """Explore from ``initial`` (or from all keys of
        ``initial_probability``) and assemble the CTMC.

        Parameters
        ----------
        initial:
            Seed state; receives probability 1 unless
            ``initial_probability`` is given.
        initial_probability:
            Optional distribution over symbolic seed states; must sum
            to 1.
        """
        index: dict[Hashable, int] = {}
        order: list[Hashable] = []

        def intern(state: Hashable) -> int:
            idx = index.get(state)
            if idx is None:
                idx = len(order)
                if idx >= self._max_states:
                    raise ModelError(
                        f"state space exceeds max_states={self._max_states}")
                index[state] = idx
                order.append(state)
            return idx

        seeds = ([initial] if initial_probability is None
                 else list(initial_probability))
        queue: deque[Hashable] = deque()
        for s in seeds:
            intern(s)
            queue.append(s)

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        head = 0
        # `queue` only holds seeds; exploration walks `order`, which grows
        # as new states are interned (a BFS without an explicit queue).
        while head < len(order):
            state = order[head]
            src = head
            head += 1
            for dst_state, rate in self._transitions(state):
                if rate < 0.0:
                    raise ModelError(
                        f"negative rate {rate} out of state {state!r}")
                if rate == 0.0:
                    continue
                dst = intern(dst_state)
                if dst == src:
                    continue
                rows.append(src)
                cols.append(dst)
                vals.append(float(rate))

        n = len(order)
        init_vec = np.zeros(n)
        if initial_probability is None:
            init_vec[index[initial]] = 1.0
        else:
            for s, p in initial_probability.items():
                init_vec[index[s]] = p
        q = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
        model = CTMC(q, initial=init_vec, labels=order)
        return ExploredModel(model=model, index=index)
