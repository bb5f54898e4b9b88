"""One walk of the randomized sequence ``π_n = α Pⁿ``, shared by SR and RSD.

Standard randomization (SR, the paper's Table 2) sums ``d_n = π_n · r``
to a Poisson horizon; steady-state detection (RSD, Table 1) cuts it once
``‖π_n − π_∞‖₁ <= δ``. A :class:`PiSweep` is one *lane*: all cells of
one model, of either method, with one dot per distinct reward vector
still needed, the distance to ``π_∞`` only while some RSD cell is
detecting, and no level past the longest need of any cell.

:func:`walk` steps a stack of lanes together, one lane per model: each
level is one :meth:`~repro.batch.kernel.UniformizationKernel.step` of
their block-diagonal kernel (:meth:`UniformizationKernel.stack
<repro.batch.kernel.UniformizationKernel.stack>`) into the next row of a
block of levels, and each lane takes its dots and distances once per
block, a block's rows at a time. On the small chains of a scenario
sweep a level costs a few µs of Python and dispatch for a few hundred
flops, so stacking 8 models and blocking 64 levels cut the
``scenario_sweep`` walk from 113,474 steps to 23,349 and its fused tasks
from 1.09 s to 0.33 s (2-CPU Xeon host). Each cell still sees exactly
the ``d_n`` prefix of its standalone solve (the same products, dots,
sums and detection test), so its values, step counts and ``k_ss`` are
bit-identical.

Solvers take part through ``join_sweep(sweep, model, cell)``, which
registers the cell's need and returns the function that weights the
walked prefix. Every lane steps its model's own kernel
(:meth:`CTMC.kernel <repro.markov.ctmc.CTMC.kernel>`), or a fresh one
when its solvers pin a rate. :func:`solve_stacked` solves the cells of
several models on stacked walks (the planner's fused windows);
:func:`solve_shared` is its one-model case, which the solvers' ``solve``
calls.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.batch.kernel import UniformizationKernel
from repro.exceptions import ModelError
from repro.markov.base import SolveCell, TransientSolution, as_time_array
from repro.markov.ctmc import CTMC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.markov.dtmc import DTMC

__all__ = ["PiSweep", "SweepNeed", "checked_cell", "solve_shared",
           "solve_stacked", "walk"]


@dataclass(eq=False, slots=True)
class SweepNeed:
    """What one cell asks of a :class:`PiSweep`, and what it gets back.

    ``terms`` is the number of ``d_n`` the cell needs: fixed, or for a
    detecting cell (``delta`` set) its budget until detection cuts it to
    ``k_ss``. :meth:`PiSweep.run` fills ``d`` with ``d_0 .. d_{terms-1}``
    and ``k_ss`` with the detection step (``None`` if the budget ran out
    first or the cell does not detect).
    """

    row: int
    terms: int
    delta: float | None
    k_ss: int | None = None
    d: np.ndarray | None = None


class PiSweep:
    """One lane of a ``π_n`` walk: the SR and RSD cells of one model (see
    the module docstring). The first :meth:`bind` sets its kernel.
    """

    def __init__(self) -> None:
        self.kernel: UniformizationKernel | None = None
        self.dtmc: "DTMC | None" = None
        self._rate: float | None = None
        #: ``π_∞`` and its residual, set by the first detecting cell's
        #: solver.
        self.pi_inf: np.ndarray | None = None
        self.pi_residual: float | None = None
        #: Products and reward dots this lane's cells needed; set by
        #: :meth:`run` or :func:`walk`.
        self.steps = 0
        self.dots = 0
        self._rows: dict[bytes, int] = {}
        self._rewards: list[np.ndarray] = []
        self._needs: list[SweepNeed] = []
        # Walk state (see _open and _recount): this lane's columns of the
        # stacked vector, each reward's dots so far (one array per block),
        # the terms each reward owes, the longest need detection can no
        # longer cut, and the detectors still testing.
        self._cols = slice(0)
        self._chunks: list[list[np.ndarray]] = []
        self._owed: list[int] = []
        self._fixed = 0
        self._live: list[SweepNeed] = []

    def bind(self, model: CTMC, rate: float | None
             ) -> tuple[UniformizationKernel, "DTMC", float]:
        """``(kernel, dtmc, Λ)`` for a joining solver: the first takes
        ``model.kernel(rate)`` for the lane, every later one must ask for
        the same ``rate``."""
        if self.kernel is None:
            self.kernel, self._rate = model.kernel(rate), rate
            self.dtmc = self.kernel.dtmc
        elif rate != self._rate:
            raise ModelError(
                f"a lane steps one randomization: rate {rate} joins a "
                f"lane bound at rate {self._rate}")
        return self.kernel, self.dtmc, self.kernel.rate

    def need(self, rewards: np.ndarray, terms: int,
             delta: float | None = None) -> SweepNeed:
        """Ask for ``d_n = π_n · rewards``, ``n = 0 .. terms-1``; with
        ``delta``, only until ``‖π_n − π_∞‖₁ <= delta`` (then ``k_ss =
        n + 1``), which needs :attr:`pi_inf`."""
        # Contiguous rewards: a strided dot can round differently from
        # the contiguous one every cell would take on its own.
        r = np.ascontiguousarray(rewards, dtype=np.float64)
        if self.kernel is None or r.shape != (self.kernel.n_states,):
            raise ModelError("rewards shape does not match the bound "
                             "kernel")
        if terms < 1 or (delta is not None and self.pi_inf is None):
            raise ValueError("need terms >= 1, and pi_inf to detect")
        row = self._rows.setdefault(r.tobytes(), len(self._rewards))
        if row == len(self._rewards):
            self._rewards.append(r)
        need = SweepNeed(row, int(terms), delta)
        self._needs.append(need)
        return need

    def run(self) -> None:
        """Walk ``π_n`` to the longest need and hand every need its
        ``d_n`` prefix: :func:`walk` of this lane alone."""
        walk([self])

    # -- the walk, driven by :func:`walk` ----------------------------------

    def _open(self, cols: slice) -> None:
        """Start a walk with this lane in columns ``cols`` of the stack."""
        self._cols = cols
        self._chunks = [[] for _ in self._rewards]
        self._recount()

    def _recount(self) -> None:
        """Terms each reward owes: fixed needs, live detectors' budgets
        and found detectors' cuts; and what only detection can cut."""
        self._owed = [0] * len(self._rewards)
        for w in self._needs:
            self._owed[w.row] = max(self._owed[w.row], w.terms)
        self._fixed = max((w.terms for w in self._needs
                           if w.delta is None or w.k_ss is not None),
                          default=0)
        self._live = [w for w in self._needs
                      if w.delta is not None and w.k_ss is None]

    def _take(self, block: np.ndarray, n: int,
              diff: np.ndarray | None) -> None:
        """Dots and detection tests of levels ``n .. n+len(block)-1``.

        ``np.vecdot`` of a row and ``np.add.reduce`` along it equal the
        per-level ``r.dot(π)`` and ``|π − π_∞|.sum()`` bit for bit at any
        row offset (both run the same BLAS ddot and pairwise sum on the
        same contiguous elements); ``matmul`` would not.
        """
        k = block.shape[0]
        cols = self._cols
        for r, chunks, owed in zip(self._rewards, self._chunks, self._owed):
            if owed > n:
                chunks.append(np.vecdot(block[:min(k, owed - n), cols], r))
        live = [w for w in self._live if w.terms > n]
        if not live:
            return
        rows = min(k, max(w.terms for w in live) - n)
        dist = diff[:rows, :cols.stop - cols.start]
        np.subtract(block[:rows, cols], self.pi_inf, out=dist)
        dist = np.add.reduce(np.abs(dist, out=dist), axis=1).tolist()
        found = False
        for w in live:
            for j, d in enumerate(dist[:w.terms - n]):
                if d <= w.delta:
                    w.k_ss = w.terms = n + j + 1
                    found = True
                    break
        if found:
            self._recount()


#: Floats in one block of levels (1 MB), and the most levels in a block.
_BLOCK_FLOATS = 1 << 17
_BLOCK_ROWS = 64


def _block_rows(states: int) -> int:
    """Levels in one block of a walk over ``states`` stacked states."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // states))


#: Most states stacked into one walk. A larger model walks alone.
_STACK_STATES = 2048


def walk(sweeps: Sequence[PiSweep]) -> None:
    """Walk the ``π_n`` of several lanes side by side, a block of levels
    at a time, and hand every need its ``d_n`` prefix.

    Every level is one :meth:`~repro.batch.kernel.UniformizationKernel.step`
    of the lanes' stacked kernel (one lane steps its own kernel) into the
    next row of a block of ``min(64, 2¹⁷ // states)`` rows; after each
    block every lane takes its dots, one ``np.vecdot`` per reward still
    owed, and, while it has a live detector, its distances to ``π_∞``. A
    block never passes the longest need that detection cannot cut; the
    levels past it, which only an undetected budget asks for, are walked
    one per block, so the walk stops at the level that ends the last
    need. Each lane's ``steps`` and ``dots`` are its own, as if it had
    walked alone.
    """
    lanes = [s for s in sweeps if s._needs]
    if not lanes:
        return
    kernel = UniformizationKernel.stack([s.kernel for s in lanes])
    width = kernel.n_states
    start = 0
    for s in lanes:
        s._open(slice(start, start + s.kernel.n_states))
        start += s.kernel.n_states
    rows = _block_rows(width)
    # Two blocks in turn: a block's first level is stepped from the
    # other's last one.
    spare, block = np.empty((rows, width)), np.empty((rows, width))
    widest = max((s.kernel.n_states for s in lanes if s._live), default=0)
    diff = np.empty((rows, widest)) if widest else None
    last = None  # the last level walked
    n = 0  # levels walked so far
    while True:
        owed = max(max(s._owed) for s in lanes)
        if owed <= n:
            break
        fixed = max(s._fixed for s in lanes)
        k = min(rows, fixed - n) if fixed > n else 1
        spare, block = block, spare
        if last is None:
            block[0] = np.concatenate([s.dtmc.initial for s in lanes])
        else:
            kernel.step(last, out=block[0])
        for j in range(1, k):
            kernel.step(block[j - 1], out=block[j])
        for s in lanes:
            s._take(block[:k], n, diff)
        last = block[k - 1]
        n += k
    for s in lanes:
        arrays = [np.concatenate(chunks)[:o]
                  for chunks, o in zip(s._chunks, s._owed)]
        s.steps = max(s._owed) - 1
        s.dots = sum(s._owed)
        s._chunks = []
        for w in s._needs:
            w.d = arrays[w.row][:w.terms]


def _stacks(sweeps: Sequence[PiSweep]) -> list[list[PiSweep]]:
    """Lanes with needs, in order, packed into stacks of at most
    ``_STACK_STATES`` states; a larger lane walks alone."""
    stacks: list[list[PiSweep]] = []
    stack: list[PiSweep] = []
    states = 0
    for s in sweeps:
        n = s.kernel.n_states if s._needs else 0
        if n > _STACK_STATES:
            stacks.append([s])
        elif n:
            if states + n > _STACK_STATES:
                stacks.append(stack)
                stack, states = [], 0
            stack.append(s)
            states += n
    if stack:
        stacks.append(stack)
    return stacks


def checked_cell(model: CTMC, cell: SolveCell) -> tuple[np.ndarray, float]:
    """``(times, r_max)`` of a cell, after the argument checks of a
    standalone solve."""
    cell.rewards.check_model(model)
    t_arr = as_time_array(cell.times)
    if cell.eps <= 0.0:
        raise ValueError("eps must be positive")
    return t_arr, cell.rewards.max_rate


#: ``join_sweep`` result: ``(values, steps, stats)`` of the cell, once
#: the sweep has run.
Finisher = Callable[[], tuple[np.ndarray, np.ndarray, dict]]


#: One ``(solver, cell)`` job of a lane.
Job = tuple[object, SolveCell]


def solve_stacked(lanes: Sequence[tuple[CTMC, Sequence[Job]]]
                  ) -> list[list[TransientSolution] | Exception]:
    """Solve the jobs of several models, one lane per ``(model, jobs)``,
    on stacked ``π_n`` walks.

    Each solver must implement ``join_sweep(sweep, model, cell)`` (the
    registry's ``stack_fusable`` methods do). Lanes are walked together
    in stacks of at most ``_STACK_STATES`` states (:func:`walk`). Returns
    per lane one solution per job, in order, each with
    ``stats["fused_width"] = len(jobs)``; or, for a lane whose solvers
    raised while joining or weighting, that exception. A failing lane
    leaves its stack-mates' numbers unchanged.
    """
    results: list = [None] * len(lanes)
    joined = []
    for i, (model, jobs) in enumerate(lanes):
        sweep = PiSweep()
        try:
            finishers = [solver.join_sweep(sweep, model, cell)
                         for solver, cell in jobs]
        except Exception as exc:
            results[i] = exc
            continue
        joined.append((i, sweep, finishers))
    for stack in _stacks([sweep for _, sweep, _ in joined]):
        walk(stack)
    for i, _, finishers in joined:
        jobs = lanes[i][1]
        try:
            results[i] = [_solution(solver, cell, finish, len(jobs))
                          for (solver, cell), finish in zip(jobs, finishers)]
        except Exception as exc:
            results[i] = exc
    return results


def _solution(solver, cell: SolveCell, finish: Finisher,
              width: int) -> TransientSolution:
    values, steps, stats = finish()
    stats["fused_width"] = width
    return TransientSolution(
        times=as_time_array(cell.times), values=values,
        measure=cell.measure, eps=cell.eps, steps=steps,
        method=solver.method_name, stats=stats)


def solve_shared(model: CTMC, jobs: Sequence[Job]
                 ) -> list[TransientSolution]:
    """Solve every ``(solver, cell)`` job of one model on one ``π_n``
    walk: :func:`solve_stacked` of one lane, which raises what its
    solvers raise."""
    (result,) = solve_stacked([(model, jobs)])
    if isinstance(result, Exception):
        raise result
    return result
