"""One walk of the randomized sequence ``π_n = α Pⁿ``, shared by SR and RSD.

Standard randomization (SR, the paper's Table 2) sums ``d_n = π_n · r``
to a Poisson horizon; steady-state detection (RSD, Table 1) cuts it once
``‖π_n − π_∞‖₁ <= δ``. :class:`PiSweep` walks ``π_n`` once for all cells
of one model, of either method: one
:meth:`~repro.batch.kernel.UniformizationKernel.step` into a reused
buffer per level, one dot per distinct reward vector still needed, the
distance to ``π_∞`` only while some RSD cell is detecting, and no level
past the longest need of any cell. Each cell sees exactly the ``d_n``
prefix of its standalone solve (the same products, dots and detection
test), so its values, step counts and ``k_ss`` are bit-identical.

Solvers take part through ``join_sweep(sweep, model, cell)``, which
registers the cell's need and returns the function that weights the
stepped prefix after :meth:`PiSweep.run`. :func:`solve_shared` runs one
sweep for any mix of SR and RSD cells; the planner's fused tasks and the
solvers' ``solve``/``solve_fused`` all call it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.batch.kernel import UniformizationKernel, ensure_model_kernel
from repro.exceptions import ModelError
from repro.markov.base import SolveCell, TransientSolution, as_time_array
from repro.markov.ctmc import CTMC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.markov.dtmc import DTMC

__all__ = ["PiSweep", "SweepNeed", "checked_cell", "solve_shared"]


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
    """The shared ``π_n`` walk of one model (see the module docstring).

    ``kernel`` comes from ``UniformizationKernel.from_model(model)``; with
    ``None`` the first :meth:`bind` builds one.
    """

    def __init__(self, kernel: UniformizationKernel | None = None) -> None:
        self.kernel = kernel
        self.dtmc: "DTMC | None" = None
        #: ``π_∞`` and its residual, set by the first detecting cell's
        #: solver.
        self.pi_inf: np.ndarray | None = None
        self.pi_residual: float | None = None
        #: Products and reward dots the walk took; set by :meth:`run`.
        self.steps = 0
        self.dots = 0
        self._rows: dict[bytes, int] = {}
        self._rewards: list[np.ndarray] = []
        self._needs: list[SweepNeed] = []

    def bind(self, model: CTMC, rate: float | None
             ) -> tuple[UniformizationKernel, "DTMC", float]:
        """``ensure_model_kernel`` for a joining solver: builds the kernel
        on first use and checks it against every later solver's rate."""
        self.kernel, self.dtmc, lam = ensure_model_kernel(
            model, self.kernel, rate)
        return self.kernel, self.dtmc, lam

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
        ``d_n`` prefix."""
        needs = self._needs
        if not needs:
            return
        step = self.kernel.step
        pi = self.dtmc.initial.copy()
        spare = np.empty_like(pi)
        seqs: list[list] = [[] for _ in self._rewards]
        detecting = [w for w in needs if w.delta is not None]
        diff = np.empty_like(pi)
        n = 0  # terms taken so far; pi holds π_{n-1} (π_0 while n == 0)
        owed: list[int] | None = None
        while True:
            if owed is None:
                # Terms each reward still owes: fixed needs, live
                # detectors' budgets and finished detectors' cuts.
                owed = [0] * len(self._rewards)
                for w in needs:
                    owed[w.row] = max(owed[w.row], w.terms)
                # ``r.dot(π)`` is the BLAS ddot of ``r @ π``, at half
                # the call overhead.
                live = [(r.dot, seq.append) for r, seq, o
                        in zip(self._rewards, seqs, owed) if o > n]
                if not live:
                    break
                row_done = min(o for o in owed if o > n)
            if not detecting:
                # The row set is fixed up to row_done.
                for m in range(n, row_done):
                    if m:
                        pi, spare = step(pi, spare), pi
                    for dot, append in live:
                        append(dot(pi))
                n, owed = row_done, None
                continue
            # Until a detector's delta or budget, or row_done, ends the
            # stretch, every term also needs its distance to π_∞.
            loosest = max(w.delta for w in detecting)
            stop = min(row_done, min(w.terms for w in detecting))
            for m in range(n, stop):
                if m:
                    pi, spare = step(pi, spare), pi
                for dot, append in live:
                    append(dot(pi))
                # ``np.abs(pi - pi_inf).sum()`` without its temporaries.
                np.subtract(pi, self.pi_inf, out=diff)
                dist = np.abs(diff, out=diff).sum()
                if dist <= loosest:
                    break
            n = m + 1
            still = []
            for w in detecting:
                if dist <= w.delta:
                    w.k_ss = w.terms = n
                elif n < w.terms:
                    still.append(w)
            if n == row_done or len(still) < len(detecting):
                owed = None
            detecting = still
        self.steps = n - 1
        self.dots = sum(len(seq) for seq in seqs)
        arrays = [np.array(seq, dtype=np.float64) for seq in seqs]
        for w in needs:
            w.d = arrays[w.row][:w.terms]


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


def solve_shared(model: CTMC,
                 jobs: Sequence[tuple[object, SolveCell]],
                 *,
                 kernel: UniformizationKernel | None = None
                 ) -> list[TransientSolution]:
    """Solve every ``(solver, cell)`` job on one ``π_n`` sweep.

    Each solver must implement ``join_sweep(sweep, model, cell)`` (the
    registry's ``stack_fusable`` methods do). Returns one solution per
    job, in order, each with ``stats["fused_width"] = len(jobs)``.
    """
    sweep = PiSweep(kernel)
    finishers = [solver.join_sweep(sweep, model, cell)
                 for solver, cell in jobs]
    sweep.run()
    solutions = []
    for (solver, cell), finish in zip(jobs, finishers):
        values, steps, stats = finish()
        stats["fused_width"] = len(jobs)
        solutions.append(TransientSolution(
            times=as_time_array(cell.times), values=values,
            measure=cell.measure, eps=cell.eps, steps=steps,
            method=solver.method_name, stats=stats))
    return solutions
