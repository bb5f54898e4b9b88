"""The solver table — the one dispatch authority.

The paper compares four fixed methods (RR, RRL, SR and RSD), and this
module lists them in one static table of :class:`SolverSpec` entries,
each declaring what its solver can do. Every dispatch site reads it:

* ``analysis.runner.get_solver`` instantiates by tag;
* ``batch.planner`` derives its fusable / memoizable sets from the
  capability flags;
* ``service.protocol`` validates wire payloads against
  :func:`known_methods`;
* ``cli.py`` prints ``repro solvers list`` from the specs.

The solver modules do not import this one, so the table imports their
classes directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.rr_solver import RegenerativeRandomizationSolver
from repro.core.rrl_solver import RRLSolver
from repro.exceptions import UnknownMethodError
from repro.markov.rsd import SteadyStateDetectionSolver
from repro.markov.standard import (
    StandardRandomizationSolver,
    sr_required_steps,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.markov.base import TransientSolver

__all__ = ["SolverSpec", "get_spec", "get_solver", "known_methods", "specs"]

#: Capability flag names a :class:`SolverSpec` may declare (the order is
#: the display order of ``repro solvers list``).
CAPABILITY_FLAGS = ("stack_fusable", "schedule_memoizable")


@dataclass(frozen=True)
class SolverSpec:
    """Everything the execution layers need to know about one solver.

    Every solver computes both measures (TRR and MRR) and steps the
    model's own kernel (:meth:`CTMC.kernel
    <repro.markov.ctmc.CTMC.kernel>`), so every cell of one model cached
    by the planner steps one kernel, whatever its method; the flags
    below declare only what sets solvers apart.

    Parameters
    ----------
    name:
        Short upper-case method tag (``"SR"``, ``"RRL"``, ...) — the wire
        and CLI identity of the solver.
    constructor:
        The solver class; keyword arguments are forwarded verbatim.
    summary:
        One-line human description (``repro solvers list``, docs).
    table_label:
        Display label for the paper's step tables (``"RR/RRL"`` — RR and
        RRL share the transformation phase, so the paper prints one
        column).
    stack_fusable:
        The solver implements ``join_sweep(sweep, model, cell)``: the
        cells of *all* stack-fusable methods that share a model (and
        solver kwargs) merge into one task and one ``π_n`` sweep
        (:mod:`repro.markov.sweep`).
    schedule_memoizable:
        The solver's per-model *schedule transformation* (RR/RRL's
        ``K + L`` stepping phase) is cell-independent and may be shared
        across solves through a
        :class:`~repro.core.schedule_cache.ScheduleCache`
        (``solve(..., schedule_cache=...)``).
    predict_steps:
        Analytic step-count hook ``(Λt, eps_rel, measure) -> int`` for
        solvers whose cost is known without running them (SR's Poisson
        quantile); the experiment harness renders such columns without
        solving and uses the prediction to budget O(Λt) methods.
    step_budget_kwarg:
        Name of the constructor kwarg capping the solver's inner O(Λt)
        stepping (``"max_steps"`` for SR, ``"inner_max_steps"`` for RR);
        ``None`` for methods whose cost does not grow with ``Λt``.
    """

    name: str
    constructor: Callable[..., "TransientSolver"]
    summary: str
    table_label: str
    stack_fusable: bool = False
    schedule_memoizable: bool = False
    predict_steps: Callable[..., int] | None = None
    step_budget_kwarg: str | None = None

    def capabilities(self) -> tuple[str, ...]:
        """The capability flags this spec declares, in display order."""
        return tuple(flag for flag in CAPABILITY_FLAGS
                     if getattr(self, flag))

    def build(self, **kwargs) -> "TransientSolver":
        """Instantiate the solver (kwargs forwarded to the constructor)."""
        return self.constructor(**kwargs)


#: The four methods, keyed and listed by name (so :func:`known_methods`
#: and :func:`specs` come out sorted).
_SPECS: dict[str, SolverSpec] = {spec.name: spec for spec in (
    SolverSpec(
        name="RR", constructor=RegenerativeRandomizationSolver,
        summary="Original regenerative randomization (transform model, "
                "solve V_KL by inner SR)",
        table_label="RR/RRL", schedule_memoizable=True,
        step_budget_kwarg="inner_max_steps"),
    SolverSpec(
        name="RRL", constructor=RRLSolver,
        summary="Regenerative randomization with Laplace transform "
                "inversion (the paper's method)",
        table_label="RR/RRL", schedule_memoizable=True),
    SolverSpec(
        name="RSD", constructor=SteadyStateDetectionSolver,
        summary="Randomization with steady-state detection (irreducible "
                "models only)",
        table_label="RSD", stack_fusable=True),
    SolverSpec(
        name="SR", constructor=StandardRandomizationSolver,
        summary="Standard randomization (uniformization) — the classic "
                "O(Λt) comparator",
        table_label="SR", stack_fusable=True,
        predict_steps=sr_required_steps, step_budget_kwarg="max_steps"),
)}


def get_spec(method: str) -> SolverSpec:
    """Spec for a method tag (case-insensitive).

    Raises
    ------
    UnknownMethodError
        If no solver has that tag; the message carries the full
        known-method list.
    """
    spec = _SPECS.get(str(method).upper())
    if spec is None:
        raise UnknownMethodError(method, known_methods())
    return spec


def get_solver(method: str, **kwargs) -> "TransientSolver":
    """Instantiate a solver by its method tag (case-insensitive)."""
    return get_spec(method).build(**kwargs)


def known_methods() -> tuple[str, ...]:
    """Sorted tuple of every method tag."""
    return tuple(_SPECS)


def specs() -> tuple[SolverSpec, ...]:
    """Every spec, sorted by name."""
    return tuple(_SPECS.values())
