"""Capability-declaring solver registry — the one dispatch authority.

Before this module existed the transient solvers were dispatched by
parallel, drifting mechanisms: a hardcoded import ladder in
:mod:`repro.analysis.runner`, ``method == "SR"``-style string branches in
:mod:`repro.analysis.experiments`, and hand-maintained method sets in
:mod:`repro.batch.planner` — so every execution-layer optimisation had to
be re-taught to each layer by hand.

Here instead every solver module *self-registers* a :class:`SolverSpec`
declaring what the solver can do, and every dispatch site asks the
registry:

* ``analysis.runner.get_solver`` instantiates by tag;
* ``batch.planner`` derives its fusable / memoizable sets from the
  capability flags;
* ``service.protocol`` validates wire payloads against
  :func:`known_methods`;
* ``cli.py`` prints ``repro solvers list`` from the specs.

Adding a solver is now one ``register(SolverSpec(...))`` call next to the
solver class; the planner, protocol, CLI and experiment harness pick it
up without edits.

Import discipline
-----------------
This module imports nothing heavier than :mod:`repro.exceptions`, so the
solver modules can import it at their own import time and call
:func:`register` without cycles. The built-in solvers are pulled in
lazily, on the first registry *query* (:func:`_ensure_builtin`), never at
registration.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import RegistryError, UnknownMethodError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.markov.base import TransientSolver

__all__ = [
    "SolverSpec",
    "register",
    "unregister",
    "get_spec",
    "get_solver",
    "known_methods",
    "specs",
    "is_registered",
]

#: Capability flag names a :class:`SolverSpec` may declare (the order is
#: the display order of ``repro solvers list``).
CAPABILITY_FLAGS = ("stack_fusable", "schedule_memoizable")


@dataclass(frozen=True)
class SolverSpec:
    """Everything the execution layers need to know about one solver.

    Every registered solver computes both measures (TRR and MRR) and
    steps the model's own kernel (:meth:`CTMC.kernel
    <repro.markov.ctmc.CTMC.kernel>`), so every cell of one model cached
    by the planner steps one kernel, whatever its method; the flags
    below declare only what sets solvers apart.

    Parameters
    ----------
    name:
        Short upper-case method tag (``"SR"``, ``"RRL"``, ...) — the wire
        and CLI identity of the solver.
    constructor:
        Zero-config factory; keyword arguments are forwarded verbatim.
    summary:
        One-line human description (``repro solvers list``, docs).
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
    requires_irreducible:
        The method is only sound on irreducible models (RSD's
        steady-state detection); callers generating method matrices use
        this to skip absorbing models.
    table_label:
        Display label for the paper's step tables (``"RR/RRL"`` — RR and
        RRL share the transformation phase, so the paper prints one
        column); defaults to ``name``.
    """

    name: str
    constructor: Callable[..., "TransientSolver"]
    summary: str
    stack_fusable: bool = False
    schedule_memoizable: bool = False
    predict_steps: Callable[..., int] | None = None
    step_budget_kwarg: str | None = None
    requires_irreducible: bool = False
    table_label: str | None = None

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.upper():
            raise RegistryError(
                f"solver name must be a non-empty upper-case tag, "
                f"got {self.name!r}")
        if not callable(self.constructor):
            raise RegistryError(
                f"solver {self.name!r}: constructor must be callable")
        if self.table_label is None:
            object.__setattr__(self, "table_label", self.name)

    def capabilities(self) -> tuple[str, ...]:
        """The capability flags this spec declares, in display order."""
        return tuple(flag for flag in CAPABILITY_FLAGS
                     if getattr(self, flag))

    def build(self, **kwargs) -> "TransientSolver":
        """Instantiate the solver (kwargs forwarded to the constructor)."""
        return self.constructor(**kwargs)


# -- the registry ----------------------------------------------------------

_REGISTRY: dict[str, SolverSpec] = {}

#: Modules whose import self-registers the built-in solvers. Imported
#: lazily on the first query so that registry imports stay cycle-free.
_BUILTIN_MODULES = (
    "repro.markov.standard",      # SR
    "repro.markov.rsd",           # RSD
    "repro.core.rr_solver",       # RR
    "repro.core.rrl_solver",      # RRL
)
_builtin_loaded = False
_builtin_loading = False


def _ensure_builtin() -> None:
    global _builtin_loaded, _builtin_loading
    if _builtin_loaded or _builtin_loading:
        return
    # The loaded flag latches only on *success*: a failed solver import
    # propagates to the caller and the next query retries, instead of
    # leaving the process with a silently partial registry. The loading
    # guard keeps a query issued from inside the imports re-entrant-safe.
    _builtin_loading = True
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
        _builtin_loaded = True
    finally:
        _builtin_loading = False


def register(spec: SolverSpec, *, replace: bool = False) -> SolverSpec:
    """Add a solver spec to the process-wide registry.

    Re-registering an *identical* spec is an idempotent no-op that keeps
    the existing entry. Registering a different spec under an existing
    name — even one reusing the constructor but changing capability
    flags — raises :class:`~repro.exceptions.RegistryError` unless
    ``replace=True``: capability flags drive planner policy, so a silent
    partial update must never win.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and not replace:
        if existing == spec:
            return existing
        raise RegistryError(
            f"solver {spec.name!r} is already registered with a different "
            "spec; pass replace=True to override")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registration (test hook; built-ins re-register only on a
    fresh process)."""
    _REGISTRY.pop(str(name).upper(), None)


def is_registered(method: str) -> bool:
    """Whether ``method`` (case-insensitive) names a registered solver."""
    _ensure_builtin()
    return str(method).upper() in _REGISTRY


def get_spec(method: str) -> SolverSpec:
    """Spec for a method tag (case-insensitive).

    Raises
    ------
    UnknownMethodError
        If no solver registered under that tag; the message carries the
        full known-method list.
    """
    _ensure_builtin()
    key = str(method).upper()
    spec = _REGISTRY.get(key)
    if spec is None:
        raise UnknownMethodError(method, known_methods())
    return spec


def get_solver(method: str, **kwargs) -> "TransientSolver":
    """Instantiate a solver by its method tag (case-insensitive)."""
    return get_spec(method).build(**kwargs)


def known_methods() -> tuple[str, ...]:
    """Sorted tuple of every registered method tag."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def specs() -> tuple[SolverSpec, ...]:
    """Every registered spec, sorted by name."""
    _ensure_builtin()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))
