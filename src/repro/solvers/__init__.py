"""Solver registry package.

:mod:`repro.solvers.registry` is the single dispatch authority for the
transient solvers: every solver self-registers a capability-declaring
:class:`~repro.solvers.registry.SolverSpec`, and the runner, planner,
protocol and CLI all resolve method tags through it.
"""

from repro.solvers.registry import (
    SolverSpec,
    get_solver,
    get_spec,
    is_registered,
    known_methods,
    register,
    specs,
    unregister,
)

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
