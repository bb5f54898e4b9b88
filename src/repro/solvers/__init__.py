"""Solver table package.

:mod:`repro.solvers.registry` is the single dispatch authority for the
four transient solvers: one static table of capability-declaring
:class:`~repro.solvers.registry.SolverSpec` entries, through which the
runner, planner, protocol and CLI resolve method tags.
"""

from repro.solvers.registry import (
    SolverSpec,
    get_solver,
    get_spec,
    known_methods,
    specs,
)

__all__ = ["SolverSpec", "get_spec", "get_solver", "known_methods", "specs"]
