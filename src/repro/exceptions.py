"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing model-construction problems from numerical failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ModelError(ReproError):
    """A CTMC/DTMC or reward structure is malformed or inconsistent."""


class MeasureError(ReproError):
    """A measure specification is invalid for the given model."""


class ConvergenceError(ReproError):
    """An iterative numerical procedure failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Last observed residual / tolerance gap, when meaningful.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class TruncationError(ReproError):
    """A truncation point (K, L, or Poisson window) could not be found
    within the configured hard limits."""


class InversionError(ReproError):
    """The numerical Laplace transform inversion failed or became unstable."""


class UnknownMethodError(ReproError, ValueError):
    """A solver method tag is not in the solver table.

    Subclasses :class:`ValueError` for backward compatibility with the
    pre-registry ``get_solver`` behaviour (callers catching ValueError
    keep working).

    Attributes
    ----------
    method:
        The unrecognized method tag as given by the caller.
    known:
        Sorted tuple of the known method tags.
    """

    def __init__(self, method: str, known: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown method {method!r}; known methods: "
            + ", ".join(known))
        self.method = method
        self.known = known


class ProtocolError(ReproError):
    """A wire-protocol payload is malformed, of an unsupported schema
    version, or contains values that cannot be serialized."""


class QueueError(ReproError):
    """A job-queue operation is invalid for the queue's current state
    (unknown job id, collecting an incomplete queue, corrupt journal)."""
