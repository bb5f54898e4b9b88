"""Versioned solve protocol and the :class:`SolveService` facade.

This package is the **canonical public API** for running solve workloads.
The three layers:

* :mod:`repro.service.protocol` — a versioned (``SCHEMA_VERSION``) JSON
  codec, one encoder/decoder pair per type, for
  :class:`~repro.batch.planner.SolveRequest` cells (each names its model
  by a scenario), :class:`~repro.batch.runner.BatchOutcome`,
  :class:`~repro.markov.base.TransientSolution`, scenario specs and
  structured failures — a request that round-trips through JSON solves
  bit-identically to the in-memory object;
* :mod:`repro.service.service` — :class:`SolveService`, the one entry
  point wrapping planner → runner → scatter (model-cache policy
  included), which ``analysis``, the CLI and the scripts all route
  through;
* :mod:`repro.service.queue` — :class:`JobQueue`, a resumable on-disk
  job queue (append-only JSONL journal of submitted requests and
  completed outcomes) with ``submit``/``poll``/``collect``/``resume``:
  a killed run resumes from the journal and produces bit-identical
  results.

Data flow::

    SolveRequest ──protocol──▶ journal ──JobQueue──▶ SolveService
        ──planner──▶ run_tasks shard ──▶ BatchOutcome ──▶ journal

which makes sharding the grid across machines a transport problem: any
worker holding the journal line can replay the cell.
"""

from repro.service.protocol import SCHEMA_VERSION, ProtocolError
from repro.service.queue import JobQueue
from repro.service.service import ServiceResult, SolveService

__all__ = [
    "SCHEMA_VERSION",
    "ProtocolError",
    "SolveService",
    "ServiceResult",
    "JobQueue",
]
