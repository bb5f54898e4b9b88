"""Resumable on-disk job queue over the versioned solve protocol.

A :class:`JobQueue` is a directory holding one append-only JSONL journal
(``journal.jsonl``). Every line is a self-contained, versioned record:

* ``{"kind": "job", "id": N, "request": <solve_request dict>}`` — a
  submitted cell;
* ``{"kind": "result", "id": N, "outcome": <batch_outcome dict>}`` — the
  completed (or structurally failed) outcome for job ``N``.

The queue's whole state is the journal replay: a job with no result
record is *pending*. Because requests round-trip bit-exactly through the
protocol and the planner/kernel stack is deterministic, a run that is
killed at any point — between checkpoints, mid-batch, even mid-write
(a torn final line is detected and ignored) — resumes from the journal
and produces outcomes **bit-identical** to an uninterrupted in-process
execution. ``scripts/run_paper_grid.py --verify`` and
``tests/service/test_queue.py`` prove exactly that with a three-way
compare (in-process vs queue vs kill+resume).

Records are flushed and fsynced per checkpoint batch, so the durability
unit is the ``checkpoint`` parameter of :meth:`run` (1 = one fsync per
job, the safest and slowest; larger batches let the planner fuse more
cells per :class:`~repro.service.service.SolveService` call).

Concurrency contract: **single writer, many readers**. Read-only
operations (``status``/``poll``/``collect``/plain replay) never mutate
the journal — in particular, a torn tail seen by a reader might just be
another process's in-flight append, so its repair (truncation) is
deferred to this object's own first write.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from repro.batch.planner import SolveRequest
from repro.batch.runner import BatchOutcome
from repro.exceptions import ProtocolError, QueueError
from repro.service.protocol import (
    SCHEMA_VERSION,
    outcome_from_dict,
    outcome_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.service.service import SolveService

__all__ = ["JobQueue"]

_JOURNAL_NAME = "journal.jsonl"


class JobQueue:
    """A directory-backed, crash-resumable queue of solve jobs.

    Parameters
    ----------
    path:
        Queue directory. Created (with parents) unless ``create=False``.
        An existing journal inside is replayed into memory.
    create:
        When ``False``, the directory and journal must already exist —
        the :meth:`resume` spelling for picking up a killed run.
    """

    def __init__(self, path: str | Path, *, create: bool = True) -> None:
        self._dir = Path(path)
        self._journal_path = self._dir / _JOURNAL_NAME
        if create:
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise QueueError(
                    f"cannot create queue directory {self._dir}: "
                    f"{exc}") from exc
        elif not self._journal_path.exists():
            raise QueueError(
                f"no queue journal at {self._journal_path} "
                "(nothing to resume)")
        self._requests: "OrderedDict[int, SolveRequest]" = OrderedDict()
        self._outcomes: dict[int, BatchOutcome] = {}
        self._next_id = 0
        # Journal repairs discovered during replay (torn tail to cut,
        # missing final newline). They are *deferred to the first
        # append*: replay itself must stay read-only, so that a `status`
        # or `collect` in another process never mutates the journal of a
        # live writer mid-flush. (Writing is single-writer by contract;
        # reading is always safe.)
        self._truncate_to: int | None = None
        self._missing_newline = False
        if self._journal_path.exists():
            self._replay()

    @classmethod
    def resume(cls, path: str | Path) -> "JobQueue":
        """Reopen an existing queue directory (journal must exist)."""
        return cls(path, create=False)

    # -- journal -----------------------------------------------------------

    def _replay(self) -> None:
        raw = self._journal_path.read_bytes()
        offset = 0
        lineno = 0
        while offset < len(raw):
            lineno += 1
            newline = raw.find(b"\n", offset)
            complete = newline != -1
            line = raw[offset:newline] if complete else raw[offset:]
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if not complete:
                    # Torn tail from a writer killed mid-append: the job
                    # stays pending. Remember to cut the fragment before
                    # *this object's* first append, so a new record never
                    # merges into it (which would lose that record and
                    # corrupt every later resume). Read-only consumers
                    # leave the file untouched.
                    self._truncate_to = offset
                    return
                # A torn record *before* a complete one means real
                # corruption, not a kill.
                raise QueueError(
                    f"{self._journal_path}:{lineno}: corrupt journal "
                    "record") from None
            try:
                self._apply(record)
            except ProtocolError as exc:
                raise QueueError(
                    f"{self._journal_path}:{lineno}: {exc}") from exc
            if not complete:
                # Valid record but no trailing newline (hand-edited
                # journal): it is applied, so keep it and repair the
                # separator before this object's first append.
                self._missing_newline = True
                return
            offset = newline + 1

    def _apply(self, record: object) -> None:
        if not isinstance(record, dict):
            raise ProtocolError(
                "journal record is not an object, got "
                f"{type(record).__name__}")
        version = record.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ProtocolError(
                f"journal schema_version {version!r} is not supported")
        kind = record.get("kind")
        if kind not in ("job", "result"):
            raise ProtocolError(f"unknown journal record kind {kind!r}")
        for field in ("id", "request" if kind == "job" else "outcome"):
            if field not in record:
                raise ProtocolError(
                    f"{kind} record is missing field {field!r}")
        if not isinstance(record["id"], int):
            raise ProtocolError(
                f"job id must be an integer, got {record['id']!r}")
        job_id = record["id"]
        if kind == "job":
            self._requests[job_id] = request_from_dict(record["request"])
            self._next_id = max(self._next_id, job_id + 1)
        else:
            if job_id not in self._requests:
                raise ProtocolError(
                    f"result for unknown job id {job_id}")
            self._outcomes[job_id] = outcome_from_dict(record["outcome"])

    def _append(self, records: list[dict]) -> None:
        if self._truncate_to is not None:
            # Deferred torn-tail repair (see __init__): cut the fragment
            # now that this object is definitely the writer.
            with open(self._journal_path, "r+b") as fh:
                fh.truncate(self._truncate_to)
            self._truncate_to = None
        payload = b"".join(
            json.dumps(record, separators=(",", ":"),
                       sort_keys=True).encode("utf-8") + b"\n"
            for record in records)
        if self._missing_newline:
            payload = b"\n" + payload
            self._missing_newline = False
        with open(self._journal_path, "ab") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())

    # -- queue API ---------------------------------------------------------

    @property
    def path(self) -> Path:
        """The queue directory."""
        return self._dir

    def submit(self, requests: Iterable[SolveRequest]) -> list[int]:
        """Journal new jobs; returns their ids (submission order)."""
        requests = list(requests)
        # Encode first: a request with no wire form is refused before
        # any job id is taken.
        payloads = [request_to_dict(request) for request in requests]
        ids = list(range(self._next_id, self._next_id + len(payloads)))
        self._next_id += len(ids)
        records = [{"schema_version": SCHEMA_VERSION, "kind": "job",
                    "id": job_id, "request": payload}
                   for job_id, payload in zip(ids, payloads)]
        self._append(records)
        # Journal first, memory second: a submit that cannot be made
        # durable must not look accepted.
        for job_id, request in zip(ids, requests):
            self._requests[job_id] = request
        return ids

    def pending(self) -> list[tuple[int, SolveRequest]]:
        """Jobs with no journaled outcome yet, in submission order."""
        return [(job_id, req) for job_id, req in self._requests.items()
                if job_id not in self._outcomes]

    def poll(self, job_id: int) -> BatchOutcome | None:
        """The outcome of one job, or ``None`` while it is pending."""
        if job_id not in self._requests:
            raise QueueError(f"unknown job id {job_id}")
        return self._outcomes.get(job_id)

    def collect(self, *, require_complete: bool = True
                ) -> list[BatchOutcome]:
        """All completed outcomes, in submission order.

        With ``require_complete`` (default) a queue that still has
        pending jobs raises :class:`~repro.exceptions.QueueError` instead
        of returning a silently-partial result set.
        """
        open_jobs = [job_id for job_id in self._requests
                     if job_id not in self._outcomes]
        if require_complete and open_jobs:
            raise QueueError(
                f"{len(open_jobs)} of {len(self._requests)} jobs still "
                f"pending (first: {open_jobs[0]}); run the queue to "
                "completion or pass require_complete=False")
        return [self._outcomes[job_id] for job_id in self._requests
                if job_id in self._outcomes]

    def status(self) -> dict:
        """Counts summary (``submitted/completed/failed/pending``)."""
        completed = len(self._outcomes)
        failed = sum(1 for o in self._outcomes.values() if not o.ok)
        return {"path": str(self._dir),
                "submitted": len(self._requests),
                "completed": completed,
                "failed": failed,
                "pending": len(self._requests) - completed}

    def run(self,
            service: SolveService | None = None,
            *,
            limit: int | None = None,
            checkpoint: int = 8) -> list[tuple[int, BatchOutcome]]:
        """Execute pending jobs through ``service``, journaling results.

        Parameters
        ----------
        service:
            The :class:`~repro.service.service.SolveService` to execute
            on (default: a fresh inline service). Its pool shape
            never changes a number — only the price.
        limit:
            Process at most this many pending jobs (test harnesses use
            it to simulate a kill between checkpoints).
        checkpoint:
            Jobs per durable batch: each batch is one
            :meth:`~repro.service.service.SolveService.solve` call
            followed by one fsynced journal append.

        Returns the ``(job_id, outcome)`` pairs processed by *this* call.
        """
        if checkpoint < 1:
            raise ValueError("checkpoint must be >= 1")
        service = service or SolveService()
        todo = self.pending()
        if limit is not None:
            todo = todo[:max(0, int(limit))]
        processed: list[tuple[int, BatchOutcome]] = []
        for start in range(0, len(todo), checkpoint):
            batch = todo[start:start + checkpoint]
            outcomes = service.solve([req for _, req in batch])
            records = []
            for (job_id, _), outcome in zip(batch, outcomes):
                records.append({"schema_version": SCHEMA_VERSION,
                                "kind": "result", "id": job_id,
                                "outcome": outcome_to_dict(outcome)})
            self._append(records)
            for (job_id, _), outcome in zip(batch, outcomes):
                self._outcomes[job_id] = outcome
                processed.append((job_id, outcome))
        return processed
