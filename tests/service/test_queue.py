"""JobQueue: journal durability, kill-and-resume bit-identity, failure
survival and corruption handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.batch.planner import SolveRequest
from repro.batch.scenarios import Scenario
from repro.exceptions import ProtocolError, QueueError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.service import JobQueue, SolveService
from repro.service.protocol import SCHEMA_VERSION
from tests.conftest import assert_bit_identical, direct_solve


def _scenario(n=7, birth=0.4, death=1.2):
    return Scenario(name=f"q-bd-{n}", family="birth_death",
                    params={"n": n, "birth": birth, "death": death},
                    times=(0.5, 2.0), eps=1e-8)


def _requests(count=6):
    out = []
    for i in range(count):
        out.append(SolveRequest(scenario=_scenario(n=5 + i),
                                measure=Measure.TRR, times=(0.5, 2.0),
                                eps=1e-8, method=("SR", "RSD", "RRL")[i % 3],
                                key=("job", i)))
    return out


class TestSubmitAndInspect:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        ids = queue.submit(_requests(3))
        assert ids == [0, 1, 2]
        assert queue.submit(_requests(2)) == [3, 4]
        assert queue.status()["submitted"] == 5
        assert queue.status()["pending"] == 5

    def test_refused_submit_takes_no_ids(self, tmp_path):
        # A request over a live model has no wire form: the whole submit
        # is refused, nothing is journaled and no job id is used up.
        live = SolveRequest(model=CTMC(np.array([[-1.0, 1.0],
                                                 [2.0, -2.0]])),
                            rewards=RewardStructure.indicator(2, [1]),
                            measure=Measure.TRR, times=(1.0,), eps=1e-8,
                            method="SR", key="live")
        queue = JobQueue(tmp_path / "q")
        with pytest.raises(ProtocolError, match="journal a Scenario"):
            queue.submit(_requests(2) + [live])
        assert queue.status()["submitted"] == 0
        assert queue.submit(_requests(1)) == [0]
        assert JobQueue.resume(tmp_path / "q").status()["submitted"] == 1

    def test_poll_unknown_id_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(1))
        assert queue.poll(0) is None
        with pytest.raises(QueueError, match="unknown job id"):
            queue.poll(99)

    def test_collect_incomplete_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        queue.run(limit=1, checkpoint=1)
        with pytest.raises(QueueError, match="pending"):
            queue.collect()
        partial = queue.collect(require_complete=False)
        assert len(partial) == 1

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(QueueError, match="nothing to resume"):
            JobQueue.resume(tmp_path / "nowhere")

    def test_run_on_complete_queue_is_noop(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        queue.run()
        assert queue.run() == []
        assert queue.status()["pending"] == 0


class TestKillAndResume:
    def test_resume_is_bit_identical_to_in_process(self, tmp_path):
        """The acceptance test: kill after half the jobs, resume from
        the journal alone, and every outcome must match its direct
        registry solve bit for bit."""
        requests = _requests(6)
        reference = [direct_solve(req) for req in requests]

        queue = JobQueue(tmp_path / "q")
        queue.submit(requests)
        done = queue.run(SolveService(), limit=3, checkpoint=1)
        assert len(done) == 3
        del queue  # the "kill": only the journal survives

        resumed = JobQueue.resume(tmp_path / "q")
        assert len(resumed.pending()) == 3
        resumed.run(SolveService(), checkpoint=2)
        outcomes = resumed.collect()

        assert [o.key for o in outcomes] == [r.key for r in requests]
        for got, ref in zip(outcomes, reference):
            assert got.ok
            assert_bit_identical(got.value, ref)

    def test_torn_final_line_is_ignored_job_stays_pending(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        queue.run(limit=1, checkpoint=1)
        journal = tmp_path / "q" / "journal.jsonl"
        # Simulate a writer killed mid-append: a torn, non-JSON tail.
        with open(journal, "a") as fh:
            fh.write('{"schema_version":1,"kind":"result","id":1,"outco')
        resumed = JobQueue.resume(tmp_path / "q")
        status = resumed.status()
        assert status["completed"] == 1
        assert status["pending"] == 1  # the torn result never happened
        # Replaying must have truncated the fragment, so this run's
        # appends start a fresh record instead of merging into it...
        resumed.run()
        assert resumed.status()["pending"] == 0
        # ...which a *third* replay proves by reading every record back
        # (an un-truncated fragment would swallow the first append and
        # corrupt the journal for good).
        final = JobQueue.resume(tmp_path / "q")
        assert final.status()["pending"] == 0
        assert len(final.collect()) == 2

    def test_valid_tail_without_newline_is_kept_and_repaired(self,
                                                            tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        journal = tmp_path / "q" / "journal.jsonl"
        # Hand-edited journal: complete final record, missing newline.
        journal.write_bytes(journal.read_bytes().rstrip(b"\n"))
        resumed = JobQueue.resume(tmp_path / "q")
        assert resumed.status()["submitted"] == 2  # record kept
        resumed.run()
        final = JobQueue.resume(tmp_path / "q")
        assert final.status()["pending"] == 0
        assert len(final.collect()) == 2

    def test_readers_never_mutate_a_torn_journal(self, tmp_path):
        """status/poll/collect are read-only: a torn tail they observe
        might be another process's in-flight append, so only a writer
        may cut it."""
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        journal = tmp_path / "q" / "journal.jsonl"
        with open(journal, "a") as fh:
            fh.write('{"schema_version":1,"kind":"result","id":0,"ou')
        torn = journal.read_bytes()
        reader = JobQueue.resume(tmp_path / "q")
        assert reader.status()["pending"] == 2
        assert reader.poll(0) is None
        assert reader.collect(require_complete=False) == []
        assert journal.read_bytes() == torn  # untouched
        # A writer, by contrast, repairs before its first append.
        writer = JobQueue.resume(tmp_path / "q")
        writer.run(checkpoint=1)
        assert JobQueue.resume(tmp_path / "q").status()["pending"] == 0

    def test_non_object_journal_line_is_clean_corruption(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(1))
        journal = tmp_path / "q" / "journal.jsonl"
        journal.write_text("5\n" + journal.read_text())
        with pytest.raises(QueueError, match="not an object"):
            JobQueue.resume(tmp_path / "q")

    def test_record_missing_id_is_clean_corruption(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(1))
        journal = tmp_path / "q" / "journal.jsonl"
        journal.write_text(
            '{"schema_version": 1, "kind": "job", "request": {}}\n'
            + journal.read_text())
        with pytest.raises(QueueError, match="missing field 'id'"):
            JobQueue.resume(tmp_path / "q")

    def test_queue_path_collision_with_file_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(QueueError, match="cannot create"):
            JobQueue(blocker)

    def test_corrupt_interior_line_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        journal = tmp_path / "q" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = "garbage not json"
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(QueueError, match="corrupt journal"):
            JobQueue.resume(tmp_path / "q")

    def test_unsupported_schema_version_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(1))
        journal = tmp_path / "q" / "journal.jsonl"
        record = json.loads(journal.read_text().splitlines()[0])
        record["schema_version"] = SCHEMA_VERSION + 7
        journal.write_text(json.dumps(record) + "\n" +
                           journal.read_text())
        with pytest.raises(QueueError, match="schema_version"):
            JobQueue.resume(tmp_path / "q")


class TestFailureCapture:
    def test_failed_cell_survives_journal_round_trip(self, tmp_path):
        doomed = SolveRequest(scenario=_scenario(), measure=Measure.TRR,
                              times=(0.5,), eps=1e-8, method="SR",
                              solver_kwargs={"max_steps": 2},
                              key="doomed")
        fine = _requests(1)[0]
        queue = JobQueue(tmp_path / "q")
        queue.submit([doomed, fine])
        queue.run()
        del queue

        resumed = JobQueue.resume(tmp_path / "q")
        assert resumed.status() == {"path": str(tmp_path / "q"),
                                    "submitted": 2, "completed": 2,
                                    "failed": 1, "pending": 0}
        failed = resumed.poll(0)
        assert not failed.ok
        assert failed.error_type == "TruncationError"
        assert "max_steps" in failed.error
        assert "TruncationError" in failed.traceback
        assert resumed.poll(1).ok

    def test_checkpoint_validation(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        with pytest.raises(ValueError, match="checkpoint"):
            queue.run(checkpoint=0)


#: A second process that starts ``JobQueue.run`` on the queue at
#: ``argv[1]`` and, holding the writer lock, waits for a line on stdin.
_HOLDING_WRITER = """
import sys
from repro.service import JobQueue, SolveService

class Paused(SolveService):
    def solve(self, requests):
        print("writing", flush=True)
        sys.stdin.readline()
        return super().solve(requests)

JobQueue.resume(sys.argv[1]).run(Paused(), checkpoint=1, limit=1)
"""


def _holding_writer(path: Path) -> subprocess.Popen:
    """Start :data:`_HOLDING_WRITER` and wait until it holds the lock."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    writer = subprocess.Popen(
        [sys.executable, "-c", _HOLDING_WRITER, str(path)], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert writer.stdout.readline().strip() == "writing"
    return writer


class TestSingleWriter:
    def test_second_writer_in_another_process_is_refused(self, tmp_path):
        path = tmp_path / "q"
        JobQueue(path).submit(_requests(2))
        writer = _holding_writer(path)
        try:
            other = JobQueue.resume(path)
            with pytest.raises(QueueError, match="another writer"):
                other.submit(_requests(1))
            with pytest.raises(QueueError, match="another writer"):
                other.run(checkpoint=1)
            # Readers take no lock, and the refused calls wrote nothing.
            assert other.status()["submitted"] == 2
            assert other.status()["pending"] == 2
            writer.stdin.write("\n")
            writer.stdin.flush()
            assert writer.wait(timeout=60) == 0
        finally:
            if writer.poll() is None:
                writer.kill()
                writer.wait()
        # The lock went with the writer's call: a new writer proceeds.
        resumed = JobQueue.resume(path)
        assert resumed.status()["completed"] == 1
        assert resumed.submit(_requests(1)) == [2]
        resumed.run(checkpoint=2)
        assert resumed.status()["pending"] == 0

    def test_sigkilled_writer_leaves_no_lock(self, tmp_path):
        path = tmp_path / "q"
        JobQueue(path).submit(_requests(2))
        writer = _holding_writer(path)
        writer.kill()
        writer.wait()
        resumed = JobQueue.resume(path)
        assert resumed.status()["pending"] == 2
        assert len(resumed.run(checkpoint=1)) == 2

    def test_lock_is_released_when_a_call_raises(self, tmp_path):
        class Failing(SolveService):
            def solve(self, requests):
                raise RuntimeError("solver crashed")

        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        with pytest.raises(RuntimeError, match="crashed"):
            queue.run(Failing())
        # Same process, another open file: still not locked.
        assert JobQueue.resume(tmp_path / "q").submit(_requests(1)) == [2]
        # The run replays under the lock, so it sees the other object's
        # job too.
        assert [job_id for job_id, _ in queue.run(checkpoint=3)] \
            == [0, 1, 2]

    def test_writers_one_after_another_take_distinct_ids(self, tmp_path):
        first = JobQueue(tmp_path / "q")
        second = JobQueue(tmp_path / "q")
        assert first.submit(_requests(1)) == [0]
        assert second.submit(_requests(2)) == [1, 2]
        assert first.submit(_requests(1)) == [3]
        assert first.status()["submitted"] == 4
        assert JobQueue.resume(tmp_path / "q").status()["submitted"] == 4

    def test_no_writer_re_solves_another_writers_jobs(self, tmp_path):
        JobQueue(tmp_path / "q").submit(_requests(3))
        first = JobQueue.resume(tmp_path / "q")
        second = JobQueue.resume(tmp_path / "q")
        assert [i for i, _ in first.run(limit=2, checkpoint=1)] == [0, 1]
        assert [i for i, _ in second.run(checkpoint=1)] == [2]
        assert first.run() == []
        journal = (tmp_path / "q" / "journal.jsonl").read_text()
        results = [json.loads(line)["id"] for line in journal.splitlines()
                   if json.loads(line)["kind"] == "result"]
        assert results == [0, 1, 2]

    @pytest.mark.parametrize("write", ["submit", "run"])
    def test_torn_tail_completed_before_the_write_is_kept(self, tmp_path,
                                                          write):
        # A reader replays while another writer is part-way through an
        # append; the writer then finishes. The reader's first write must
        # not cut the now complete record.
        queue = JobQueue(tmp_path / "q")
        queue.submit(_requests(2))
        queue.run(limit=1, checkpoint=1)
        journal = tmp_path / "q" / "journal.jsonl"
        whole = journal.read_bytes()
        journal.write_bytes(whole[:-20])
        reader = JobQueue.resume(tmp_path / "q")
        assert reader.status()["completed"] == 0
        journal.write_bytes(whole)
        if write == "submit":
            assert reader.submit(_requests(1)) == [2]
        else:
            assert [i for i, _ in reader.run(checkpoint=1)] == [1]
        assert journal.read_bytes().startswith(whole)
        final = JobQueue.resume(tmp_path / "q").status()
        assert final["completed"] == (1 if write == "submit" else 2)
        assert final["submitted"] == (3 if write == "submit" else 2)
