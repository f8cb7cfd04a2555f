"""The service's durable job queue: identity, persistence, recovery, coalescing.

The load-bearing properties: there is no in-memory-only job registry (every
record round-trips through the artifact store and a fresh queue over the same
store recovers it), and submissions are single-flight per spec hash (an
identical spec submitted while its twin is active rides the same job).
"""

import hashlib

import pytest

from repro.api.spec import ExperimentSpec
from repro.service.jobs import (
    ACTIVE_STATES,
    STATE_DONE,
    STATE_FAILED,
    STATE_PLANNING,
    STATE_QUEUED,
    STATE_RUNNING,
    Job,
    JobQueue,
    new_nonce,
    split_job_id,
)
from repro.store import MemoryStore

SPEC_HASH = hashlib.sha256(b"spec A").hexdigest()
SPEC_HASH2 = hashlib.sha256(b"spec B").hexdigest()
SPEC = {"fsm": {"name": "traffic_light"}}


class TestJobModel:
    def test_job_id_is_spec_hash_plus_nonce(self):
        job = Job(spec_hash=SPEC_HASH, nonce="0a1b2c3d", spec=SPEC)
        assert job.job_id == SPEC_HASH + "0a1b2c3d"
        assert split_job_id(job.job_id) == (SPEC_HASH, "0a1b2c3d")

    def test_round_trip(self):
        job = Job(spec_hash=SPEC_HASH, nonce=new_nonce(), spec=SPEC, state=STATE_RUNNING)
        job.progress["batches_done"] = 3
        clone = Job.from_dict(job.to_dict())
        assert clone.job_id == job.job_id
        assert clone.state == STATE_RUNNING
        assert clone.progress == {"batches_done": 3}

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError, match="unknown job state"):
            Job(spec_hash=SPEC_HASH, nonce=new_nonce(), spec=SPEC, state="paused")

    @pytest.mark.parametrize(
        "bad", ["", "zz", SPEC_HASH, SPEC_HASH + "0a1b2c3d99", SPEC_HASH + "0A1B2C3D"]
    )
    def test_split_rejects_malformed_ids(self, bad):
        with pytest.raises(ValueError, match="malformed job id"):
            split_job_id(bad)

    def test_nonces_are_fresh(self):
        assert len({new_nonce() for _ in range(64)}) == 64


class TestParsedSpec:
    """A job carries its parsed spec to the scheduler and drops it once it
    settles; the record never stores it."""

    def test_terminal_transition_drops_the_parsed_spec(self):
        parsed = ExperimentSpec.from_dict(SPEC)
        store = MemoryStore()
        queue = JobQueue(store)
        job, _ = queue.submit(parsed.content_hash(), parsed.to_dict(), parsed)
        assert queue.next_job(timeout=0) is job and job.parsed is parsed
        queue.transition(job, STATE_RUNNING)
        assert job.parsed is parsed
        assert JobQueue(store).get(job.job_id).parsed is None
        queue.transition(job, STATE_DONE)
        assert job.parsed is None


class TestDurability:
    def test_submit_persists_through_the_store(self):
        store = MemoryStore()
        job, coalesced = JobQueue(store).submit(SPEC_HASH, SPEC)
        assert not coalesced
        # A *different* queue over the same store sees the record.
        other = JobQueue(store)
        loaded = other.get(job.job_id)
        assert loaded is not None and loaded.state == STATE_QUEUED
        assert loaded.spec == SPEC

    def test_recover_requeues_in_flight_jobs(self):
        store = MemoryStore()
        first = JobQueue(store)
        queued, _ = first.submit(SPEC_HASH, SPEC)
        running, _ = first.submit(SPEC_HASH2, SPEC)
        first.transition(running, STATE_RUNNING)
        # Simulate a crash: a brand-new queue recovers from the store alone.
        revived = JobQueue(store)
        stats = revived.recover()
        assert stats == {"loaded": 2, "requeued": 2}
        recovered = [revived.next_job(0), revived.next_job(0)]
        assert {job.job_id for job in recovered} == {queued.job_id, running.job_id}
        assert all(job.recovered and job.state == STATE_QUEUED for job in recovered)

    def test_recover_requeues_resumable_failures_only(self):
        store = MemoryStore()
        first = JobQueue(store)
        drained, _ = first.submit(SPEC_HASH, SPEC)
        first.transition(drained, STATE_FAILED, error="shutdown", resumable=True)
        broken, _ = first.submit(SPEC_HASH2, SPEC)
        first.transition(broken, STATE_FAILED, error="bad netlist")

        revived = JobQueue(store)
        assert revived.recover()["requeued"] == 1
        assert revived.next_job(0).spec_hash == SPEC_HASH
        # The genuine failure is reloaded for queries but not re-run.
        assert revived.get(broken.job_id).state == STATE_FAILED
        assert revived.next_job(0) is None

    def test_done_jobs_survive_restart_for_queries(self):
        store = MemoryStore()
        first = JobQueue(store)
        job, _ = first.submit(SPEC_HASH, SPEC)
        first.transition(job, STATE_DONE, result_source="computed")
        revived = JobQueue(store)
        stats = revived.recover()
        assert stats == {"loaded": 1, "requeued": 0}
        assert revived.get(job.job_id).result_source == "computed"

    def test_recovery_preserves_submission_order(self):
        store = MemoryStore()
        first = JobQueue(store)
        a, _ = first.submit(SPEC_HASH, SPEC)
        a.submitted -= 10  # force a stable, distinct ordering
        first.persist(a)
        b, _ = first.submit(SPEC_HASH2, SPEC)
        revived = JobQueue(store)
        revived.recover()
        assert revived.next_job(0).job_id == a.job_id
        assert revived.next_job(0).job_id == b.job_id


class TestSingleFlight:
    def test_identical_specs_coalesce_while_active(self):
        queue = JobQueue(MemoryStore())
        job, coalesced = queue.submit(SPEC_HASH, SPEC)
        for state in ACTIVE_STATES:
            queue.transition(job, state)
            twin, coalesced = queue.submit(SPEC_HASH, SPEC)
            assert coalesced and twin.job_id == job.job_id
        assert queue.pending_count() == 1  # never a second queue entry

    def test_different_specs_do_not_coalesce(self):
        queue = JobQueue(MemoryStore())
        first, _ = queue.submit(SPEC_HASH, SPEC)
        second, coalesced = queue.submit(SPEC_HASH2, SPEC)
        assert not coalesced and second.job_id != first.job_id

    def test_terminal_state_releases_the_slot(self):
        queue = JobQueue(MemoryStore())
        job, _ = queue.submit(SPEC_HASH, SPEC)
        queue.transition(job, STATE_DONE)
        fresh, coalesced = queue.submit(SPEC_HASH, SPEC)
        assert not coalesced and fresh.nonce != job.nonce

    def test_counts_track_states(self):
        queue = JobQueue(MemoryStore())
        job, _ = queue.submit(SPEC_HASH, SPEC)
        queue.submit(SPEC_HASH2, SPEC)
        queue.transition(job, STATE_PLANNING)
        counts = queue.counts()
        assert counts[STATE_QUEUED] == 1 and counts[STATE_PLANNING] == 1


class TestWaitSettled:
    """Callers wait on the queue's terminal-state condition, not a sleep poll."""

    def test_wakes_when_another_thread_settles_the_job(self):
        import threading

        queue = JobQueue(MemoryStore())
        job, _ = queue.submit(SPEC_HASH, SPEC)
        waiting = threading.Event()
        settled = []

        def waiter():
            waiting.set()
            settled.append(queue.wait_settled(job.job_id, timeout=30))

        thread = threading.Thread(target=waiter)
        thread.start()
        waiting.wait(10)
        queue.transition(queue.next_job(timeout=1), STATE_RUNNING)
        queue.transition(job, STATE_DONE)
        thread.join(30)
        assert not thread.is_alive()
        assert settled[0] is job and settled[0].state == STATE_DONE

    def test_returns_at_once_for_a_terminal_job(self):
        queue = JobQueue(MemoryStore())
        job, _ = queue.submit(SPEC_HASH, SPEC)
        queue.transition(job, STATE_FAILED, error="boom")
        assert queue.wait_settled(job.job_id).state == STATE_FAILED

    def test_times_out_on_an_active_job(self):
        queue = JobQueue(MemoryStore())
        job, _ = queue.submit(SPEC_HASH, SPEC)
        assert queue.wait_settled(job.job_id, timeout=0.01).state == STATE_QUEUED

    def test_close_returns_every_wait(self):
        import threading

        queue = JobQueue(MemoryStore())
        job, _ = queue.submit(SPEC_HASH, SPEC)
        waiting = threading.Event()
        returned = []

        def waiter():
            waiting.set()
            returned.append(queue.wait_settled(job.job_id, timeout=60))

        thread = threading.Thread(target=waiter)
        thread.start()
        waiting.wait(10)
        queue.close()
        thread.join(30)
        assert not thread.is_alive()
        assert returned[0].state == STATE_QUEUED
        assert queue.wait_settled(job.job_id, timeout=60).state == STATE_QUEUED
