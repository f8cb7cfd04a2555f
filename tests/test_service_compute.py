"""The service's compute path: what a computed job writes and what it reuses.

A computed job persists its record at submit and at its terminal state only,
and its result is the report-stage artifact the session writes anyway -- so
a cold job costs the three stage artifacts (harden, campaign, report) plus
two job records.  The
scheduler's one long-lived session keeps the hardened FSM and its
fleet-bound executor warm, so the next job on the same FSM neither reloads
the netlist from the store nor builds a new executor.

Jobs are executed synchronously on the test thread (the scheduler thread is
never started), so nothing here waits on a timer.
"""

import pytest

import repro.api.session as session_mod
from repro.service import CampaignService
from repro.service.jobs import JOB_STAGE, STATE_QUEUED, STATE_RUNNING, JobQueue
from repro.store import MemoryStore


def random_spec(seed, **campaign):
    return {
        "fsm": {"name": "traffic_light"},
        "campaign": {"scenario": "random", "faults": 2, "trials": 200, "seed": seed, **campaign},
    }


class CountingStore(MemoryStore):
    def __init__(self):
        super().__init__()
        self.saved_stages = []

    def save(self, stage, key, payload, codec):
        self.saved_stages.append(stage)
        return super().save(stage, key, payload, codec)


@pytest.fixture
def service():
    service = CampaignService(CountingStore(), fleet_size=1)
    try:
        yield service
    finally:
        service.close(drain_timeout=10)


def compute(service, spec_data):
    """Submit one spec and execute it on this thread; returns the job id."""
    job, status = service.submit(spec_data)
    assert status == "queued"
    service.scheduler._execute(service.queue.next_job(0))
    assert service.job_status(job.job_id)["state"] == "done"
    return job.job_id


class TestWrites:
    def test_cold_job_makes_five_saves_two_of_them_job_records(self, service):
        store = service.store
        job_id = compute(service, random_spec(1))
        assert len(store.saved_stages) <= 5, store.saved_stages
        assert store.saved_stages.count(JOB_STAGE) == 2
        # Progress stayed in memory, and the result is the report artifact.
        status = service.job_status(job_id)
        assert status["progress"]["cache"]["harden"] == "miss"
        assert status["progress"]["batches_done"] == status["progress"]["batches_total"]
        document, state = service.job_result(job_id)
        assert state == "done" and document["service"]["result_tier"] == "computed"

    def test_running_job_recovers_from_its_queued_record(self):
        store = MemoryStore()
        queue = JobQueue(store)
        job, _ = queue.submit("ab" * 32, random_spec(1))
        queue.transition(job, STATE_RUNNING)
        job.progress["batches_done"] = 3
        revived = JobQueue(store)
        assert revived.recover() == {"loaded": 1, "requeued": 1}
        recovered = revived.next_job(0)
        assert recovered.job_id == job.job_id
        assert recovered.state == STATE_QUEUED and recovered.recovered
        assert recovered.progress == {}

    def test_result_is_served_from_the_report_artifact_after_restart(self, service):
        job_id = compute(service, random_spec(2))
        restarted = CampaignService(service.store, fleet_size=1)
        try:
            restarted.queue.recover()
            document, state = restarted.job_result(job_id)
            assert state == "done"
            assert document == service.job_result(job_id)[0]
        finally:
            restarted.close(drain_timeout=10)


class TestWarmReuse:
    @staticmethod
    def _count(monkeypatch, name):
        """Count calls of ``repro.api.session.<name>``."""
        calls = []
        original = getattr(session_mod, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(session_mod, name, counting)
        return calls

    def test_second_job_on_the_same_fsm_reloads_and_builds_nothing(
        self, service, monkeypatch
    ):
        compute(service, random_spec(1))
        calls = self._count(monkeypatch, "deserialize_scfi_result")
        calls += self._count(monkeypatch, "make_executor")
        job_id = compute(service, random_spec(2))
        assert calls == []
        assert service.job_status(job_id)["progress"]["cache"]["harden"] == "hit"

    def test_jobs_differing_only_in_workers_share_one_executor(self, service, monkeypatch):
        """On the fleet its size decides placement, so ``workers`` neither
        builds another executor nor ships the netlist again."""
        built = self._count(monkeypatch, "make_executor")
        compute(service, random_spec(1, workers=1))
        shipped = service.fleet.stats()["configs_shipped"]
        compute(service, random_spec(2, workers=3))
        assert built == ["make_executor"]
        assert service.fleet.stats()["configs_shipped"] == shipped
