"""The campaign service end to end: HTTP surface, memoisation, recovery.

The acceptance properties of the service PR, pinned in-process:

* submit -> poll -> result over HTTP is bit-identical to a direct
  ``Session.run`` of the same spec;
* a re-submitted spec is answered from the result tier -- ``"hit"``
  provenance, zero new fleet dispatches;
* concurrent submissions of an identical spec cost exactly one computation
  (single-flight / result-tier, never two);
* a restarted service recovers its queue from the store -- there is no
  in-memory-only registry -- and finishes interrupted jobs.
"""

import json
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.service import CampaignService, ServiceClient, ServiceError
from repro.service.http import ServiceHTTPServer
from repro.service.jobs import JOB_STAGE, STATE_DONE, Job, JobQueue, new_nonce
from repro.store import FileStore, MemoryStore

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def spec_data():
    return json.loads((EXAMPLES / "experiment.json").read_text())


@pytest.fixture(scope="module")
def direct_result(spec_data):
    """The same spec through a plain in-process Session (no service)."""
    return Session().run(ExperimentSpec.from_dict(spec_data)).to_dict()


@contextmanager
def serving(service, drain_timeout=10):
    """An HTTP server for ``service`` on an ephemeral port and a client for
    it; the server and the service are torn down after."""
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    # A short poll: ``shutdown()`` waits for the loop's next poll.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
        service.close(drain_timeout=drain_timeout)


@pytest.fixture
def service_client():
    """A started service + HTTP server on an ephemeral port, torn down after."""
    service = CampaignService(MemoryStore(), fleet_size=2).start()
    with serving(service) as client:
        yield client, service


class TestEndToEnd:
    def test_submit_poll_result_matches_direct_run(
        self, service_client, spec_data, direct_result
    ):
        client, _service = service_client
        reply = client.submit(spec_data)
        assert reply["status"] == "queued"
        assert reply["job_id"].startswith(reply["spec_hash"])

        status = client.status(reply["job_id"])
        assert status["state"] in ("queued", "planning", "running", "done")

        document = client.wait(reply["job_id"], timeout=60)
        assert document["spec_hash"] == direct_result["spec_hash"]
        assert document["campaigns"] == direct_result["campaigns"]
        assert document["harden"] == direct_result["harden"]
        assert "behavioral" not in document
        assert document["service"]["result_tier"] == "computed"
        assert document["service"]["job_id"] == reply["job_id"]

    def test_bitflip_spec_matches_direct_run(self, service_client):
        client, _service = service_client
        spec_data = {
            "fsm": {"name": "traffic_light"},
            "campaign": {"scenario": "bitflip", "faults": 2, "trials": 200, "seed": 3},
        }
        document = client.wait(client.submit(spec_data)["job_id"], timeout=60)
        direct = Session().run(ExperimentSpec.from_dict(spec_data)).to_dict()
        assert document["campaigns"] == direct["campaigns"]
        assert document["provenance"]["scenario"] == "bitflip"
        assert "behavioral" not in document

    def test_resubmission_is_a_result_tier_hit_with_zero_dispatch(
        self, service_client, spec_data
    ):
        client, service = service_client
        first = client.submit(spec_data)
        client.wait(first["job_id"], timeout=60)
        dispatched_before = service.fleet.stats()["tasks_dispatched"]

        again = client.submit(spec_data)
        assert again["status"] == "cached"
        assert again["state"] == "done"
        assert again["job_id"] != first["job_id"]  # a fresh submission record
        document = client.result(again["job_id"])
        assert document["service"]["result_tier"] == "hit"
        assert service.fleet.stats()["tasks_dispatched"] == dispatched_before

    def test_concurrent_identical_specs_compute_once(self, service_client, spec_data):
        client, service = service_client
        replies = []
        lock = threading.Lock()

        def submit():
            reply = client.submit(spec_data)
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(replies) == 6
        # However the race lands, exactly one submission computes: the rest
        # coalesce onto it or are answered from the result tier.
        queued = [reply for reply in replies if reply["status"] == "queued"]
        assert len(queued) == 1
        rest = [reply for reply in replies if reply["status"] != "queued"]
        assert all(reply["status"] in ("coalesced", "cached") for reply in rest)
        coalesced = [reply for reply in replies if reply["status"] == "coalesced"]
        assert all(reply["job_id"] == queued[0]["job_id"] for reply in coalesced)

        client.wait(queued[0]["job_id"], timeout=60)
        assert service.scheduler.jobs_executed == 1

    def test_health_reports_queue_and_fleet(self, service_client, spec_data):
        client, _service = service_client
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "planning", "running", "done", "failed"}
        assert health["fleet"]["workers_alive"] == 2


class TestHttpErrors:
    def test_bad_spec_is_400(self, service_client):
        client, _service = service_client
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"not": "a spec"})
        assert excinfo.value.status == 400

    def test_unknown_engine_is_400_and_queues_nothing(self, service_client, spec_data):
        client, service = service_client
        bad = json.loads(json.dumps(spec_data))
        bad["campaign"]["engine"] = "bogus-engine"
        with pytest.raises(ServiceError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400
        assert "unknown engine 'bogus-engine'" in excinfo.value.document["error"]
        assert sum(service.health()["jobs"].values()) == 0  # no job record at all
        assert service.scheduler.jobs_failed == 0

    @pytest.mark.parametrize(
        "campaign, named",
        [
            ({"scenario": "meltdown"}, "'meltdown'"),
            ({"scenario": "exhaustive", "cycles": 3}, "'cycles'"),
        ],
    )
    def test_bad_campaign_is_400_and_stores_no_job(self, service_client, campaign, named):
        client, service = service_client
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"fsm": {"name": "traffic_light"}, "campaign": campaign})
        assert excinfo.value.status == 400
        assert named in excinfo.value.document["error"]
        assert [entry for entry in service.store.entries() if entry.stage == JOB_STAGE] == []

    def test_unknown_job_is_404(self, service_client):
        client, _service = service_client
        for method in (client.status, client.result):
            with pytest.raises(ServiceError) as excinfo:
                method("0" * 72)
            assert excinfo.value.status == 404

    def test_result_before_done_is_409(self, spec_data):
        # A service whose scheduler never starts: the job stays queued.
        service = CampaignService(MemoryStore(), fleet_size=1)
        with serving(service, drain_timeout=1) as client:
            reply = client.submit(spec_data)
            with pytest.raises(ServiceError) as excinfo:
                client.result(reply["job_id"])
            assert excinfo.value.status == 409
            assert excinfo.value.document["state"] == "queued"

    def test_failed_job_result_is_500_with_error(self, service_client):
        client, service = service_client
        # Parses fine (the name is only a string) but fails at the harden
        # stage: no such FSM in the registry.
        spec = {"fsm": {"name": "no_such_fsm_anywhere"}}
        reply = client.submit(spec)
        assert service.queue.wait_settled(reply["job_id"], timeout=15).state == "failed"
        with pytest.raises(ServiceError) as excinfo:
            client.result(reply["job_id"])
        assert excinfo.value.status == 500
        assert excinfo.value.document["error"]


class TestRestartRecovery:
    def test_queued_job_survives_a_restart(self, tmp_path, spec_data, direct_result):
        store_dir = tmp_path / "cache"
        # First server: accept the submission but die before running it
        # (the scheduler is never started).
        first = CampaignService(FileStore(store_dir), fleet_size=1)
        job, status = first.submit(spec_data)
        assert status == "queued"
        first.close(drain_timeout=1)

        # Second server over the same store: recovery re-queues and runs it.
        second = CampaignService(FileStore(store_dir), fleet_size=1)
        with second:
            assert second.recovered == {"loaded": 1, "requeued": 1}
            assert second.queue.wait_settled(job.job_id, timeout=30).state == "done"
            assert second.job_status(job.job_id)["state"] == "done"
            document, _state = second.job_result(job.job_id)
            assert document["campaigns"] == direct_result["campaigns"]
            recovered_job = second.queue.get(job.job_id)
            assert recovered_job.recovered

    def test_done_jobs_answer_after_restart(self, tmp_path, spec_data, direct_result):
        store_dir = tmp_path / "cache"
        with CampaignService(FileStore(store_dir), fleet_size=1) as first:
            job, _ = first.submit(spec_data)
            assert first.queue.wait_settled(job.job_id, timeout=30).state == "done"

        with CampaignService(FileStore(store_dir), fleet_size=1) as second:
            # The old job id still answers, served from the store.
            document, state = second.job_result(job.job_id)
            assert state == "done"
            assert document["campaigns"] == direct_result["campaigns"]
            # And the spec itself is now a submit-time result-tier hit.
            twin, status = second.submit(spec_data)
            assert status == "cached"
            assert second.job_result(twin.job_id)[0]["service"]["result_tier"] == "hit"

    def test_done_record_whose_spec_no_longer_parses_answers_json(self):
        # A done record accepted before exhaustive campaigns rejected
        # fault_duration: after a restart its spec cannot be re-parsed.
        store = MemoryStore()
        stale = {
            "fsm": {"name": "traffic_light"},
            "campaign": {"scenario": "exhaustive", "fault_duration": "persistent"},
        }
        job = Job(spec_hash="ab" * 32, nonce=new_nonce(), spec=stale, state=STATE_DONE)
        JobQueue(store).persist(job)
        with serving(CampaignService(store, fleet_size=1).start()) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.result(job.job_id)
        assert excinfo.value.status == 500
        assert excinfo.value.document["state"] == "done"
        assert "'fault_duration'" in excinfo.value.document["error"]
