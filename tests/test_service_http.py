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
import socket
import struct
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.fi.fleet import ServiceShutdown
from repro.service import CampaignService, ServiceClient, ServiceError
from repro.service import http as service_http
from repro.service.http import RESULT_HOLD_S, ServiceHTTPServer, _ServiceRequestHandler
from repro.service.jobs import JOB_STAGE, STATE_DONE, Job, JobQueue, new_nonce
from repro.store import FileStore, MemoryStore

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: A spec that only hardens: quick to run and never touches the fleet.
HARDEN_ONLY = {"fsm": {"name": "traffic_light"}}


@pytest.fixture(scope="module")
def spec_data():
    return json.loads((EXAMPLES / "experiment.json").read_text())


@pytest.fixture(scope="module")
def direct_result(spec_data):
    """The same spec through a plain in-process Session (no service)."""
    return Session().run(ExperimentSpec.from_dict(spec_data)).to_dict()


@contextmanager
def serving(service, drain_timeout=10, server=None):
    """An HTTP server for ``service`` (``server`` if given) on an ephemeral
    port and a client for it; the client, the server and the service are
    torn down after."""
    if server is None:
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
    # A short poll: ``shutdown()`` waits for the loop's next poll.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client
    finally:
        client.close()
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
        # One progress channel still fills every key of the job status.
        progress = client.status(reply["job_id"])["progress"]
        assert progress["stage"] == "done"
        assert progress["batches_done"] == progress["batches_total"] > 0
        assert set(progress) == {"stage", "detail", "batches_done", "batches_total", "cache"}

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

    def test_each_submission_counts_once_in_the_result_tier(self, service_client):
        """The submit probe alone counts: fetching results, of a computed job
        or of a hit, moves neither counter."""
        client, _service = service_client
        first = client.submit(HARDEN_ONLY)
        client.wait(first["job_id"], timeout=60)
        client.result(first["job_id"])
        again = client.submit(HARDEN_ONLY)
        assert again["status"] == "cached"
        client.result(again["job_id"])
        assert client.health()["result_tier"] == {"hits": 1, "misses": 1}

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

    def test_wait_on_a_stopped_scheduler_raises_the_409(self, spec_data):
        service = CampaignService(MemoryStore(), fleet_size=1)  # never started
        with serving(service, drain_timeout=1) as client:
            reply = client.submit(spec_data)
            with pytest.raises(ServiceError) as excinfo:
                client.wait(reply["job_id"], timeout=60)
            assert excinfo.value.status == 409

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


class _CountingServer(ServiceHTTPServer):
    """Counts accepted connections and handler tracebacks, and signals each
    connection's close."""

    def __init__(self, service, **kwargs):
        super().__init__(("127.0.0.1", 0), service, **kwargs)
        self.accepted = 0
        self.tracebacks = 0
        self.disconnected = threading.Semaphore(0)

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        self.tracebacks += 1
        super().handle_error(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.disconnected.release()


def _holding(service):
    """Count the service's result holds; the event is set on the first."""
    holds, holding = [], threading.Event()
    wait_settled = service.queue.wait_settled

    def counted(job_id, timeout=None):
        holds.append(timeout)
        holding.set()
        return wait_settled(job_id, timeout)

    service.queue.wait_settled = counted
    return holds, holding


class TestKeepAlive:
    def test_one_client_reuses_one_connection(self, spec_data):
        service = CampaignService(MemoryStore(), fleet_size=1)  # scheduler never started
        server = _CountingServer(service)
        with serving(service, drain_timeout=1, server=server) as client:
            assert client.health()["status"] == "stopped"
            job_id = client.submit(spec_data)["job_id"]
            assert client.status(job_id)["state"] == "queued"
            with pytest.raises(ServiceError):
                client.result(job_id)
            client.health()
            assert server.accepted == 1

    def test_client_reconnects_after_the_server_closes_an_idle_connection(self):
        class IdleAtOnce(_ServiceRequestHandler):
            def handle_one_request(self):
                super().handle_one_request()
                self.connection.settimeout(0.001)  # no next request: close

        service = CampaignService(MemoryStore(), fleet_size=1)
        server = _CountingServer(service)
        server.RequestHandlerClass = IdleAtOnce
        with serving(service, drain_timeout=1, server=server) as client:
            client.health()
            assert server.disconnected.acquire(timeout=10)  # the server dropped it
            assert client.health()["status"] == "stopped"
            assert server.accepted == 2
            assert server.tracebacks == 0

    def test_connections_close_once_the_listener_has(self):
        service = CampaignService(MemoryStore(), fleet_size=1)
        server = _CountingServer(service)
        with serving(service, drain_timeout=1, server=server) as client:
            client.health()
            server.shutdown()
            server.server_close()
            client.health()  # still answered on the kept-alive connection ...
            assert server.disconnected.acquire(timeout=10)  # ... which then closes
            with pytest.raises(ConnectionRefusedError):
                client.health()

    def test_client_reset_logs_one_line_and_no_traceback(self):
        lines = []
        service = CampaignService(MemoryStore(), fleet_size=1)
        server = _CountingServer(service, log=lambda event, detail: lines.append(detail))
        with serving(service, drain_timeout=1, server=server):
            sock = socket.create_connection(server.server_address)
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 99\r\n\r\n{")
            # Linger 0: close() resets the connection mid-body.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            assert server.disconnected.acquire(timeout=10)
        assert server.tracebacks == 0
        assert len([line for line in lines if "went away" in line]) == 1


class TestLongPoll:
    def test_held_result_answers_200_when_the_job_settles(self):
        service = CampaignService(MemoryStore(), fleet_size=1)
        release = threading.Event()
        run = service.scheduler.session.run

        def gated_run(spec, **kwargs):
            assert release.wait(30)
            return run(spec, **kwargs)

        service.scheduler.session.run = gated_run
        holds, holding = _holding(service)
        answers = []
        try:
            with serving(service.start()) as client:
                job_id = client.submit(HARDEN_ONLY)["job_id"]

                def poll():
                    answers.append(client.result(job_id))
                    client.close()

                poller = threading.Thread(target=poll)
                poller.start()
                assert holding.wait(10)
                release.set()
                poller.join(30)
                assert not poller.is_alive()
        finally:
            release.set()
        # One request, held once, answered 200: no 409 in between.
        assert holds == [RESULT_HOLD_S]
        assert answers[0]["service"]["job_id"] == job_id

    def test_wait_gives_up_at_its_timeout_mid_hold(self):
        service = CampaignService(MemoryStore(), fleet_size=1)
        release = threading.Event()
        run = service.scheduler.session.run
        service.scheduler.session.run = lambda spec, **kw: release.wait(30) and run(spec, **kw)
        _, holding = _holding(service)
        try:
            with serving(service.start()) as client:
                job_id = client.submit(HARDEN_ONLY)["job_id"]
                started = time.monotonic()
                with pytest.raises(TimeoutError, match="still"):
                    client.wait(job_id, timeout=0.2)
                assert time.monotonic() - started < RESULT_HOLD_S / 2
                assert holding.wait(10)  # the server did hold the request
                release.set()
        finally:
            release.set()

    def test_short_timeout_client_gets_the_409_after_the_hold(self, monkeypatch):
        monkeypatch.setattr(service_http, "RESULT_HOLD_S", 2.0)
        service = CampaignService(MemoryStore(), fleet_size=1)
        release = threading.Event()
        run = service.scheduler.session.run
        service.scheduler.session.run = lambda spec, **kw: release.wait(30) and run(spec, **kw)
        holds, _ = _holding(service)
        try:
            with serving(service.start()) as client:
                short = ServiceClient(client.base_url, timeout=0.01)
                job_id = client.submit(HARDEN_ONLY)["job_id"]
                with pytest.raises(ServiceError) as caught:
                    short.result(job_id)
                short.close()
                assert caught.value.status == 409
                assert holds == [2.0]
                release.set()
        finally:
            release.set()

    def test_close_releases_a_held_result(self, spec_data):
        service = CampaignService(MemoryStore(), fleet_size=1)
        running = threading.Event()

        def run_until_stopped(spec, **kwargs):
            running.set()
            service.scheduler._stop.wait(30)
            raise ServiceShutdown("drained")

        service.scheduler.session.run = run_until_stopped
        holds, holding = _holding(service)
        service.start()
        first, _ = service.submit(HARDEN_ONLY)
        assert running.wait(10)
        second, _ = service.submit(spec_data)  # queued behind the first
        answers = []
        waiter = threading.Thread(
            target=lambda: answers.append(service.job_result(second.job_id, hold=60))
        )
        waiter.start()
        assert holding.wait(10)
        service.close(drain_timeout=10)
        waiter.join(10)
        assert not waiter.is_alive()
        assert answers == [(None, "queued")]
        assert service.queue.get(first.job_id).resumable


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
