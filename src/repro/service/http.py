"""Stdlib-only HTTP surface of the campaign service.

A thin JSON front door over :class:`~repro.service.scheduler.CampaignService`
on :class:`http.server.ThreadingHTTPServer` -- no web framework, matching the
repo's no-new-dependencies rule:

* ``POST /jobs`` -- submit a spec document; ``201`` with the job id (or
  ``200`` when the submission coalesced onto an in-flight twin or was
  answered from the result tier), ``400`` on a malformed spec.
* ``GET /jobs/<id>`` -- job state + streamed progress; ``404`` unknown.
* ``GET /jobs/<id>/result`` -- the provenance-stamped
  ``ExperimentResult.to_dict()``; ``409`` while the job is still in flight,
  ``500`` with the error for a failed job, ``404`` unknown.
* ``GET /healthz`` -- liveness plus queue/fleet/result-tier counters.

:func:`serve` is the blocking entry point behind ``scfi serve``: it starts a
service over a :class:`~repro.store.FileStore`, installs SIGTERM/SIGINT
handlers, and on either signal stops accepting, drains the in-flight job (or
marks it failed-but-resumable past the drain timeout) and closes every fleet
worker before returning.  :class:`ServiceClient` is the matching
``urllib``-based client behind ``scfi submit``/``status``/``result``.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.jobs import STATE_DONE, STATE_FAILED
from repro.service.scheduler import CampaignService, ServiceLog
from repro.store import ArtifactStore

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{72})(/result)?$")

#: Submissions larger than this are rejected outright (inline netlists are
#: tens of kilobytes; anything near this bound is not a spec).
_MAX_BODY = 16 * 1024 * 1024


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """One request; the service object hangs off the server."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------

    def _reply(self, status: int, document: Dict[str, Any]) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log = self.server.service_log
        if log is not None:
            log("http", format % args)

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") != "/jobs":
            self._reply(404, {"error": f"no such endpoint: POST {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 < length <= _MAX_BODY:
            self._reply(400, {"error": "missing, empty or oversized request body"})
            return
        try:
            spec_data = json.loads(self.rfile.read(length).decode("utf-8"))
            if not isinstance(spec_data, dict):
                raise ValueError("spec document must be a JSON object")
            job, status = self.server.service.submit(spec_data)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
            self._reply(400, {"error": f"bad spec: {error}"})
            return
        self._reply(
            201 if status == "queued" else 200,
            {
                "job_id": job.job_id,
                "spec_hash": job.spec_hash,
                "state": job.state,
                "status": status,
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") == "/healthz":
            self._reply(200, self.server.service.health())
            return
        match = _JOB_PATH.match(self.path)
        if match is None:
            self._reply(404, {"error": f"no such endpoint: GET {self.path}"})
            return
        job_id, want_result = match.group(1), match.group(2) is not None
        if not want_result:
            status = self.server.service.job_status(job_id)
            if status is None:
                self._reply(404, {"error": f"unknown job {job_id}"})
            else:
                self._reply(200, status)
            return
        try:
            document, state = self.server.service.job_result(job_id)
        except ValueError as error:
            # A done record stored under looser spec rules no longer parses.
            self._reply(500, {"error": f"stored spec no longer parses: {error}",
                              "state": STATE_DONE})
            return
        if document is not None:
            self._reply(200, document)
        elif state == "unknown":
            self._reply(404, {"error": f"unknown job {job_id}"})
        elif state in (STATE_FAILED, "missing"):
            job = self.server.service.job_status(job_id) or {}
            self._reply(
                500,
                {
                    "error": job.get("error") or "result missing from the store",
                    "state": state,
                },
            )
        else:  # still queued/planning/running
            self._reply(409, {"error": f"job is {state}, result not ready", "state": state})


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handler threads."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: CampaignService,
        *,
        log: Optional[ServiceLog] = None,
    ) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.service_log = log


def serve(
    store: ArtifactStore,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    fleet_size: int = 2,
    drain_timeout: float = 30.0,
    log: Optional[ServiceLog] = None,
    ready: Optional[Callable[[ServiceHTTPServer], None]] = None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT; returns the bound port.

    ``ready`` (if given) is called with the listening server before the
    blocking loop starts -- tests use it to learn an ephemeral port.
    Graceful shutdown order: stop accepting requests, drain the scheduler
    (in-flight job finishes or is marked failed+resumable after
    ``drain_timeout``), then close every fleet worker deterministically.
    """
    service = CampaignService(store, fleet_size=fleet_size, log=log).start()
    server = ServiceHTTPServer((host, port), service, log=log)
    bound_port = server.server_address[1]
    stop_requested = threading.Event()

    def request_stop(signum=None, frame=None) -> None:  # noqa: ARG001
        stop_requested.set()
        # shutdown() must come from another thread than serve_forever's.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, request_stop)
    try:
        if log is not None:
            log("serve", f"listening on http://{host}:{bound_port}")
        if ready is not None:
            ready(server)
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        service.close(drain_timeout)
        if log is not None:
            log("serve", "shut down cleanly")
    return bound_port


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the campaign service."""

    def __init__(self, status: int, document: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {document.get('error', document)}")
        self.status = status
        self.document = document


class ServiceClient:
    """Minimal ``urllib`` client for the service (used by ``scfi submit``)."""

    def __init__(self, base_url: str = "http://127.0.0.1:8765", timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                document = json.loads(error.read().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                document = {"error": str(error)}
            return error.code, document

    def submit(self, spec_data: Dict[str, Any]) -> Dict[str, Any]:
        status, document = self._request("POST", "/jobs", spec_data)
        if status not in (200, 201):
            raise ServiceError(status, document)
        return document

    def status(self, job_id: str) -> Dict[str, Any]:
        status, document = self._request("GET", f"/jobs/{job_id}")
        if status != 200:
            raise ServiceError(status, document)
        return document

    def result(self, job_id: str) -> Dict[str, Any]:
        """The stamped result document; raises :class:`ServiceError` with
        status 409 while the job is still in flight."""
        status, document = self._request("GET", f"/jobs/{job_id}/result")
        if status != 200:
            raise ServiceError(status, document)
        return document

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.2) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; return its result."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            status, document = self._request("GET", f"/jobs/{job_id}/result")
            if status == 200:
                return document
            if status != 409:
                raise ServiceError(status, document)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {document.get('state')} after {timeout:.0f}s"
                )
            time.sleep(poll)

    def health(self) -> Dict[str, Any]:
        status, document = self._request("GET", "/healthz")
        if status != 200:
            raise ServiceError(status, document)
        return document


# Re-exported for the CLI's convenience.
STATE_TERMINAL = (STATE_DONE, STATE_FAILED)
