"""Stdlib-only HTTP surface of the campaign service.

A thin JSON front door over :class:`~repro.service.scheduler.CampaignService`
on :class:`http.server.ThreadingHTTPServer` -- no web framework, matching the
repo's no-new-dependencies rule:

* ``POST /jobs`` -- submit a spec document; ``201`` with the job id (or
  ``200`` when the submission coalesced onto an in-flight twin or was
  answered from the result tier), ``400`` on a malformed spec.
* ``GET /jobs/<id>`` -- job state + streamed progress; ``404`` unknown.
* ``GET /jobs/<id>/result`` -- the provenance-stamped
  ``ExperimentResult.to_dict()``, ``500`` with the error for a failed job,
  ``404`` unknown.  On a job still in flight the request holds until the job
  settles, for up to :data:`RESULT_HOLD_S` while the scheduler runs, and
  then answers ``409``.
* ``GET /healthz`` -- liveness plus queue/fleet/result-tier counters.

Connections are kept alive (HTTP/1.1): one handler thread serves every
request of a connection until the client closes it or it idles for
:data:`IDLE_TIMEOUT_S`.  A body whose framing cannot be trusted (a transfer
coding, or a ``Content-Length`` that is not a number or is over the bound)
gets ``400`` and closes its connection.

:func:`serve` is the blocking entry point behind ``scfi serve``: it starts a
service over a :class:`~repro.store.FileStore`, installs SIGTERM/SIGINT
handlers, and on either signal stops accepting, drains the in-flight job (or
marks it failed-but-resumable past the drain timeout) and closes every fleet
worker before returning.  :class:`ServiceClient` is the matching
``http.client``-based client behind ``scfi submit``/``status``/``result``;
it keeps one connection per thread.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.jobs import STATE_DONE, STATE_FAILED
from repro.service.scheduler import CampaignService, ServiceLog
from repro.store import ArtifactStore

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{72})(/result)?$")

#: Submissions larger than this are rejected outright (inline netlists are
#: tens of kilobytes; anything near this bound is not a spec).
_MAX_BODY = 16 * 1024 * 1024

#: How long ``GET /jobs/<id>/result`` holds on an active job before it
#: answers 409; below :class:`ServiceClient`'s default 30 s timeout.
RESULT_HOLD_S = 20.0

#: A kept-alive connection idle this long is closed, freeing its thread.
IDLE_TIMEOUT_S = 60.0

_CONTENT_LENGTH = re.compile(r"[0-9]+")


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """One connection's requests; the service object hangs off the server."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # A reply is two writes (head, body): without TCP_NODELAY the second
    # waits for the client's delayed ACK.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # -- plumbing --------------------------------------------------------

    def handle(self) -> None:
        try:
            super().handle()
        except (ConnectionResetError, BrokenPipeError) as error:
            self.close_connection = True
            self.log_message("client %s went away: %s", self.client_address[0], error)

    def _reply(self, status: int, document: Dict[str, Any]) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection or self.server.listener_closed:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a 400 has been sent.

        A body of unknown length is left unread, so its connection closes
        after the reply: its bytes cannot be told from the next request.
        """
        length = self.headers.get("Content-Length", "0")
        if (
            "Transfer-Encoding" in self.headers
            or not _CONTENT_LENGTH.fullmatch(length)
            or int(length) > _MAX_BODY
        ):
            self.close_connection = True
            self._reply(400, {"error": "unreadable or oversized request body"})
            return None
        return self.rfile.read(int(length))

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log = self.server.service_log
        if log is not None:
            log("http", format % args)

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        body = self._read_body()
        if body is None:
            return
        if self.path.rstrip("/") != "/jobs":
            self._reply(404, {"error": f"no such endpoint: POST {self.path}"})
            return
        if not body:
            self._reply(400, {"error": "missing or empty request body"})
            return
        try:
            spec_data = json.loads(body.decode("utf-8"))
            if not isinstance(spec_data, dict):
                raise ValueError("spec document must be a JSON object")
            job, status = self.server.service.submit(spec_data)
        except (ValueError, KeyError, TypeError, RecursionError) as error:
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
            document, state = self.server.service.job_result(job_id, hold=RESULT_HOLD_S)
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
        else:  # still queued/planning/running after the hold
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
        self.listener_closed = False

    def server_close(self) -> None:
        # Kept-alive connections outlive the listener: each closes after
        # its next reply, so a client cannot keep a stopping server busy.
        self.listener_closed = True
        super().server_close()


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
    """Minimal ``http.client`` client for the service (used by ``scfi submit``).

    Each thread keeps one kept-alive connection.  A request on a reused
    connection that the server has meanwhile closed is sent once more on a
    fresh one, but only when no byte of a response has arrived.  ``timeout``
    bounds each request; a result request, which the server may hold for
    :data:`RESULT_HOLD_S`, waits at least half as long again.
    """

    #: A reused connection failing with one of these never reached the server.
    _STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)

    def __init__(self, base_url: str = "http://127.0.0.1:8765", timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._result_timeout = max(timeout, 1.5 * RESULT_HOLD_S)
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"service URL must be http://host[:port], got {base_url!r}")
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(*self._address, timeout=self.timeout)
            self._local.connection = connection
        return connection

    def close(self) -> None:
        """Close the calling thread's connection; the next request reopens it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        connection.timeout = self.timeout if timeout is None else timeout
        reused = connection.sock is not None
        if reused and connection.sock.gettimeout() != connection.timeout:
            connection.sock.settimeout(connection.timeout)
        try:
            try:
                connection.request(method, self._prefix + path, body=data, headers=headers)
                response = connection.getresponse()
            except self._STALE:
                if not reused:
                    raise
                connection.close()  # the next request opens a fresh connection
                connection.request(method, self._prefix + path, body=data, headers=headers)
                response = connection.getresponse()
            payload = response.read()
        except BaseException:
            connection.close()
            raise
        try:
            document = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = {"error": f"HTTP {response.status} {response.reason}"}
        return response.status, document

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
        """The stamped result document.  The server holds the request while
        the job is in flight; raises :class:`ServiceError` with status 409
        if the job is still in flight after the hold."""
        status, document = self._request(
            "GET", f"/jobs/{job_id}/result", timeout=self._result_timeout
        )
        if status != 200:
            raise ServiceError(status, document)
        return document

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Return the job's result once it settles, or raise
        :class:`TimeoutError` after ``timeout`` seconds.

        Each request holds on the server, so there is no client-side sleep;
        a hold that would outlast ``timeout`` is cut short by the socket
        timeout.  Raises the 409 as :class:`ServiceError` once the server
        reports its scheduler stopped: nothing there will settle the job.
        """
        deadline = time.monotonic() + timeout
        state = "in flight"
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"job {job_id} still {state} after {timeout:.0f}s")
            try:
                status, document = self._request(
                    "GET", f"/jobs/{job_id}/result", timeout=min(self._result_timeout, left)
                )
            except TimeoutError:
                if time.monotonic() < deadline:
                    raise
                continue
            if status == 200:
                return document
            if status != 409 or self.health()["status"] != "ok":
                raise ServiceError(status, document)
            state = document.get("state", state)

    def health(self) -> Dict[str, Any]:
        status, document = self._request("GET", "/healthz")
        if status != 200:
            raise ServiceError(status, document)
        return document
