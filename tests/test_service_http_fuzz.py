"""``POST /jobs`` answers every body cleanly and keeps its connection usable.

A hypothesis fuzzer posts arbitrary JSON values, spec-shaped objects,
non-object JSON, bytes that are not UTF-8, JSON nested too deep to parse and
bodies with a missing or wrong ``Content-Length`` to a live server.  Every
request gets a reply: ``400``, or
``200``/``201`` when the body is a valid spec -- never a ``500``, a dropped
connection or a handler traceback.  Then a ``GET /healthz`` must succeed on
the same kept-alive connection.  Only a body whose framing cannot be trusted
(an unparsable or oversized ``Content-Length``) closes the connection, and it
says so with ``Connection: close`` in its ``400``.

The service's scheduler is never started, so valid specs are queued but not
run: this exercises the HTTP surface, not the campaign.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api.spec import CampaignSpec, ExperimentSpec, FsmSpec, ProtectSpec, ReportSpec
from repro.service import CampaignService
from repro.service.http import _MAX_BODY, ServiceHTTPServer
from repro.store import MemoryStore


class _FuzzServer(ServiceHTTPServer):
    """Counts handler exceptions that reached socketserver's traceback path."""

    unhandled = 0

    def handle_error(self, request, client_address) -> None:
        type(self).unhandled += 1
        super().handle_error(request, client_address)


@pytest.fixture(scope="module")
def address():
    service = CampaignService(MemoryStore(), fleet_size=1)  # scheduler never started
    server = _FuzzServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
        service.close(drain_timeout=1)
    assert _FuzzServer.unhandled == 0


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

_SECTIONS = {"fsm": FsmSpec, "protect": ProtectSpec, "campaign": CampaignSpec,
             "report": ReportSpec}

#: Field values that make a valid spec likely, mixed with arbitrary JSON.
_PLAUSIBLE = st.sampled_from(
    ["traffic_light", "exhaustive", "random", "effects", "comb", ["flip"], 1, 2, 3, 0,
     True, False, None]
)


def _section(name: str):
    names = [f.name for f in fields(_SECTIONS[name])]
    return st.dictionaries(st.sampled_from(names), _PLAUSIBLE | JSON, max_size=4)


SPEC_SHAPED = st.fixed_dictionaries(
    {},
    optional={
        "version": st.sampled_from([1, 2, "1"]),
        **{name: st.none() | _section(name) | JSON for name in _SECTIONS},
    },
)

#: Mostly valid specs, so the 200/201 path is fuzzed too.
NEAR_VALID = st.fixed_dictionaries(
    {"fsm": st.fixed_dictionaries({"name": st.sampled_from(["traffic_light", "uart_rx"])})},
    optional={
        "campaign": st.fixed_dictionaries(
            {"scenario": st.sampled_from(["exhaustive", "random", "effects", "bogus"])},
            optional={"seed": st.integers(-1, 9), "trials": _PLAUSIBLE | st.integers(0, 99)},
        ),
        "report": st.fixed_dictionaries({}, optional={"keep_outcomes": _PLAUSIBLE}),
    },
)


def _dumps(value) -> bytes:
    return json.dumps(value).encode("utf-8")


BODIES = st.one_of(
    JSON.map(_dumps),
    SPEC_SHAPED.map(_dumps),
    NEAR_VALID.map(_dumps),
    st.binary(max_size=64),
    # Never valid UTF-8: 0xff cannot occur in it.
    st.binary(max_size=32).map(lambda tail: b"\xff" + tail),
    st.text(max_size=16).map(lambda name: b'{"fsm": {"name": "\xfe' + name.encode() + b'"}}'),
    # Nested deeper than json.loads recurses.
    st.integers(1, 20_000).map(lambda depth: b'{"fsm": ' + b"[" * depth + b"]" * depth + b"}"),
)

#: How the request frames its body: ``None`` (half the examples) sends the
#: exact length, the rest send no body at all.
FRAMINGS = st.none() | st.sampled_from(
    ["missing", "0", "-1", "abc", "1.5", "", "7,7", "+7", "0x10", str(_MAX_BODY + 1)]
)
#: Framings the server cannot trust: it answers 400 and closes.
UNTRUSTED = {"-1", "abc", "1.5", "", "7,7", "+7", "0x10", str(_MAX_BODY + 1)}


def _valid_spec(body: bytes) -> bool:
    try:
        ExperimentSpec.from_dict(json.loads(body.decode("utf-8")))
    except (ValueError, RecursionError):
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(body=BODIES, framing=FRAMINGS)
def test_post_jobs_answers_cleanly_and_keeps_the_connection(address, body, framing):
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Type", "application/json")
        if framing is None:
            connection.putheader("Content-Length", str(len(body)))
        elif framing != "missing":
            connection.putheader("Content-Length", framing)
        connection.endheaders(body if framing is None else None)
        response = connection.getresponse()
        document = json.loads(response.read().decode("utf-8"))
        event(f"POST answered {response.status}")
        if framing is None and body and _valid_spec(body):
            assert response.status in (200, 201), document
            assert len(document["job_id"]) == 72
        else:
            assert response.status == 400, document
            assert document["error"]

        if framing in UNTRUSTED:
            assert response.getheader("Connection") == "close"
            assert connection.sock is None  # the client saw the close
            connection.connect()
        else:
            assert response.getheader("Connection") is None
        sock = connection.sock
        connection.request("GET", "/healthz")
        health = connection.getresponse()
        assert health.status == 200
        assert "result_tier" in json.loads(health.read().decode("utf-8"))
        assert connection.sock is sock  # the same connection served it
    finally:
        connection.close()
