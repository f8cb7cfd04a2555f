"""Graceful shutdown of ``scfi serve``: drain, clean exit, no leakage.

The service twin of the executor's no-surviving-pool guarantee: SIGTERM to a
real ``scfi serve`` process must drain in-flight work (or persist it as
failed-but-resumable), close every fleet worker deterministically, exit 0,
and leave neither ``/dev/shm`` segments nor ``*.tmp`` files behind.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import CampaignService, ServiceClient
from repro.store import FileStore

REPO = Path(__file__).resolve().parent.parent


def _shm_entries():
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {entry.name for entry in shm.iterdir()}


@pytest.fixture
def serve_process(tmp_path):
    """A real ``scfi serve`` subprocess on an ephemeral port."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli.main",
            "serve",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--port",
            "0",
            "--fleet",
            "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"http://\S+:(\d+)", line)
        assert match, f"no listening line from scfi serve: {line!r}"
        yield process, ServiceClient(f"http://127.0.0.1:{match.group(1)}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(10)
        process.stdout.close()
        process.stderr.close()


class TestSigterm:
    def test_idle_server_exits_clean_without_leaks(self, serve_process, tmp_path):
        process, client = serve_process
        shm_before = _shm_entries()
        assert client.health()["status"] == "ok"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        stderr = process.stderr.read()
        assert "shut down cleanly" in stderr
        assert _shm_entries() <= shm_before
        assert list((tmp_path / "cache").rglob("*.tmp")) == []

    def test_served_jobs_then_sigterm_leaves_resumable_state(
        self, serve_process, tmp_path
    ):
        process, client = serve_process
        shm_before = _shm_entries()
        spec_data = json.loads((REPO / "examples" / "experiment.json").read_text())
        first = client.submit(spec_data)
        client.wait(first["job_id"], timeout=60)

        # Race a fresh (uncached) spec against SIGTERM: whatever the timing,
        # the store must be left in a state the next server can finish from.
        variant = json.loads(json.dumps(spec_data))
        variant["campaign"]["trials"] = 97  # a distinct spec hash
        second = client.submit(variant)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        assert _shm_entries() <= shm_before
        assert list((tmp_path / "cache").rglob("*.tmp")) == []

        # The interrupted submission is either finished or recoverable --
        # never lost, never wedged in an active state.
        store = FileStore(tmp_path / "cache")
        revived = CampaignService(store, fleet_size=1)
        try:
            revived.queue.recover()
            job = revived.queue.get(second["job_id"])
            assert job is not None, "job record lost across shutdown"
            assert job.state in ("done", "queued")
            if job.state == "queued":  # drained out: a restart finishes it
                revived.scheduler.start()
                assert revived.queue.wait_settled(second["job_id"], timeout=30).state == "done"
            document, state = revived.job_result(second["job_id"])
            assert state == "done" and document["campaigns"]
        finally:
            revived.close(drain_timeout=10)

    def test_sigint_equals_sigterm(self, serve_process, tmp_path):
        process, _client = serve_process
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
        assert "shut down cleanly" in process.stderr.read()
