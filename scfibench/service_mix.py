"""service-mix: ``scfi serve`` answering a fixed compute/hit cycle.

Set-up starts ``python -m repro.cli.main serve`` on a fresh store and an
ephemeral port and waits for one warm-up computation.  Each op is one cycle
of four submissions from one closed-loop client: one *compute* (a random
3-fault spec on ibex_lsu whose campaign seed is new to the run) and three
*hits* (re-submissions of specs computed earlier, picked by the seeded RNG).
A submission's latency runs from the ``POST /jobs`` send until
``GET /jobs/<id>/result`` returns 200.
"""

from __future__ import annotations

import contextlib
import gc
import glob
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    SETUP_SAMPLES, BenchError, OpLog, Tracer, alive, descendants, e2e_metrics, median,
    peak_rss_mb_of, pinned_env, trace_report,
)
from suite import counters, service_compute_spec

#: Poll interval for in-flight jobs, well under the ~3 ms hit latency.
POLL_S = 0.001
#: How long fleet processes may take to exit after the server has.
EXIT_GRACE_S = 5.0
HITS_PER_CYCLE = 3
#: ``--fleet 1``: a run is pinned to one CPU, where a second worker only
#: time-slices with the first and makes op latency follow the scheduler.
FLEET_SIZE = 1
SHM_DIR = "/dev/shm"


def _shm_entries() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class Server:
    """One ``scfi serve`` process over a fresh store directory."""

    def __init__(self, work: str, name: str) -> None:
        self.store = os.path.join(work, name)
        shutil.rmtree(self.store, ignore_errors=True)
        self.err_path = os.path.join(work, f"{name}.stderr")
        self.shm_before = _shm_entries()
        self.pids: List[int] = []
        self._err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve", "--cache-dir", self.store,
             "--port", "0", "--fleet", str(FLEET_SIZE)],
            env=pinned_env(), stdout=subprocess.PIPE, stderr=self._err, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.stop()
            raise BenchError(f"scfi serve did not start: {self.stderr_tail()}")
        from repro.service import ServiceClient

        self.client = ServiceClient(line[1])

    def stderr_tail(self) -> str:
        with open(self.err_path) as handle:
            return handle.read()[-2000:]

    def peak_rss_mb(self) -> float:
        """Server plus fleet ``VmHWM``; also remembers the fleet's pids."""
        self.pids = descendants(self.proc.pid)
        return sum(peak_rss_mb_of(pid) for pid in [self.proc.pid] + self.pids)

    def stop(self) -> List[str]:
        """SIGTERM, then every leak check; returns the problems found."""
        if not self.pids and self.proc.poll() is None:
            self.pids = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        problems = []
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            problems.append("server ignored SIGTERM")
        self.proc.stdout.close()
        self._err.close()
        if code != 0:
            problems.append(f"server exit code {code}")
        if "shut down cleanly" not in self.stderr_tail():
            problems.append("no 'shut down cleanly' line")
        # Helpers such as multiprocessing's resource tracker exit when they
        # notice the server is gone, so give them a moment.
        deadline = time.perf_counter() + EXIT_GRACE_S
        while any(alive(pid) for pid in self.pids) and time.perf_counter() < deadline:
            time.sleep(0.01)
        for pid in self.pids:
            if alive(pid):
                problems.append(f"fleet process {pid} outlived the server")
                os.kill(pid, signal.SIGKILL)
        leaked = _shm_entries() - self.shm_before
        if leaked:
            problems.append(f"new /dev/shm segments: {sorted(leaked)}")
        tmp = glob.glob(os.path.join(self.store, "**", "*.tmp"), recursive=True)
        if tmp:
            problems.append(f"{len(tmp)} *.tmp files left in the store")
        return problems


def submit_and_wait(client, spec: Dict, tracer: Optional[Tracer] = None,
                    states: Optional[Dict[str, float]] = None) -> Tuple[float, Dict, str]:
    """``(latency_s, served document, submit status)`` of one submission.

    With ``states``, in-flight polls read ``GET /jobs/<id>`` and record when
    each job state was first seen (for queue-wait and run-time probes).
    """
    from repro.service import ServiceError

    def call(name, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.span(name):
            return fn(*args)

    start = time.perf_counter()
    reply = call("http.post", client.submit, spec)
    job_id = reply["job_id"]
    while True:
        if states is not None:
            state = call("http.status", client.status, job_id)["state"]
            states.setdefault(state, time.perf_counter() - start)
            if state not in ("done", "failed"):
                time.sleep(POLL_S)
                continue
        try:
            doc = call("http.result", client.result, job_id)
            break
        except ServiceError as error:
            if error.status != 409:
                raise
        time.sleep(POLL_S)
    return time.perf_counter() - start, doc, reply["status"]


class ServiceMix:
    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.rng = random.Random(f"{seed}:service-mix")
        self.next_index = 0
        #: (spec document, first served document) per computed spec.
        self.computed: List[Tuple[Dict, Dict]] = []
        self.failed = 0
        self.attempted = 0

    def setup(self) -> Tuple[List[float], Server]:
        samples = []
        server = None
        for sample in range(SETUP_SAMPLES):
            if server is not None:
                self._count_problems(server.stop())
            start = time.perf_counter()
            server = Server(self.work, f"store-{sample}")
            try:
                submit_and_wait(server.client, service_compute_spec(self.seed, -1 - sample))
            except Exception as error:
                server.stop()
                raise BenchError(f"warm-up computation failed: {error!r}") from error
            samples.append(time.perf_counter() - start)
        return samples, server

    def _count_problems(self, problems: List[str]) -> None:
        for problem in problems:
            print(f"# service-mix: {problem}", file=sys.stderr)
        self.failed += len(problems)
        self.attempted += len(problems)

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# service-mix: wrong {what}", file=sys.stderr)

    def cycle(self, client, tracer: Optional[Tracer]) -> Tuple[float, float, List[float], int]:
        """One op: ``(cycle_s, compute_s, [hit_s...], injections computed)``."""
        start = time.perf_counter()
        spec = service_compute_spec(self.seed, self.next_index)
        self.next_index += 1
        with (tracer.span("service.compute") if tracer else contextlib.nullcontext()):
            compute_s, doc, status = submit_and_wait(client, spec, tracer)
        self._check(status == "queued" and doc["service"]["result_tier"] == "computed",
                    "compute provenance")
        self.computed.append((spec, doc))
        injections = sum(c["total_injections"] for c in counters(doc["campaigns"]).values())
        hits = []
        for _ in range(HITS_PER_CYCLE):
            spec, first = self.computed[self.rng.randrange(len(self.computed))]
            with (tracer.span("service.hit") if tracer else contextlib.nullcontext()):
                hit_s, doc, status = submit_and_wait(client, spec, tracer)
            self._check(
                status == "cached" and doc["service"]["result_tier"] == "hit"
                and doc["spec_hash"] == first["spec_hash"]
                and doc["campaigns"] == first["campaigns"], "hit document")
            hits.append(hit_s)
        return time.perf_counter() - start, compute_s, hits, injections

    def loop(self, server: Server, seconds: float, tracer: Optional[Tracer] = None) -> Dict:
        stats = {"log": OpLog(), "compute": [], "hits": [], "injections": 0}
        log = stats["log"]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            gc.collect()
            log.calibrate()
            if tracer is not None:
                tracer.op = len(log.latencies)
            with (tracer.span("op") if tracer else contextlib.nullcontext()):
                try:
                    cycle_s, compute_s, hits, inj = self.cycle(server.client, tracer)
                except Exception as error:  # counted as a failed op
                    self._check(False, f"cycle ({error!r})")
                    log.calibrations.pop()
                    continue
            log.latencies.append(cycle_s)
            stats["compute"].append(compute_s)
            stats["hits"].extend(hits)
            stats["injections"] += inj
        log.calibrate()
        if not log.latencies:
            raise BenchError("no service-mix cycle completed")
        return stats

    def verify_computed(self) -> None:
        """Re-run every computed spec in-process and compare the counters.

        The re-run overrides the engine with numpy, so it is an independent
        evaluation of the same spec (counters are engine independent).
        """
        from repro.api import ExperimentSpec, Session
        from repro.store import MemoryStore

        session = Session(store=MemoryStore())
        for spec, doc in self.computed:
            parsed = ExperimentSpec.from_dict(spec)
            result = session.run(parsed, engine="parallel-numpy")
            self._check(
                doc["spec_hash"] == parsed.content_hash()
                and counters(doc["campaigns"]) == counters(result.campaigns),
                "computed counters")


def run(work: str, seed: int, seconds: float, trace: bool) -> Dict:
    bench = ServiceMix(work, seed)
    setup, server = bench.setup()
    try:
        failed_before = server.client.health()["jobs_failed"]
        loops = [bench.loop(server, seconds / 2 if trace else seconds)]
        tracer = None
        if trace:
            tracer = Tracer()
            loops.append(bench.loop(server, seconds / 2, tracer))
        failed_jobs = server.client.health()["jobs_failed"] - failed_before
        rss_mb = server.peak_rss_mb()
    finally:
        bench._count_problems(server.stop())
    bench._count_problems([f"{failed_jobs} failed jobs"] if failed_jobs else [])
    bench.verify_computed()
    first = loops[0]
    log = first["log"]
    result = {
        "e2e": e2e_metrics(setup, log, first["injections"], rss_mb),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "ops": len(log.latencies),
        "detail": {
            "hit_p50_s": median(first["hits"]),
            "compute_p50_s": median(first["compute"]),
            "submissions_per_s": len(log.latencies) * (1 + HITS_PER_CYCLE)
            / sum(log.latencies),
        },
    }
    if trace:
        result["trace"] = trace_report(log, loops[1]["log"], tracer)
    return result


def probe_service(work: str, seed: int, cycles: int = 6) -> Dict[str, float]:
    """service.* per-layer metrics from a short run against a fresh server."""
    bench = ServiceMix(work, seed)
    bench.next_index = 1 << 20  # specs no workload loop submits
    server = Server(work, "store-probe")
    try:
        client = server.client
        submit_and_wait(client, service_compute_spec(seed, -1))
        rtt = []
        for _ in range(30):
            start = time.perf_counter()
            client.health()
            rtt.append(time.perf_counter() - start)
        before = client.health()
        queue_wait, job_run, compute, hits = [], [], [], []
        for _ in range(cycles):
            spec = service_compute_spec(seed, bench.next_index)
            bench.next_index += 1
            states: Dict[str, float] = {}
            latency, doc, _ = submit_and_wait(client, spec, states=states)
            compute.append(latency)
            started = min(t for state, t in states.items() if state != "queued")
            queue_wait.append(started)
            job_run.append(states.get("done", latency) - started)
            bench.computed.append((spec, doc))
            for _ in range(HITS_PER_CYCLE):
                spec, _ = bench.computed[bench.rng.randrange(len(bench.computed))]
                hits.append(submit_and_wait(client, spec)[0])
        after = client.health()
    finally:
        problems = server.stop()
    if problems:
        raise BenchError(f"service probe: {problems}")
    tier_hits = after["result_tier"]["hits"] - before["result_tier"]["hits"]
    tier_misses = after["result_tier"]["misses"] - before["result_tier"]["misses"]
    tasks = after["fleet"]["tasks_dispatched"] - before["fleet"]["tasks_dispatched"]
    return {
        "service.http_rtt_s": median(rtt),
        "service.queue_wait_s": median(queue_wait),
        "service.job_run_s": median(job_run),
        "service.hit_p50_s": median(hits),
        "service.compute_p50_s": median(compute),
        "service.tasks_per_job": tasks / cycles,
        "service.store_writes_per_job": _store_writes_per_job(work, seed),
        "service.hit_ratio": tier_hits / (tier_hits + tier_misses),
    }


def _store_writes_per_job(work: str, seed: int) -> int:
    """Store saves of one computed job, on an in-process service."""
    from repro.service import CampaignService
    from repro.store import FileStore

    class CountingStore(FileStore):
        saves = 0

        def save(self, *args, **kwargs):
            CountingStore.saves += 1
            return super().save(*args, **kwargs)

    service = CampaignService(CountingStore(os.path.join(work, "store-writes")), fleet_size=1)
    service.start()
    try:
        before = CountingStore.saves
        job, _ = service.submit(service_compute_spec(seed, (1 << 20) - 1))
        deadline = time.perf_counter() + 60
        while service.job_result(job.job_id)[0] is None:
            if time.perf_counter() > deadline:
                raise BenchError("in-process service job did not finish")
            time.sleep(POLL_S)
        return CountingStore.saves - before
    finally:
        service.close()
