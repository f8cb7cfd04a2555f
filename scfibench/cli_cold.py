"""cli-cold: each op is a fresh ``python -m repro.cli.main run <spec> --quiet``.

Import dominates a cold run, so this is where cold-start and hardening work
shows; the fault engine does almost nothing here.  A traced op runs the same
command line through ``trace_cli.py``, which records spans inside the child.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional

from common import (
    BENCH_DIR, SETUP_SAMPLES, BenchError, OpLog, Tracer, e2e_metrics, median, pinned_env,
    trace_report,
)
from suite import cli_cold_spec, counters


class Op(NamedTuple):
    ok: Optional[bool]  # None: the process failed; False: wrong counters
    latency: float
    injections: int
    rss_mb: float  # the child's ru_maxrss


class CliCold:
    def __init__(self, work: str, seed: int, expected: Dict) -> None:
        self.work = work
        self.seed = seed
        self.expected = expected
        self.env = pinned_env()
        self.spec_path = os.path.join(work, "spec.json")
        self.out_path = os.path.join(work, "result.json")
        self.err_path = os.path.join(work, "stderr.txt")
        self.spans_path = os.path.join(work, "child-spans.json")

    def setup(self) -> List[float]:
        """Write the spec and run one untimed op, several times."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            with open(self.spec_path, "w") as handle:
                json.dump(cli_cold_spec(self.seed), handle)
            # A wrong counter is counted by the timed ops; a crash ends the run.
            if self.op().ok is None:
                with open(self.err_path) as handle:
                    raise BenchError(f"warm-up scfi run failed: {handle.read()[-2000:]}")
            samples.append(time.perf_counter() - start)
        return samples

    def op(self, traced: bool = False) -> Op:
        """One cold ``scfi run`` (through trace_cli.py when ``traced``)."""
        for path in (self.out_path, self.spans_path):
            if os.path.exists(path):
                os.unlink(path)
        args = ["run", self.spec_path, "--quiet", "--out", self.out_path]
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "trace_cli.py"), self.spans_path]
        else:
            cmd = [sys.executable, "-m", "repro.cli.main"]
        with open(self.err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + args, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            with open(self.out_path) as handle:
                got = counters(json.load(handle)["campaigns"])
        except (OSError, ValueError, KeyError, TypeError):
            return Op(None, latency, 0, rss_mb)
        injections = sum(c["total_injections"] for c in got.values())
        return Op(got == self.expected, latency, injections, rss_mb)

    def loop(self, seconds: float, tracer: Optional[Tracer] = None) -> Dict:
        log, rss, injections, failed = OpLog(), [], 0, 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not log.latencies:
            gc.collect()
            log.calibrate()
            if tracer is None:
                op = self.op()
            else:
                op = self._traced_op(tracer, len(log.latencies))
            log.latencies.append(op.latency)
            rss.append(op.rss_mb)
            injections += op.injections
            failed += op.ok is not True
        log.calibrate()
        return {"log": log, "rss": rss, "injections": injections, "failed": failed}

    def _traced_op(self, tracer: Tracer, index: int) -> Op:
        """Run one traced op and graft the child's spans under an op span."""
        tracer.op = index
        root_index = len(tracer.spans)
        with tracer.span("op") as root:
            op = self.op(traced=True)
        try:
            with open(self.spans_path) as handle:
                child = json.load(handle)
        except (OSError, ValueError):
            return op._replace(ok=None)
        # Interpreter start-up and exit happen outside the child's recorder.
        tracer.add("cli.interpreter_start", root["start"], child["t0"], root_index)
        base = len(tracer.spans)
        for span in child["spans"]:
            parent = span["parent"]
            span = dict(span, op=index)
            span["parent"] = root_index if parent is None else base + parent
            tracer.spans.append(span)
        tracer.add("cli.interpreter_exit", child["t1"], root["end"], root_index)
        return op


def run(work: str, seed: int, seconds: float, trace: bool, expected: Dict) -> Dict:
    bench = CliCold(work, seed, expected)
    setup = bench.setup()
    loops = [bench.loop(seconds / 2 if trace else seconds)]
    if trace:
        tracer = Tracer()
        loops.append(bench.loop(seconds / 2, tracer))
    first = loops[0]
    result = {
        "e2e": e2e_metrics(setup, first["log"], first["injections"], median(first["rss"])),
        "attempted": sum(len(loop["log"].latencies) for loop in loops),
        "failed": sum(loop["failed"] for loop in loops),
        "ops": len(first["log"].latencies),
    }
    if trace:
        result["trace"] = trace_report(first["log"], loops[1]["log"], tracer)
    return result
