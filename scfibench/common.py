"""Shared plumbing: paths, the pinned environment, statistics and spans."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import platform
import statistics
import subprocess
import time
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (store dirs, result files, spans), inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Every process of a run sees this, so numbers measure the program and not
#: hash randomisation or BLAS thread pools.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: How many times a run sets its workload up; setup_s is the median.
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The workload could not be set up; the run prints no result."""


def pinned_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU; returns its number.

    The calibration then always measures the CPU the op ran on: the two
    vCPUs of a shared host speed up and slow down independently.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


CALIBRATION_ITERATIONS = 250_000


def calibrate() -> float:
    """Seconds a fixed pure-Python task takes right now (~20 ms).

    Loops run it before every op and once after the last one.  A shared host
    runs in slow and fast phases that last seconds; dividing an op by the
    calibrations on either side of it divides the phase out.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class OpLog:
    """Op latencies of a loop and the calibrations around them."""

    def __init__(self, latencies: Sequence[float] = (), calibrations: Sequence[float] = ()):
        self.latencies: List[float] = list(latencies)
        self.calibrations: List[float] = list(calibrations)

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def summary(self) -> Dict[str, float]:
        """Median and p80 of op latency, raw and normalised.

        Op ``i`` is normalised by the mean of the calibrations before and
        after it.  p80 is the highest percentile that keeps ten samples
        beyond it at the ~60 ops the slowest workload completes in a run.
        """
        cal = self.calibrations
        norm = [op / ((cal[i] + cal[i + 1]) / 2) for i, op in enumerate(self.latencies)]
        return {
            "op_p50_s": median(self.latencies),
            "op_p80_s": percentile(self.latencies, 80),
            "op_p50_norm": median(norm),
            "op_p80_norm": percentile(norm, 80),
        }

    def to_dict(self) -> Dict[str, object]:
        return {"latencies": self.latencies, "calibrations": self.calibrations}


def src_digest() -> str:
    """SHA-256 over the program's sources (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment_record() -> Dict[str, object]:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "env": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` of a live process in MB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (Linux ``/proc`` children lists)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Tracer:
    """In-memory span recorder: (name, start, end, parent, op) per span.

    Spans nest by call order on one thread; ``op`` tags every span with the
    op that caused it.  Times are ``time.perf_counter()``, which is
    CLOCK_MONOTONIC on Linux and so comparable across processes.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        record.update(attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int], **attrs) -> int:
        """Record a finished span (e.g. one measured in another process)."""
        record = {"name": name, "start": start, "end": end, "parent": parent, "op": self.op}
        record.update(attrs)
        self.spans.append(record)
        return len(self.spans) - 1

    def wrap(self, fn: Callable, name: str, annotate: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``annotate(record, args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(record, args, result)
                return result

        return wrapper


def self_times(spans: Sequence[Dict[str, object]]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(index, ()), key=lambda c: spans[c]["start"]):
            start = max(spans[child]["start"], cursor)
            end = min(spans[child]["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out


def span_summary(spans: Sequence[Dict[str, object]], root: str) -> Dict[str, object]:
    """Per-op self time by span name, and how much of each op spans cover.

    ``coverage`` is the median over ops of 1 - (root self time / op wall
    time): the share of an op that named layer spans account for.
    """
    selfs = self_times(spans)
    per_name: Dict[str, float] = {}
    ops = 0
    coverage = []
    for span, own in zip(spans, selfs):
        per_name[span["name"]] = per_name.get(span["name"], 0.0) + own
        if span["name"] == root:
            ops += 1
            wall = span["end"] - span["start"]
            coverage.append(1.0 - own / wall if wall > 0 else 0.0)
    ops = max(ops, 1)
    return {
        "self_s_per_op": {name: total / ops for name, total in sorted(per_name.items())},
        "coverage": median(coverage) if coverage else 0.0,
    }


def e2e_metrics(setup: Sequence[float], log: OpLog, injections: int,
                rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric (plus raw latencies for the diagnostics)."""
    out = {"setup_s": median(setup)}
    out.update(log.summary())
    out["inj_per_s"] = injections / sum(log.latencies)
    out["peak_rss_mb"] = rss_mb
    return out


def trace_report(untraced: OpLog, traced: OpLog, tracer: Tracer) -> Dict[str, object]:
    """What a traced run reports about its own loop.

    ``overhead_frac`` compares the normalised median op latency of the
    traced half with the untraced half; see :func:`span_summary` for the
    rest.
    """
    norm = [log.summary()["op_p50_norm"] for log in (untraced, traced)]
    summary = span_summary(tracer.spans, "op")
    return {
        "overhead_frac": norm[1] / norm[0] - 1.0,
        "coverage": summary["coverage"],
        "self_s_per_op": summary["self_s_per_op"],
        "spans": tracer.spans,
    }
