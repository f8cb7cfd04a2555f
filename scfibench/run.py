"""SCFI reproduction benchmark: three workloads, checked outputs, named metrics.

    python3 scfibench/run.py --workload {cli-cold,campaign-suite,service-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` splits the run into an untraced and a traced half and
prints the per-layer metrics (see README.md).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it starting with ``#`` are diagnostics: the environment record,
op counts, fail_frac and the span self-time table of a traced run.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from common import (
    BENCH_DIR, PINNED_ENV, SRC, WORK_ROOT, BenchError, descendants, environment_record,
    pin_to_one_cpu,
)
from suite import DEFAULT_SEED, INPUTS

WORKLOADS = ("cli-cold", "campaign-suite", "service-mix")

#: Marks the measuring process that :func:`supervise` starts.
INNER_ENV = "SCFIBENCH_INNER"
#: How long descendants may outlive the measuring process before SIGKILL.
ORPHAN_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36

#: End-to-end metric -> unit, in BENCHMARK.json order.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_norm": "ratio",
    "op_p80_norm": "ratio",
    "peak_rss_mb": "MB",
}
#: Measured too, but printed as diagnostics: too noisy on a shared host to
#: gate on (see README.md).
RAW_DIAGNOSTICS = ("op_p50_s", "op_p80_s", "inj_per_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pins", default=os.path.join(INPUTS, "pins.json"),
        help="expected counters (the self-test passes a corrupted copy)",
    )
    return parser.parse_args(argv)


def become_subreaper() -> None:
    """Make orphaned descendants re-parent to this process (Linux prctl)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def supervise(argv) -> int:
    """Run the benchmark in a child and wait for every process it leaves.

    The child measures; this process is a child subreaper, so helpers that
    outlive their parent (multiprocessing resource trackers, fleet workers,
    a server) re-parent here and are reaped -- killed after
    ``ORPHAN_GRACE_S`` -- before the run ends, on every path out of it.
    """
    become_subreaper()
    env = dict(os.environ, **PINNED_ENV)
    env[INNER_ENV] = "1"
    inner = subprocess.Popen([sys.executable, os.path.abspath(__file__)] + list(argv), env=env)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda sig, _frame: inner.poll() is None and inner.send_signal(sig))
    code, deadline, killed = None, None, set()
    while True:
        try:
            pid, status = os.waitpid(-1, 0 if code is None else os.WNOHANG)
        except ChildProcessError:
            break
        if pid == inner.pid:
            code = inner.returncode = os.waitstatus_to_exitcode(status)
            deadline = time.monotonic() + ORPHAN_GRACE_S
        elif pid == 0:
            if time.monotonic() > deadline:
                for child in descendants(os.getpid()):
                    if child not in killed:
                        print(f"scfibench: killing leftover process {child}", file=sys.stderr)
                        killed.add(child)
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(child, signal.SIGKILL)
            time.sleep(0.01)
    return code


def run_workload(args, work: str) -> dict:
    with open(args.pins) as handle:
        pins = json.load(handle)
    if args.workload == "cli-cold":
        import cli_cold

        expected = pins["cli-cold"].get(str(args.seed), pins["cli-cold"][str(DEFAULT_SEED)])
        return cli_cold.run(work, args.seed, args.seconds, bool(args.trace), expected)
    if args.workload == "campaign-suite":
        import campaign_suite

        return campaign_suite.run(
            work, args.seed, args.seconds, bool(args.trace), pins["campaign-suite"]
        )
    import service_mix

    return service_mix.run(work, args.seed, args.seconds, bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"scfibench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(INNER_ENV) != "1":
        return supervise(sys.argv[1:] if argv is None else argv)
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    # Bytecode is compiled before anything is timed.
    for tree in (SRC, BENCH_DIR):
        if not compileall.compile_dir(tree, quiet=1):
            print(f"scfibench: cannot compile {tree}", file=sys.stderr)
            return 2

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = run_workload(args, work)
        layers = None
        if args.trace:
            from layers import probe_layers

            layers = probe_layers(work, args.seed)
    except BenchError as error:
        print(f"scfibench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# env " + json.dumps(environment_record(), sort_keys=True))
    fail_frac = result["failed"] / result["attempted"]
    print(f"# {args.workload} seed={args.seed} ops={result['ops']} "
          f"attempted={result['attempted']} failed={result['failed']} fail_frac={fail_frac:.4g}")
    detail = {key: result["e2e"][key] for key in RAW_DIAGNOSTICS}
    detail.update(result.get("detail", {}))
    for key, value in detail.items():
        print(f"# {key} = {value:.6g}")
    if args.trace:
        metrics = _per_layer_metrics(args, result, layers)
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _per_layer_metrics(args, result: dict, layers: dict) -> dict:
    from layers import per_layer_units

    trace = result["trace"]
    spans_dir = os.path.join(WORK_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w") as handle:
        json.dump(trace["spans"], handle)
    print(f"# spans written to {os.path.relpath(spans_path)}")
    print("# self time per op by span (s):")
    for name, seconds in sorted(trace["self_s_per_op"].items(), key=lambda kv: -kv[1]):
        print(f"#   {name:28s} {seconds:.6f}")
    values = dict(layers)
    values["trace.overhead_frac"] = trace["overhead_frac"]
    values["trace.coverage"] = trace["coverage"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


if __name__ == "__main__":
    sys.exit(main())
