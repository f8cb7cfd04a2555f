"""campaign-suite: in-process fault campaigns on the numpy engine.

Set-up is a fresh process that imports ``repro``, hardens the 16-state
random FSM and ``ibex_lsu`` and runs one untimed warm-up op.  Each op is one
fixed suite of ``Session().run_campaign`` calls (see ``suite.SUITE``), so
compile, lower, plan, evaluate and classify do nearly all the work and
import does none.

The parent spawns the set-up process several times and reads one ``ready``
line from each; the last one goes on to run the timed loop and prints its
results as one JSON line.

    python campaign_suite.py '<json: seed, seconds, trace, loop, pins>'
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, Optional

from common import (
    SETUP_SAMPLES, BenchError, OpLog, Tracer, e2e_metrics, pinned_env, trace_report,
)
from suite import SUITE, build_structures, run_suite, suite_specs


def run(work: str, seed: int, seconds: float, trace: bool, pins: Dict) -> Dict:
    setup = []
    report = None
    err_path = os.path.join(work, "child-stderr.txt")
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        args = {"seed": seed, "seconds": seconds, "trace": trace, "loop": last, "pins": pins}
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), json.dumps(args)],
                env=pinned_env(), stdout=subprocess.PIPE, stderr=err, text=True,
            )
            ready = proc.stdout.readline().strip()
            setup.append(time.perf_counter() - start)
            rest = proc.stdout.read()
            proc.stdout.close()
            code = proc.wait()
        if ready != "ready" or code != 0:
            with open(err_path) as handle:
                raise BenchError(f"campaign-suite child failed ({code}): {handle.read()[-2000:]}")
        if last:
            report = json.loads(rest.strip().splitlines()[-1])
    log = OpLog(**report["log"])
    result = {
        "e2e": e2e_metrics(setup, log, report["injections"], report["rss_mb"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "ops": len(log.latencies),
    }
    if trace:
        result["trace"] = report["trace"]
    return result


def expected_counters(pins: Dict, seed: int, structures) -> Dict:
    """Pinned (scalar) counters, or for an unpinned seed the pinned
    seed-independent shapes plus the bignum engine's seed-dependent ones."""
    pinned = pins.get(str(seed))
    if pinned is not None:
        return pinned
    from repro.api import Session
    from suite import DEFAULT_SEED, counters

    seeded = {shape: flag for shape, _, _, flag in SUITE}
    expected = {}
    for shape, fsm_key, spec in suite_specs(seed, engine="parallel"):
        if seeded[shape]:
            expected[shape] = counters(Session().run_campaign(structures[fsm_key], spec))
        else:
            expected[shape] = pins[str(DEFAULT_SEED)][shape]
    return expected


def _loop(session, structures, specs, seconds: float, tracer: Optional[Tracer] = None) -> Dict:
    """Closed-loop suite ops; counters of every op are kept by identity."""
    log, injections, outputs = OpLog(), 0, []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not log.latencies:
        gc.collect()
        log.calibrate()
        start = time.perf_counter()
        try:
            out, inj = run_suite(session, structures, specs, tracer, len(log.latencies))
        except Exception as error:  # counted as a failed op
            print(f"op failed: {error!r}", file=sys.stderr)
            out, inj = None, 0
        log.latencies.append(time.perf_counter() - start)
        injections += inj
        outputs.append(json.dumps(out, sort_keys=True) if out is not None else None)
    log.calibrate()
    return {"log": log, "injections": injections, "outputs": outputs}


def child(args: Dict) -> int:
    from repro.api import Session

    structures = build_structures()
    specs = suite_specs(args["seed"])
    session = Session()
    run_suite(session, structures, specs)  # warm-up
    print("ready", flush=True)
    if not args["loop"]:
        return 0
    seconds = args["seconds"]
    if not args["trace"]:
        loops = [_loop(session, structures, specs, seconds)]
    else:
        loops = [_loop(session, structures, specs, seconds / 2)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None
    if args["trace"]:
        from layers import instrument

        tracer = Tracer()
        undo = instrument(tracer)
        try:
            loops.append(_loop(session, structures, specs, seconds / 2, tracer))
        finally:
            undo()
        trace = trace_report(loops[0]["log"], loops[1]["log"], tracer)
    want = json.dumps(expected_counters(args["pins"], args["seed"], structures), sort_keys=True)
    outputs = [out for loop in loops for out in loop["outputs"]]
    print(json.dumps({
        "log": loops[0]["log"].to_dict(),
        "injections": loops[0]["injections"],
        "attempted": len(outputs),
        "failed": sum(out != want for out in outputs),
        "rss_mb": rss_mb,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(child(json.loads(sys.argv[1])))
