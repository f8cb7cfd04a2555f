"""Per-layer view of the program, timed from outside.

:func:`instrument` wraps public functions of ``repro.api``, ``repro.core``
and ``repro.fi`` in spans for a traced run, and undoes it afterwards; the
program itself is not changed.  :func:`probe_layers` measures every
per-layer metric of ``BENCHMARK.json`` by calling each layer directly: the
same probes run after every workload's traced loop, so each traced run
prints the full set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Callable, Dict, List

from common import Tracer, median, pinned_env, self_times
from suite import SUITE, build_structures, cli_cold_spec, run_suite, service_compute_spec, suite_specs

#: Repeats per in-process probe; the probe reports the median.
REPEATS = 5

#: Heavy dependencies whose import cold start pays for.
HEAVY_DEPS = ("numpy", "networkx", "multiprocessing", "http.server")

_IMPORT_PROBE = (
    "import sys, time, json\n"
    "t = time.perf_counter()\n"
    "import repro.cli.main\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'s': t, 'modules': len(sys.modules),"
    " 'heavy': sum(m in sys.modules for m in %r)}))\n" % (HEAVY_DEPS,)
)


def _note_lower(record, args, result) -> None:
    record["jobs"] = int(result.num_jobs)


def _note_plan(record, args, result) -> None:
    record["batches"] = len(result.batches)
    record["lanes"] = int(args[0].lane_width)


def _note_run(record, args, result) -> None:
    record["injections"] = int(result.total_injections)
    record["dispatch"] = args[0].last_dispatch


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points in spans; returns the undo function."""
    import repro.api.session as session_mod
    import repro.core.scfi as scfi_mod
    from repro.api.spec import FsmSpec
    from repro.core.hardened import HardenedFsm
    from repro.fi.executor import FaultCampaign

    plain = [
        (session_mod.Session, "run", "api.session_run", None),
        (session_mod.Session, "harden", "api.harden", None),
        (session_mod.Session, "run_campaign", "api.run_campaign", None),
        (session_mod.ExperimentResult, "to_dict", "api.to_dict", None),
        (FsmSpec, "resolve", "api.resolve", None),
        (session_mod, "protect_fsm", "core.protect_fsm", None),
        (scfi_mod, "build_scfi_netlist", "core.netlist_build", None),
        (session_mod, "build_scenarios", "fi.build_scenarios", None),
        (session_mod, "make_executor", "fi.executor_init", None),
        (FaultCampaign, "run", "fi.run", _note_run),
        (FaultCampaign, "lower_scenario", "fi.lower", _note_lower),
        (FaultCampaign, "plan_jobs", "fi.plan", _note_plan),
    ]
    saved = []
    for owner, attr, name, annotate in plain:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, annotate))

    from_fsm = HardenedFsm.__dict__["from_fsm"]
    saved.append((HardenedFsm, "from_fsm", from_fsm))
    HardenedFsm.from_fsm = classmethod(tracer.wrap(from_fsm.__func__, "core.hardened_fsm"))

    compiled = FaultCampaign.__dict__["compiled"]
    saved.append((FaultCampaign, "compiled", compiled))

    def timed_compiled(self):
        # Only the first access compiles; later ones return the cached form.
        if getattr(self, "_compiled", None) is None:
            with tracer.span("netlist.compile"):
                return compiled.fget(self)
        return compiled.fget(self)

    FaultCampaign.compiled = property(timed_compiled)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def fi_layer_metrics(spans) -> Dict[str, float]:
    """Per-shape lower/plan/execute self time (median per op) and the exact
    work counts of one suite op, from spans under ``suite.<shape>`` spans."""
    selfs = self_times(spans)
    shape_of: List[object] = []
    for span in spans:
        parent = span["parent"]
        shape = span["name"][6:] if span["name"].startswith("suite.") else None
        shape_of.append(shape if shape else (shape_of[parent] if parent is not None else None))
    per_op: Dict[object, Dict[str, float]] = {}
    counts: Dict[object, Dict[str, float]] = {}
    layer = {"fi.lower": "fi.lower_s", "fi.plan": "fi.plan_s", "fi.run": "fi.execute_s"}
    for span, own, shape in zip(spans, selfs, shape_of):
        if shape is None or span["name"] not in layer:
            continue
        times = per_op.setdefault(span["op"], {})
        key = f"{layer[span['name']]}.{shape}"
        times[key] = times.get(key, 0.0) + own
        tally = counts.setdefault(span["op"], {
            "jobs": 0, "injections": 0, "batches": 0, "lanes": 0, "spec_stream": 0,
        })
        tally["jobs"] += span.get("jobs", 0)
        tally["injections"] += span.get("injections", 0)
        tally["batches"] += span.get("batches", 0)
        tally["lanes"] += span.get("batches", 0) * span.get("lanes", 0)
        tally["spec_stream"] += span.get("dispatch") == "spec-stream"
    out = {}
    for key in sorted({k for times in per_op.values() for k in times}):
        out[key] = median([times.get(key, 0.0) for times in per_op.values()])
    first = counts[min(counts, key=lambda op: (op is None, op))]
    out.update({
        "fi.jobs": first["jobs"],
        "fi.injections": first["injections"],
        "fi.batches": first["batches"],
        "fi.lane_fill": first["injections"] / first["lanes"] if first["lanes"] else 0.0,
        "fi.spec_stream_runs": first["spec_stream"],
    })
    return out


def _median_time(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


def probe_cli_import() -> Dict[str, float]:
    """``import repro.cli.main`` in fresh interpreters (median time)."""
    samples = []
    for _ in range(REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=pinned_env(), capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return {
        "cli.import_s": median([s["s"] for s in samples]),
        "cli.modules_loaded": samples[-1]["modules"],
        "cli.heavy_deps_loaded": samples[-1]["heavy"],
    }


def probe_api_core_netlist(seed: int) -> Dict[str, float]:
    from repro.api import ExperimentSpec, FsmSpec, ProtectSpec, Session
    from repro.core.hardened import HardenedFsm
    from repro.core.scfi import protect_fsm
    from repro.core.structure import build_scfi_netlist
    from repro.fsm.random_fsm import random_fsm
    from repro.fsmlib.registry import get_fsm
    from repro.netlist.parallel import CompiledNetlist
    from repro.netlist.parallel_np import NumpyCompiledNetlist
    from suite import RANDOM_FSM_SEED, RANDOM_FSM_STATES

    out: Dict[str, float] = {}
    cli_spec = ExperimentSpec.from_dict(cli_cold_spec(seed))
    service_doc = service_compute_spec(seed, 0)
    out["api.resolve_s"] = _median_time(cli_spec.fsm.resolve)

    def spec_hash() -> None:
        spec = ExperimentSpec.from_dict(service_doc)
        spec.content_hash()
        spec.stage_hashes()

    out["api.spec_hash_s"] = _median_time(spec_hash, 50)
    out["api.session_run_s"] = _median_time(lambda: Session().run(cli_spec))

    protect = ProtectSpec()
    options = protect.to_options()
    fsms = {
        "traffic_light": FsmSpec(name="traffic_light").resolve(),
        "ibex_lsu": get_fsm("ibex_lsu"),
        "random16": random_fsm(RANDOM_FSM_SEED, num_states=RANDOM_FSM_STATES),
    }
    netlists = {}
    for name, fsm in fsms.items():
        out[f"core.harden_s.{name}"] = _median_time(lambda: protect_fsm(fsm, options))
        hardened = HardenedFsm.from_fsm(
            fsm, protection_level=protect.protection_level, error_bits=protect.error_bits
        )
        out[f"core.hardened_fsm_s.{name}"] = _median_time(lambda: HardenedFsm.from_fsm(
            fsm, protection_level=protect.protection_level, error_bits=protect.error_bits
        ))
        build = lambda: build_scfi_netlist(  # noqa: E731
            hardened, share_xors=protect.share_xors, repair_diffusion=protect.repair_diffusion
        )
        out[f"core.netlist_build_s.{name}"] = _median_time(build)
        netlists[name] = build().netlist
        out[f"core.gates.{name}"] = len(netlists[name].gates)
    out["netlist.compile_s.numpy"] = _median_time(
        lambda: NumpyCompiledNetlist(netlists["random16"]))
    out["netlist.compile_s.bignum"] = _median_time(
        lambda: CompiledNetlist(netlists["ibex_lsu"]))
    return out


def probe_fi(seed: int, passes: int = 3) -> Dict[str, float]:
    """Traced passes of the campaign suite (the campaign-suite op)."""
    from repro.api import Session

    structures = build_structures()
    specs = suite_specs(seed)
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        for op in range(passes):
            run_suite(Session(), structures, specs, tracer, op)
    finally:
        undo()
    return fi_layer_metrics(tracer.spans)


def probe_store(work: str, seed: int) -> Dict[str, float]:
    """FileStore save/load of a real harden pickle, campaign and report JSON."""
    from repro.api import ExperimentSpec, Session
    from repro.store import CODEC_JSON, CODEC_PICKLE, FileStore
    from repro.synth.serialize import deserialize_scfi_result, serialize_scfi_result

    spec = ExperimentSpec.from_dict(service_compute_spec(seed, 0))
    result = Session().run(spec, engine="parallel-numpy")
    keys = spec.stage_hashes()
    harden = serialize_scfi_result(result.scfi)
    artifacts = [
        ("harden", keys["harden"], harden, CODEC_PICKLE),
        ("campaign", keys["campaign"], json.dumps(
            {"results": {n: r.to_dict() for n, r in result.campaigns.items()}},
            sort_keys=True).encode(), CODEC_JSON),
        ("report", keys["report"], json.dumps(result.to_dict(), sort_keys=True).encode(),
         CODEC_JSON),
    ]
    store = FileStore(os.path.join(work, "store-probe"))

    def save_all() -> None:
        for stage, key, payload, codec in artifacts:
            store.save(stage, key, payload, codec)

    def load_all() -> None:
        for stage, key, _, _ in artifacts:
            if store.load(stage, key) is None:
                raise RuntimeError(f"store lost the {stage} artifact")

    return {
        "store.save_s": _median_time(save_all),
        "store.load_s": _median_time(load_all),
        "store.bytes": sum(len(payload) for _, _, payload, _ in artifacts),
        "synth.deserialize_s": _median_time(lambda: deserialize_scfi_result(harden)),
    }


def probe_layers(work: str, seed: int) -> Dict[str, float]:
    """Every per-layer metric except the trace.* ones of the workload loop."""
    from service_mix import probe_service

    out: Dict[str, float] = {}
    out.update(probe_cli_import())
    out.update(probe_api_core_netlist(seed))
    out.update(probe_fi(seed))
    out.update(probe_store(work, seed))
    out.update(probe_service(work, seed))
    return out


#: Per-layer metric -> unit, in BENCHMARK.json order.
def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {
        "cli.import_s": "s", "cli.modules_loaded": "count", "cli.heavy_deps_loaded": "count",
        "api.resolve_s": "s", "api.spec_hash_s": "s", "api.session_run_s": "s",
    }
    for name in ("traffic_light", "ibex_lsu", "random16"):
        units[f"core.harden_s.{name}"] = "s"
        units[f"core.hardened_fsm_s.{name}"] = "s"
        units[f"core.netlist_build_s.{name}"] = "s"
        units[f"core.gates.{name}"] = "count"
    units["netlist.compile_s.numpy"] = "s"
    units["netlist.compile_s.bignum"] = "s"
    for stage in ("lower", "plan", "execute"):
        for shape, _, _, _ in SUITE:
            units[f"fi.{stage}_s.{shape}"] = "s"
    units.update({
        "fi.jobs": "count", "fi.injections": "count", "fi.batches": "count",
        "fi.lane_fill": "ratio", "fi.spec_stream_runs": "count",
        "store.save_s": "s", "store.load_s": "s", "store.bytes": "bytes",
        "synth.deserialize_s": "s",
        "service.http_rtt_s": "s", "service.queue_wait_s": "s", "service.job_run_s": "s",
        "service.hit_p50_s": "s", "service.compute_p50_s": "s",
        "service.tasks_per_job": "count", "service.store_writes_per_job": "count",
        "service.hit_ratio": "ratio",
        "trace.overhead_frac": "ratio", "trace.coverage": "ratio",
    })
    return units
