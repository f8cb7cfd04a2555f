"""Benchmark: bit-parallel vs scalar exhaustive campaigns.

Enforced floors:

* the Section 6.4 exhaustive single-fault campaign over the **full
  combinational cloud** of the SCFI-protected ``ibex_lsu_fsm`` must run at
  least 10x faster on the bit-parallel engine than on the scalar
  one-injection-at-a-time oracle;
* the FT1 region sweep -- the **few nets x many transitions** shape -- must
  run at least 2x faster with context-batched lane packing than with
  one-context-per-pass batching on the bignum ``parallel`` engine, with
  classification counters identical to the scalar oracle on every engine;
* the process-sharded executor (``workers=4``) must run the all-effects
  comb-cloud campaign on the bignum engine faster than single-process, with
  bit-identical counters.  The floor scales with
  the CPUs a pool can actually use -- ``BENCH_MIN_WORKERS_SPEEDUP *
  min(4, usable CPUs) / 4`` -- and the timing assertion is skipped on
  machines with fewer than two usable CPUs, where a process pool cannot beat
  single-process; the counter equality always runs; and
* the word-sliced numpy engine must run a wide (>= 1024-lane) all-effects
  comb-cloud campaign at least 3x faster than the bignum ``parallel``
  engine, again with bit-identical counters always asserted and the timing
  floor skipped on single-core runners.

A further case tracks temporal campaigns: a 4-cycle persistent stuck-at sweep
must cost at most ``BENCH_MAX_CYCLE_OVERHEAD`` times the
1-cycle sweep (ideal 4.0x -- four evaluates per trace).

The ``sampled_lowering`` case records two layers of a warm campaign with no
floor: lowering a 3000-trial random 3-fault campaign (the block decoder
against the per-trial ``random.Random`` loop kept here as the reference, with
the IR asserted equal) and classifying the all-effects comb sweep.

Shared CI runners are noisy, so every floor can be overridden per run via
environment variables (``BENCH_MIN_SPEEDUP``,
``BENCH_MIN_CONTEXT_PACKING_SPEEDUP``, ``BENCH_MIN_WORKERS_SPEEDUP``,
``BENCH_MIN_NUMPY_SPEEDUP``, ``BENCH_MAX_CYCLE_OVERHEAD``); the defaults
below are the enforced values and CI pins them explicitly.

The numpy and temporal benchmarks additionally emit a machine-readable
``BENCH_parallel.json`` (per-case wall times and speedups, merged by case
name; path overridable via ``BENCH_PARALLEL_JSON``) so the perf trajectory
is tracked across PRs.
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np

import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.model import FaultEffect
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import (
    EFFECT_MODES,
    ExhaustiveSingleFault,
    JobArrays,
    RandomMultiFault,
    region_sweep_scenarios,
    scfi_fault_regions,
)
from repro.fsmlib.opentitan import ibex_lsu_fsm


def _env_floor(name: str, default: float) -> float:
    """A speedup floor, overridable per run for loaded shared runners.

    Empty values (easy to produce with YAML templating) fall back to the
    default; malformed values fail naming the offending variable.
    """
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"environment override {name}={text!r} is not a number")


#: Required tentpole speedup on the full comb cloud (acceptance criterion).
MIN_SPEEDUP = _env_floor("BENCH_MIN_SPEEDUP", 10.0)

#: Required speedup of context-batched over per-context lane packing on the
#: few-nets/many-transitions FT1 sweep (ISSUE 3 acceptance criterion).
MIN_CONTEXT_PACKING_SPEEDUP = _env_floor("BENCH_MIN_CONTEXT_PACKING_SPEEDUP", 2.0)

#: Required speedup of workers=4 over single-process on the all-effects
#: comb-cloud campaign when four CPUs are usable; fewer CPUs scale it down
#: proportionally.
MIN_WORKERS_SPEEDUP = _env_floor("BENCH_MIN_WORKERS_SPEEDUP", 2.0)

#: Required speedup of the word-sliced numpy engine over the bignum engine
#: on a wide (>= 1024-lane) campaign (ISSUE 6 acceptance criterion).
MIN_NUMPY_SPEEDUP = _env_floor("BENCH_MIN_NUMPY_SPEEDUP", 3.0)

#: Ceiling on the per-trace cost ratio of a 4-cycle temporal campaign over
#: the 1-cycle campaign (ideal = 4.0: four evaluates per trace; the floor
#: leaves headroom for the per-cycle feedback bookkeeping on noisy runners).
MAX_CYCLE_OVERHEAD = _env_floor("BENCH_MAX_CYCLE_OVERHEAD", 8.0)

#: Worker processes of the sharded benchmark case.
BENCH_WORKERS = 4

#: Machine-readable per-case timing records emitted by the benchmarks.
BENCH_JSON_PATH = os.environ.get("BENCH_PARALLEL_JSON", "").strip() or "BENCH_parallel.json"


def _write_bench_record(case: str, record: dict) -> None:
    """Merge one case's record into ``BENCH_parallel.json``.

    Records are keyed by case name so the temporal and wide-campaign cases
    can both land in the same artifact without clobbering each other,
    whichever subset of benchmarks a run selects.
    """
    data: dict = {}
    if os.path.exists(BENCH_JSON_PATH):
        try:
            with open(BENCH_JSON_PATH) as handle:
                existing = json.load(handle)
            if isinstance(existing, dict):
                # Legacy single-record files carried their case name inline.
                data = existing if "case" not in existing else {existing["case"]: existing}
        except (OSError, ValueError):
            data = {}
    data[case] = dict(record, case=case)
    with open(BENCH_JSON_PATH, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def ibex_structure():
    return protect_fsm(
        ibex_lsu_fsm(), ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure


def test_bench_parallel_vs_scalar_comb_cloud(benchmark, once, ibex_structure):
    # Scalar oracle first (timed manually -- pytest-benchmark owns the
    # parallel run so the stored benchmark series tracks the fast path).
    start = time.perf_counter()
    scalar = FaultCampaign(ibex_structure, engine="scalar").run(
        ExhaustiveSingleFault(target_nets="comb")
    )
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = once(
        benchmark,
        lambda: FaultCampaign(ibex_structure).run(ExhaustiveSingleFault(target_nets="comb")),
    )
    parallel_seconds = time.perf_counter() - start

    speedup = scalar_seconds / max(parallel_seconds, 1e-9)
    print()
    print(f"  scalar:   {scalar_seconds * 1e3:8.1f} ms  {scalar.format()}")
    print(f"  parallel: {parallel_seconds * 1e3:8.1f} ms  {parallel.format()}")
    print(f"  speedup:  {speedup:.1f}x over {parallel.total_injections} injections")

    assert parallel.counters() == scalar.counters(), "engines disagree on classification"
    assert parallel.total_injections == scalar.total_injections
    assert speedup >= MIN_SPEEDUP, f"bit-parallel speedup {speedup:.1f}x below {MIN_SPEEDUP}x"


def test_bench_context_batched_ft1_sweep(benchmark, once, ibex_structure):
    """Few nets x many transitions: context packing must beat per-context 2x.

    The FT1 state-register sweep injects into a handful of nets on every
    reachable transition, so per-context batching leaves almost the whole
    lane budget empty.  Times are the best of several repetitions (the sweep
    is sub-millisecond, single runs are noise-dominated).
    """
    scenario = ExhaustiveSingleFault(target_nets=list(scfi_fault_regions(ibex_structure)["FT1_state"]))
    campaigns = {
        "scalar": FaultCampaign(ibex_structure, engine="scalar"),
        "per-context": FaultCampaign(ibex_structure, engine="parallel", pack_contexts=False),
        "packed": FaultCampaign(ibex_structure, engine="parallel"),
        "packed-numpy": FaultCampaign(ibex_structure, engine="parallel-numpy"),
    }

    def best_of(campaign, reps):
        campaign.run(scenario)  # warm caches (compiled netlist, contexts)
        best = float("inf")
        result = None
        for _ in range(reps):
            start = time.perf_counter()
            result = campaign.run(scenario)
            best = min(best, time.perf_counter() - start)
        return best, result

    times, results = {}, {}
    times["scalar"], results["scalar"] = best_of(campaigns["scalar"], reps=3)
    times["per-context"], results["per-context"] = best_of(campaigns["per-context"], reps=30)
    times["packed-numpy"], results["packed-numpy"] = best_of(
        campaigns["packed-numpy"], reps=30
    )
    # Register a pytest-benchmark record for the packed engine; the enforced
    # assertion below uses the noise-resistant best-of timings instead.
    once(benchmark, campaigns["packed"].run, scenario)
    times["packed"], results["packed"] = best_of(campaigns["packed"], reps=30)

    speedup = times["per-context"] / max(times["packed"], 1e-9)
    print()
    for name in ("scalar", "per-context", "packed", "packed-numpy"):
        print(f"  {name:<16} {times[name] * 1e3:7.2f} ms  {results[name].format()}")
    print(f"  context packing: {speedup:.1f}x over per-context batching")

    oracle = results["scalar"].counters()
    for name in ("per-context", "packed", "packed-numpy"):
        assert results[name].counters() == oracle, f"{name} disagrees with the scalar oracle"
    assert speedup >= MIN_CONTEXT_PACKING_SPEEDUP, (
        f"context-batched packing speedup {speedup:.1f}x below {MIN_CONTEXT_PACKING_SPEEDUP}x"
    )


def test_bench_process_sharded_comb_cloud(benchmark, once, ibex_structure):
    """Process sharding must beat single-process at 4 workers (multi-core).

    The workload is the exhaustive comb-cloud campaign over all three fault
    effects (3 x 3010 injections) on the bignum engine (the numpy engine
    finishes it in milliseconds, too fast for a pool to pay off).  The first
    sharded run builds the pool and
    per-worker compiled netlists; like
    the compiled-netlist cache of the single-process path that one-time cost
    is excluded by warming both campaigns before the best-of timing loop.
    Counter equality between workers=1 and workers=4 is asserted on every
    machine; the timing floor only on machines with >= 2 usable CPUs, scaled
    to ``min(BENCH_WORKERS, usable CPUs) / BENCH_WORKERS`` of
    ``MIN_WORKERS_SPEEDUP`` since workers beyond the CPU count only
    time-slice.
    """
    scenario = ExhaustiveSingleFault(
        target_nets="comb",
        effects=(FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
    )
    single = FaultCampaign(ibex_structure, engine="parallel")
    with FaultCampaign(ibex_structure, engine="parallel", workers=BENCH_WORKERS) as sharded:
        single_result = single.run(scenario)  # warm compiled netlist + contexts
        sharded_result = sharded.run(scenario)  # warm pool + worker netlists
        assert sharded_result.counters() == single_result.counters(), (
            "sharded counters diverge from single-process"
        )
        assert sharded_result.total_injections == single_result.total_injections
        assert sharded_result.transitions_evaluated == single_result.transitions_evaluated

        # Counter equality above runs everywhere; don't burn ten full
        # campaign runs timing a pool that one core cannot speed up.
        cpus = _usable_cpus()
        if cpus < 2:
            pytest.skip(f"timing floor needs >= 2 usable CPUs, found {cpus} (counters verified)")

        def best_of(campaign, reps):
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                campaign.run(scenario)
                best = min(best, time.perf_counter() - start)
            return best

        single_seconds = best_of(single, reps=5)
        once(benchmark, sharded.run, scenario)
        sharded_seconds = best_of(sharded, reps=5)

    speedup = single_seconds / max(sharded_seconds, 1e-9)
    floor = MIN_WORKERS_SPEEDUP * min(BENCH_WORKERS, cpus) / BENCH_WORKERS
    print()
    print(f"  single-process:      {single_seconds * 1e3:7.2f} ms  {single_result.format()}")
    print(f"  {BENCH_WORKERS} workers:           {sharded_seconds * 1e3:7.2f} ms")
    print(f"  sharding speedup: {speedup:.1f}x at {BENCH_WORKERS} workers "
          f"(floor {floor:.2f}x on {cpus} usable CPUs)")

    assert speedup >= floor, (
        f"process-sharded speedup {speedup:.1f}x below {floor:.2f}x "
        f"({MIN_WORKERS_SPEEDUP}x scaled to {cpus} usable CPUs)"
    )


def test_bench_numpy_wide_campaign(benchmark, once):
    """The word-sliced numpy engine must beat the bignum engine 3x on a wide
    campaign (ISSUE 6 tentpole).

    The workload is an exhaustive all-effects comb-cloud sweep over a
    16-state random controller (~96k injections): at the numpy engine's
    default 4096-lane budget every batch fills past the 1024-lane acceptance
    threshold, while the bignum engine runs at its own default 256 lanes (its
    best configuration -- bignum per-pass cost grows with lane count).
    Counter equality between parallel and parallel-numpy is asserted on every
    machine; the timing floor is skipped on single-core
    runners where shared-runner noise dominates sub-second timings.  Either
    way the measured wall times land in ``BENCH_parallel.json``.
    """
    from repro.fsm.random_fsm import random_fsm

    structure = protect_fsm(
        random_fsm(5, num_states=16), ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure
    scenario = ExhaustiveSingleFault(
        target_nets="comb",
        effects=(FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
    )

    def best_of(campaign, reps):
        campaign.run(scenario)  # warm compiled netlist, plan cache, contexts
        best = float("inf")
        result = None
        for _ in range(reps):
            start = time.perf_counter()
            result = campaign.run(scenario)
            best = min(best, time.perf_counter() - start)
        return best, result

    times, results = {}, {}
    times["parallel"], results["parallel"] = best_of(
        FaultCampaign(structure, engine="parallel"), reps=2
    )
    numpy_campaign = FaultCampaign(structure, engine="parallel-numpy")
    once(benchmark, numpy_campaign.run, scenario)
    times["parallel-numpy"], results["parallel-numpy"] = best_of(numpy_campaign, reps=5)
    assert numpy_campaign.lane_width >= 1024, "wide-campaign case must use >= 1024 lanes"

    speedup = times["parallel"] / max(times["parallel-numpy"], 1e-9)
    print()
    for name, seconds in times.items():
        print(f"  {name:<18} {seconds * 1e3:8.1f} ms  {results[name].format()}")
    print(f"  numpy speedup: {speedup:.1f}x over parallel "
          f"({results['parallel-numpy'].total_injections} injections, "
          f"{numpy_campaign.lane_width} lanes)")

    _write_bench_record("numpy_wide_campaign", {
        "netlist": structure.netlist.name,
        "total_injections": results["parallel-numpy"].total_injections,
        "numpy_lane_width": numpy_campaign.lane_width,
        "engines": {name: {"seconds": seconds} for name, seconds in times.items()},
        "speedups": {"parallel-numpy/parallel": speedup},
        "floor": MIN_NUMPY_SPEEDUP,
        "usable_cpus": _usable_cpus(),
    })

    assert results["parallel-numpy"].counters() == results["parallel"].counters(), (
        "parallel-numpy disagrees with parallel"
    )
    assert results["parallel-numpy"].total_injections == results["parallel"].total_injections

    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"timing floor needs >= 2 usable CPUs, found {cpus} (counters verified)")
    assert speedup >= MIN_NUMPY_SPEEDUP, (
        f"numpy engine speedup {speedup:.1f}x below {MIN_NUMPY_SPEEDUP}x"
    )


def test_bench_temporal_cycle_scaling(benchmark, once, ibex_structure):
    """Multi-cycle traces must cost roughly cycles-x, not blow up per cycle.

    The workload is the committed acceptance shape: a persistent stuck-at
    campaign over the ibex_lsu diffusion layer, run as 1-cycle and 4-cycle
    temporal traces on the numpy engine.  A 4-cycle trace does four
    evaluates with register feedback, so the ideal cost ratio is 4.0; the
    enforced ceiling (``BENCH_MAX_CYCLE_OVERHEAD``) leaves headroom for the
    feedback bookkeeping and runner noise.  Counter equality between the
    bignum and numpy engines is asserted on every machine, and the measured
    cycle-scaling lands in ``BENCH_parallel.json``.
    """
    from repro.fi.scenarios import TemporalSingleFault

    effects = (FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)

    def scenario(cycles):
        return TemporalSingleFault(
            target_nets="diffusion", effects=effects, cycles=cycles, duration="persistent"
        )

    def best_of(campaign, cycles, reps):
        campaign.run(scenario(cycles))  # warm compiled netlist, plan cache
        best = float("inf")
        result = None
        for _ in range(reps):
            start = time.perf_counter()
            result = campaign.run(scenario(cycles))
            best = min(best, time.perf_counter() - start)
        return best, result

    numpy_campaign = FaultCampaign(ibex_structure, engine="parallel-numpy")
    one_seconds, one_result = best_of(numpy_campaign, cycles=1, reps=10)
    once(benchmark, numpy_campaign.run, scenario(4))
    four_seconds, four_result = best_of(numpy_campaign, cycles=4, reps=10)

    bignum = FaultCampaign(ibex_structure, engine="parallel").run(scenario(4))
    assert bignum.counters() == four_result.counters(), (
        "temporal counters diverge between the bignum and numpy engines"
    )

    overhead = four_seconds / max(one_seconds, 1e-9)
    print()
    print(f"  1 cycle:  {one_seconds * 1e3:7.2f} ms  {one_result.format()}")
    print(f"  4 cycles: {four_seconds * 1e3:7.2f} ms  {four_result.format()}")
    print(f"  cycle scaling: {overhead:.2f}x (ideal 4.0x, ceiling {MAX_CYCLE_OVERHEAD}x)")

    _write_bench_record("temporal_cycle_scaling", {
        "netlist": ibex_structure.netlist.name,
        "total_injections": four_result.total_injections,
        "cycles": {"1": {"seconds": one_seconds}, "4": {"seconds": four_seconds}},
        "cycle_overhead_4x": overhead,
        "ceiling": MAX_CYCLE_OVERHEAD,
        "usable_cpus": _usable_cpus(),
    })

    assert overhead <= MAX_CYCLE_OVERHEAD, (
        f"4-cycle temporal overhead {overhead:.2f}x above {MAX_CYCLE_OVERHEAD}x"
    )


def test_bench_region_sweep_parallel(benchmark, once, ibex_structure):
    """The per-region FT1/FT2/FT3 sweep, previously too slow to run by default."""
    campaign = FaultCampaign(ibex_structure)
    sweep = once(benchmark, campaign.run_sweep, region_sweep_scenarios(ibex_structure))
    print()
    for name, result in sweep.items():
        print(f"  {name:<15} {result.format()}")
    assert sweep["FT1_state"].hijacked == 0
    assert sweep["FT2_control"].hijacked == 0
    assert sweep["FT3_diffusion"].hijacked == 0


def _reference_random_lowering(campaign, scenario) -> JobArrays:
    """The IR of a :class:`RandomMultiFault`, drawn one ``random.Random``
    call at a time and regrouped stably by context (the reference the block
    decoder replays)."""
    nets = scenario.resolved_nets(campaign)
    modes = [EFFECT_MODES[effect] for effect in scenario.effects]
    rng = random.Random(scenario.seed)
    jobs = []
    for _ in range(scenario.trials):
        index = rng.randrange(len(campaign.contexts))
        group = rng.sample(range(len(nets)), scenario.num_faults)
        jobs.append((index, group, [
            modes[rng.randrange(len(modes))] if len(modes) > 1 else modes[0] for _ in group
        ]))
    jobs.sort(key=lambda job: job[0])
    rows = np.array([campaign.net_index[net] for net in nets], dtype=np.intp)
    offsets = np.zeros(len(jobs) + 1, dtype=np.intp)
    np.cumsum([len(group) for _, group, _ in jobs], out=offsets[1:])
    return JobArrays(
        contexts=np.array([index for index, _, _ in jobs], dtype=np.intp),
        group_offsets=offsets,
        net_rows=rows[[pick for _, group, _ in jobs for pick in group]],
        modes=np.array([mode for _, _, group in jobs for mode in group], dtype=np.uint8),
    )


def test_bench_sampled_lowering(benchmark, once):
    """Layer record of the warm op's former Python remainder (no floor).

    Lowering: the 3000-trial random 3-fault campaign on the 16-state random
    controller, block-decoded versus the reference per-trial loop, with the
    IR asserted equal.  Classification: the time the all-effects comb sweep
    spends in ``_classes`` on a warm executor (its simulated jobs only).
    """
    from repro.fsm.random_fsm import random_fsm

    structure = protect_fsm(
        random_fsm(5, num_states=16), ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure
    campaign = FaultCampaign(structure, engine="parallel-numpy")
    scenario = RandomMultiFault(num_faults=3, trials=3000, seed=1958455966)

    def best_of(function, reps):
        result = function()
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
        return best, result

    reference_s, reference = best_of(lambda: _reference_random_lowering(campaign, scenario), 5)
    lower_s, arrays = best_of(lambda: campaign.lower_scenario(scenario), 5)
    once(benchmark, campaign.lower_scenario, scenario)
    for name in ("contexts", "group_offsets", "net_rows", "modes"):
        assert np.array_equal(getattr(arrays, name), getattr(reference, name)), name
    assert arrays.cycles is None

    comb = ExhaustiveSingleFault(
        target_nets="comb",
        effects=(FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
    )
    spent = []
    classes = campaign._classes

    def timed(*args):
        start = time.perf_counter()
        try:
            return classes(*args)
        finally:
            spent[-1] += time.perf_counter() - start

    campaign._classes = timed
    spent.append(0.0)
    result = campaign.run(comb)  # warm: compiled netlist, trajectories, verdict table
    classify_s = float("inf")
    for _ in range(5):
        spent.append(0.0)
        campaign.run(comb)
        classify_s = min(classify_s, spent[-1])

    print()
    print(f"  random-3 lowering: {lower_s * 1e3:7.2f} ms (reference loop "
          f"{reference_s * 1e3:7.2f} ms, {reference_s / max(lower_s, 1e-9):.1f}x)")
    print(f"  comb classification: {classify_s * 1e3:7.2f} ms over "
          f"{result.total_injections} injections")

    _write_bench_record("sampled_lowering", {
        "netlist": structure.netlist.name,
        "random3": {
            "trials": scenario.trials,
            "faults": int(arrays.num_faults),
            "seconds": lower_s,
            "reference_seconds": reference_s,
        },
        "comb_classification": {
            "total_injections": result.total_injections,
            "seconds": classify_s,
        },
        "usable_cpus": _usable_cpus(),
    })
