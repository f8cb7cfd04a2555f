"""Inputs of the three workloads and the campaign-suite definition.

Everything a workload feeds the program is built here from files under
``inputs/`` and the workload seed, so an edit to ``examples/`` cannot change
what is measured.  The seed only picks campaign seeds: the amount of work per
op stays the same for every seed, which is what keeps op latency comparable
between runs with different seeds.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import random
from typing import Dict, List, Tuple

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

#: The seed a run uses when ``--seed`` is not given, and the held-out seed
#: whose counters are pinned too (never used while the benchmark was tuned).
DEFAULT_SEED = 0
HELD_OUT_SEED = 7

#: ``random_fsm(RANDOM_FSM_SEED, num_states=16)`` hardened at N=2 gives the
#: 95886-injection all-effects comb sweep.  The FSM is fixed rather than drawn
#: from the workload seed so every seed times the same netlist.
RANDOM_FSM_SEED = 5
RANDOM_FSM_STATES = 16

#: Suite shapes: (name, FSM key, CampaignSpec fields, depends on the seed).
#: Trial counts keep the comb sweep the largest share of a ~0.2 s op.
SUITE: Tuple[Tuple[str, str, Dict, bool], ...] = (
    ("comb", "random16", {"scenario": "effects", "target": "comb"}, False),
    ("random3", "random16", {"scenario": "random", "faults": 3, "trials": 3000}, True),
    ("laser", "random16",
     {"scenario": "laser", "spot_radius": 2.0, "spot_trials": 40, "cycles": 2}, True),
    ("temporal", "ibex_lsu",
     {"scenario": "temporal", "target": "comb", "effects": ["stuck0", "stuck1"],
      "cycles": 4, "fault_duration": "persistent"}, False),
)

#: Counter fields compared between a served/computed result and its reference.
COUNTER_FIELDS = (
    "total_injections", "masked", "detected", "redirected", "hijacked",
    "transitions_evaluated", "target_nets",
)


def derived_seed(workload_seed: int, label: str) -> int:
    """A campaign seed drawn from the workload seed (stable across processes)."""
    return random.Random(f"{workload_seed}:{label}").randrange(1 << 31)


def load_input(name: str) -> Dict:
    with open(os.path.join(INPUTS, name)) as handle:
        return json.load(handle)


def cli_cold_spec(workload_seed: int) -> Dict:
    """The cli-cold spec: the traffic_light diffusion effect sweep.

    The sweep is exhaustive, so its counters do not depend on the seed; the
    seed still lands in the spec (and its hash).
    """
    doc = load_input("cli_cold.json")
    doc["campaign"]["seed"] = workload_seed
    return doc


def service_compute_spec(workload_seed: int, index: int) -> Dict:
    """The ``index``-th compute submission of a service-mix run."""
    doc = copy.deepcopy(load_input("service_compute.json"))
    doc["campaign"]["seed"] = derived_seed(workload_seed, f"service:{index}")
    return doc


def counters(results) -> Dict[str, Dict[str, int]]:
    """``{scenario: {field: int}}`` from CampaignResult objects or their dicts."""
    out = {}
    for name, result in results.items():
        data = result if isinstance(result, dict) else result.to_dict()
        out[name] = {field: int(data[field]) for field in COUNTER_FIELDS}
    return out


def build_structures() -> Dict[str, object]:
    """Harden the suite's two FSMs at the spec defaults (N=2)."""
    from repro.api import ProtectSpec
    from repro.core.scfi import protect_fsm
    from repro.fsm.random_fsm import random_fsm
    from repro.fsmlib.registry import get_fsm

    options = ProtectSpec().to_options()
    return {
        "random16": protect_fsm(
            random_fsm(RANDOM_FSM_SEED, num_states=RANDOM_FSM_STATES), options
        ).structure,
        "ibex_lsu": protect_fsm(get_fsm("ibex_lsu"), options).structure,
    }


def suite_specs(workload_seed: int, engine: str = "parallel-numpy") -> List[Tuple[str, str, object]]:
    """``[(shape, fsm key, CampaignSpec)]`` for one suite op."""
    from repro.api import CampaignSpec

    specs = []
    for shape, fsm_key, fields, seeded in SUITE:
        fields = dict(fields, engine=engine, workers=1)
        if seeded:
            fields["seed"] = derived_seed(workload_seed, shape)
        specs.append((shape, fsm_key, CampaignSpec.from_dict(fields)))
    return specs


def run_suite(session, structures, specs, tracer=None, op: int = 0) -> Tuple[Dict, int]:
    """One suite op: ``({shape: counters}, injections classified)``.

    With a tracer, the op is an ``op`` span holding one ``suite.<shape>``
    span per campaign.
    """
    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    if tracer is not None:
        tracer.op = op
    out = {}
    injections = 0
    with span("op"):
        for shape, fsm_key, spec in specs:
            with span(f"suite.{shape}"):
                results = session.run_campaign(structures[fsm_key], spec)
            out[shape] = counters(results)
            injections += sum(c["total_injections"] for c in out[shape].values())
    return out, injections
