"""The word-sliced numpy engine: lane-for-lane equality with the bignum
engine, wide-lane campaigns past the 256-lane budget, and the array-native
fault plumbing (ISSUE 6 tentpole).

The property at the heart of this file: for ANY netlist, ANY lane count and
ANY mix of flip/stuck-at fault lanes, ``NumpyCompiledNetlist`` produces
bit-identical per-net lane words to ``CompiledNetlist`` through the shared
``step_cycles_fault_arrays`` entry (fault lanes converted to flat triples by
the ``fault_triples`` fixture, scalar contexts to each engine's lane words by
the ``lane_words`` fixture).
Campaign-level counter equality across every engine then follows and is
pinned separately, including on the
``ibex_lsu_fsm`` regression netlist.
"""

import random

import numpy as np
import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.model import FaultEffect
from repro.fi.executor import DEFAULT_NUMPY_LANE_WIDTH, ENGINE_INFO, FaultCampaign
from repro.fi.scenarios import ExhaustiveSingleFault, RandomMultiFault
from repro.fsm.random_fsm import random_fsm
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK0, MODE_STUCK1, CompiledNetlist
from repro.netlist.parallel_np import NumpyCompiledNetlist

ALL_EFFECTS = (FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)

IBEX_COMB_COUNTERS = (1369, 1479, 74, 88)


def _protect(fsm):
    return protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False)).structure


def _random_fault_lanes(rng, nets, num_lanes):
    """Random per-lane fault groups: flips, stuck-ats, overlaps, empty lanes."""
    lanes = []
    for _ in range(num_lanes):
        if rng.random() < 0.25:
            lanes.append(None)  # golden lane
            continue
        chosen = rng.sample(nets, rng.randrange(1, min(4, len(nets)) + 1))
        flips = [(net, MODE_FLIP) for net in chosen if rng.random() < 0.5]
        stuck = [
            (net, (MODE_STUCK0, MODE_STUCK1)[rng.randrange(2)])
            for net in chosen
            if rng.random() < 0.5
        ]
        lanes.append(sorted(flips) + stuck)
    return lanes


class TestLaneForLaneEquality:
    """Property style: numpy lane words == bignum lane words on every net."""

    @pytest.mark.parametrize("seed", [1, 8, 21])
    @pytest.mark.parametrize("num_lanes", [1, 63, 64, 65, 200])
    def test_random_netlist_random_faults(self, seed, num_lanes, fault_triples, lane_words):
        structure = _protect(random_fsm(seed, num_states=4))
        netlist = structure.netlist
        bignum = CompiledNetlist(netlist)
        vector = NumpyCompiledNetlist(netlist)
        rng = random.Random(seed * 1000 + num_lanes)
        nets = sorted(gate.output for gate in netlist.gates.values())
        inputs = {net: rng.randrange(2) for net in netlist.primary_inputs}
        registers = {net: rng.randrange(2) for net in structure.state_q}
        triples = fault_triples(vector.net_id, _random_fault_lanes(rng, nets, num_lanes))
        ref, out = (
            engine.step_cycles_fault_arrays(
                lane_words(engine, inputs, num_lanes),
                [triples],
                num_lanes,
                registers=lane_words(engine, registers, num_lanes),
            )
            for engine in (bignum, vector)
        )
        for net in nets:
            assert out.word(net) == ref.word(net), net
        state_ids = [vector.net_id[net] for net in structure.state_d]
        assert out.codes_by_id(state_ids).tolist() == ref.codes_by_id(state_ids).tolist()

    @pytest.mark.parametrize("engine_cls", [CompiledNetlist, NumpyCompiledNetlist])
    def test_codes_match_the_lane_values(self, engine_cls, fault_triples, lane_words):
        """Codes below 64 bits come back as one uint64 array, wider codes as
        exact Python ints, and both agree with the per-lane net values."""
        structure = _protect(random_fsm(5, num_states=4))
        compiled = engine_cls(structure.netlist)
        rng = random.Random(9)
        nets = sorted(gate.output for gate in structure.netlist.gates.values())
        inputs = {net: rng.randrange(2) for net in structure.netlist.primary_inputs}
        registers = {net: rng.randrange(2) for net in structure.state_q}
        triples = fault_triples(compiled.net_id, _random_fault_lanes(rng, nets, 90))
        out = compiled.step_cycles_fault_arrays(
            lane_words(compiled, inputs, 90),
            [triples],
            90,
            registers=lane_words(compiled, registers, 90),
        )
        ids = [compiled.net_id[net] for net in structure.state_d]
        codes = out.codes_by_id(ids)
        assert codes.dtype == np.uint64
        assert codes.tolist() == [
            sum(out.lane_values(lane)[net] << i for i, net in enumerate(structure.state_d))
            for lane in range(90)
        ]
        assert out.codes_by_id([]).tolist() == [0] * 90
        # 64 bits or more: exact Python ints instead of a uint64 array.
        repeats = -(-64 // len(ids))
        width = len(ids)
        assert out.codes_by_id(ids * repeats) == [
            sum(code << (width * k) for k in range(repeats)) for code in codes.tolist()
        ]


class TestWideCampaigns:
    """Lane counts past the bignum engine's 256-lane budget."""

    def test_numpy_default_lane_width(self):
        assert ENGINE_INFO["parallel-numpy"].default_lane_width == DEFAULT_NUMPY_LANE_WIDTH
        assert DEFAULT_NUMPY_LANE_WIDTH >= 1024
        structure = _protect(random_fsm(4, num_states=4))
        campaign = FaultCampaign(structure, engine="parallel-numpy")
        assert campaign.lane_width == DEFAULT_NUMPY_LANE_WIDTH

    def test_wide_lanes_match_narrow_and_bignum(self):
        structure = _protect(random_fsm(13, num_states=5))
        scenario = ExhaustiveSingleFault(target_nets="comb", effects=ALL_EFFECTS)
        ref = FaultCampaign(structure, engine="parallel").run(scenario)
        wide = FaultCampaign(structure, engine="parallel-numpy", lane_width=2048).run(scenario)
        narrow = FaultCampaign(structure, engine="parallel-numpy", lane_width=17).run(scenario)
        assert wide.counters() == ref.counters()
        assert narrow.counters() == ref.counters()


class TestCampaignCounterEquality:
    """The numpy engine through the full campaign stack, vs every engine."""

    @pytest.mark.parametrize("engine", ["parallel", "scalar"])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_exhaustive_all_effects(self, engine, seed):
        structure = _protect(random_fsm(seed, num_states=4))
        target = "diffusion" if engine == "scalar" else "comb"
        scenario = ExhaustiveSingleFault(target_nets=target, effects=ALL_EFFECTS)
        ref = FaultCampaign(structure, engine=engine).run(scenario)
        out = FaultCampaign(structure, engine="parallel-numpy").run(scenario)
        assert out.counters() == ref.counters()
        assert out.total_injections == ref.total_injections
        assert out.transitions_evaluated == ref.transitions_evaluated

    def test_random_multi_fault_matches_bignum(self):
        """Multi-fault groups share one lane on both engines, with identical
        counters."""
        structure = _protect(random_fsm(29, num_states=4))
        scenario = RandomMultiFault(num_faults=2, trials=80, seed=5, effects=ALL_EFFECTS)
        ref = FaultCampaign(structure, engine="parallel").run(scenario)
        out = FaultCampaign(structure, engine="parallel-numpy").run(scenario)
        assert out.counters() == ref.counters()

    def test_keep_outcomes_matches_bignum(self):
        structure = _protect(random_fsm(41, num_states=4))
        scenario = ExhaustiveSingleFault(target_nets="comb", effects=ALL_EFFECTS)
        ref = FaultCampaign(structure, engine="parallel", keep_outcomes=True).run(scenario)
        out = FaultCampaign(structure, engine="parallel-numpy", keep_outcomes=True).run(scenario)
        assert out.outcomes == ref.outcomes

    def test_ibex_comb_cloud_regression(self):
        structure = _protect(ibex_lsu_fsm())
        result = FaultCampaign(structure, engine="parallel-numpy").run(
            ExhaustiveSingleFault(target_nets="comb")
        )
        assert result.counters() == IBEX_COMB_COUNTERS
