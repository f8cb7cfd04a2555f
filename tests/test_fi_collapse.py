"""Fault collapsing on the compiled engines.

A single fault live in one cycle has two behaviours there: with ``g`` its
net's fault-free value, a stuck-at-g changes nothing and a flip acts like a
stuck-at-not-g.  The executor settles such jobs without a lane (rule (a):
faults that force ``g`` in every live cycle get the golden outcome; rule (c):
a one-cycle flip of a net inside a fanout-free region is a flip of the
region's stem, or masked by the one gate that reads it; rule (b): one-cycle
faults landing on one stem of one context in one cycle share a lane across
one sweep).  These tests pin the collapsed counters and kept outcomes to the
uncollapsed scalar oracle on random FSMs and ``ibex_lsu`` -- on drawn net
pools and on whole combinational clouds, where stems and the nets of their
regions share a pool -- the fault-free net table to
:class:`~repro.netlist.simulate.NetlistSimulator`, and the lane counts to a
stem walk kept here over simulator values, including that the sharing table
does not outlive its sweep.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import FaultCampaign, _stem_slots
from repro.fi.model import FaultEffect
from repro.fi.scenarios import (
    ExhaustiveSingleFault,
    MultiShotGlitch,
    RandomMultiFault,
    TemporalSingleFault,
    effect_sweep_scenarios,
)
from repro.fsm.random_fsm import random_fsm
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.netlist.gates import CELL_FUNCTIONS, Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.parallel import CompiledNetlist
from repro.netlist.simulate import NetlistSimulator

ALL_EFFECTS = tuple(FaultEffect)
COMPILED_ENGINES = ("parallel", "parallel-numpy")

#: ``None`` is ``ibex_lsu``; integers seed a random FSM.
FSM_KEYS = st.one_of(st.none(), st.integers(min_value=0, max_value=500))


@lru_cache(maxsize=None)
def _structure(fsm_key):
    if fsm_key is None:
        fsm = ibex_lsu_fsm()
    else:
        fsm = random_fsm(fsm_key, num_states=3 + fsm_key % 4)
    return protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False)).structure


def _sweep(nets: List[str], inject_cycle: int) -> Dict[str, object]:
    """Every collapsible shape over the pool ``nets`` in one sweep: the
    all-effects comb sweep (one scenario per effect), 1- and 3-cycle
    transient and persistent temporal sweeps, sampled single faults (drawn
    out of slot order, repeats included) and two-fault groups."""
    sweep: Dict[str, object] = dict(effect_sweep_scenarios(target_nets=nets))
    for cycles in (1, 3):
        for duration in ("transient", "persistent"):
            sweep[f"{duration}-{cycles}"] = TemporalSingleFault(
                target_nets=nets,
                effects=ALL_EFFECTS,
                cycles=cycles,
                duration=duration,
                inject_cycle=min(inject_cycle, cycles - 1),
            )
    sweep["singles"] = RandomMultiFault(
        num_faults=1, trials=80, target_nets=nets, seed=inject_cycle, effects=ALL_EFFECTS
    )
    sweep["pairs"] = RandomMultiFault(
        num_faults=2, trials=60, target_nets=nets, seed=inject_cycle, effects=ALL_EFFECTS
    )
    return sweep


def _whole_cloud_sweep(nets: List[str]) -> Dict[str, object]:
    """The all-effects comb sweep plus transient flips at every cycle of a
    3-cycle trace: every shape rule (c) settles, over a whole pool."""
    sweep: Dict[str, object] = dict(effect_sweep_scenarios(target_nets=nets))
    for cycle in range(3):
        sweep[f"transient-3@{cycle}"] = TemporalSingleFault(
            target_nets=nets, cycles=3, duration="transient", inject_cycle=cycle
        )
    return sweep


def _reference_stem(
    readers: Dict[str, List[Tuple[Gate, int]]], values: Dict[str, int], net: str
) -> Optional[str]:
    """Where a flip of ``net`` lands under ``values``: the stem of its
    fanout-free region, or ``None`` when it is masked.

    ``readers`` maps each net to its ``(gate, pin)`` reader pins, flops
    included.  A stem has more or fewer than one reader pin, or a flop reads
    it, and a flip of a stem nothing reads is masked.  A flip of any other
    net passes its reader gate when flipping that pin in the cell function
    changes the gate's output, and is masked otherwise.
    """
    while len(readers.get(net, ())) == 1:
        (gate, pin), = readers[net]
        if gate.gate_type.is_sequential:
            break
        function = CELL_FUNCTIONS[gate.gate_type]
        operands = [values[source] for source in gate.inputs]
        flipped = list(operands)
        flipped[pin] ^= 1
        if function(operands, 0, 1, 2) == function(flipped, 0, 1, 2):
            return None
        net = gate.output
    return net if readers.get(net) else None


def _readers(netlist: Netlist) -> Dict[str, List[Tuple[Gate, int]]]:
    """Every net's ``(gate, pin)`` reader pins, flops included."""
    readers: Dict[str, List[Tuple[Gate, int]]] = {}
    for gate in netlist.gates.values():
        for pin, source in enumerate(gate.inputs):
            readers.setdefault(source, []).append((gate, pin))
    return readers


def _reference_slots(campaign: FaultCampaign, nets: List[str]) -> Set[Tuple[int, str]]:
    """The (context, stem) pairs one-cycle flips of ``nets`` land on."""
    netlist = campaign.structure.netlist
    readers = _readers(netlist)
    simulator = NetlistSimulator(netlist)
    slots: Set[Tuple[int, str]] = set()
    for index in range(len(campaign.contexts)):
        encoded, registers = campaign._context_vectors(index)
        values = simulator.evaluate(encoded, registers)
        for net in nets:
            stem = _reference_stem(readers, values, net)
            if stem is not None:
                slots.add((index, stem))
    return slots


def _planned_lanes(campaign: FaultCampaign) -> List[int]:
    """Record the jobs every ``plan_jobs`` call on ``campaign`` plans."""
    lanes: List[int] = []
    plan = campaign.plan_jobs

    def counting(job_contexts):
        lanes.append(len(job_contexts))
        return plan(job_contexts)

    campaign.plan_jobs = counting
    return lanes


class TestCollapsedEqualsOracle:
    @given(
        fsm_key=FSM_KEYS,
        data=st.data(),
        inject_cycle=st.integers(0, 2),
        lane_width=st.integers(1, 48),
    )
    @example(fsm_key=None, data=16, inject_cycle=2, lane_width=5)
    @example(fsm_key=None, data=1, inject_cycle=None, lane_width=48)
    @example(fsm_key=48, data=1, inject_cycle=None, lane_width=5)
    @settings(max_examples=4, deadline=None)
    def test_counters_and_outcomes_match_scalar(self, fsm_key, data, inject_cycle, lane_width):
        """An integer ``data`` takes every ``data``-th net of the comb pool
        instead of drawing a few; ``inject_cycle=None`` runs the whole-pool
        sweep of :func:`_whole_cloud_sweep`."""
        structure = _structure(fsm_key)
        with FaultCampaign(structure) as probe:
            pool = probe.injector.all_comb_nets()
        if isinstance(data, int):
            nets = pool[::data]
        else:
            nets = data.draw(
                st.lists(st.sampled_from(pool), min_size=2, max_size=10, unique=True),
                label="nets",
            )
        if inject_cycle is None:
            sweep = _whole_cloud_sweep(nets)
        else:
            sweep = _sweep(nets, inject_cycle)
        # Two oracle workers: a whole-cloud example is ~36k scalar traces.
        with FaultCampaign(structure, engine="scalar", keep_outcomes=True, workers=2) as oracle:
            expected = oracle.run_sweep(sweep)
        for engine in COMPILED_ENGINES:
            for workers in (1, 2):
                for keep_outcomes in (False, True):
                    with FaultCampaign(
                        structure,
                        engine=engine,
                        workers=workers,
                        lane_width=lane_width,
                        keep_outcomes=keep_outcomes,
                    ) as campaign:
                        results = campaign.run_sweep(sweep)
                    for name, reference in expected.items():
                        where = (engine, workers, keep_outcomes, name)
                        assert results[name].counters() == reference.counters(), where
                        if keep_outcomes:
                            assert results[name].outcomes == reference.outcomes, where


def _chained_netlist(rng: random.Random) -> Netlist:
    """A random netlist of every cell, where a gate reads the newest net half
    the time: long fanout-free chains, some ending in a flop that a gate
    reads too."""
    netlist = Netlist("chains")
    nets = [netlist.add_input(f"in{i}") for i in range(3)] + ["q0", "q1"]
    cells = [gate_type for gate_type in GateType if not gate_type.is_sequential]
    for i in range(rng.randint(4, 40)):
        gate_type = rng.choice(cells)
        operands = [
            nets[-1] if rng.random() < 0.5 else rng.choice(nets)
            for _ in range(gate_type.num_inputs)
        ]
        netlist.add_gate(Gate(f"g{i}", gate_type, operands, f"n{i}"))
        nets.append(f"n{i}")
    for i in range(2):
        netlist.add_gate(Gate(f"ff{i}", GateType.DFF, [rng.choice(nets[5:])], f"q{i}"))
    netlist.validate()
    return netlist


class TestStemTable:
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_walk(self, seed):
        """Every (cycle, context, net) cell of a random netlist holds the
        slot of the stem the reference walk reaches, or its context's golden
        slot when the walk is masked."""
        rng = random.Random(seed)
        netlist = _chained_netlist(rng)
        compiled = CompiledNetlist(netlist)
        simulator = NetlistSimulator(netlist)
        readers = _readers(netlist)
        net_id = compiled.net_id
        num_nets = len(net_id)
        cycles, contexts = 2, 3
        rows = []
        for _ in range(cycles * contexts):
            inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
            registers = {flop.output: rng.randint(0, 1) for flop in netlist.flops()}
            rows.append(simulator.evaluate(inputs, registers))
        fault_free = np.zeros((cycles * contexts, num_nets), dtype=np.uint8)
        for row, values in zip(fault_free, rows):
            row[[net_id[net] for net in values]] = list(values.values())
        table = _stem_slots(compiled, fault_free.reshape(cycles, -1), contexts)
        assert table.shape == (cycles, contexts * num_nets)
        assert table.dtype == np.int32
        for row, values in enumerate(rows):
            for net, cell in net_id.items():
                stem = _reference_stem(readers, values, net)
                if stem is None:
                    expected = row % contexts
                else:
                    expected = contexts + row * num_nets + net_id[stem]
                assert table.ravel()[row * num_nets + cell] == expected, (row, net, stem)


class TestFaultFreeTable:
    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    @pytest.mark.parametrize("fsm_key", [None, 3, 42])
    def test_matches_netlist_simulator(self, engine, fsm_key):
        structure = _structure(fsm_key)
        netlist = structure.netlist
        simulator = NetlistSimulator(netlist)
        flops = netlist.flops()
        cycles = 3
        with FaultCampaign(structure, engine=engine) as campaign:
            table = campaign._fault_free(cycles)
            net_id = campaign.net_index
            num_nets = len(net_id)
            assert table.shape == (cycles, len(campaign.contexts) * num_nets)
            for index in range(len(campaign.contexts)):
                encoded, registers = campaign._context_vectors(index)
                for cycle in range(cycles):
                    values = simulator.evaluate(encoded, registers)
                    row = table[cycle, index * num_nets : (index + 1) * num_nets]
                    assert {net: int(row[net_id[net]]) for net in values} == values, (
                        index,
                        cycle,
                    )
                    registers = {flop.output: values[flop.inputs[0]] for flop in flops}

    def test_longer_trace_extends_the_table(self):
        with FaultCampaign(_structure(3)) as campaign:
            short = campaign._fault_free(1).copy()
            longer = campaign._fault_free(4)
            assert longer.shape[0] == 4
            assert np.array_equal(longer[:1], short)
            assert campaign._fault_free(2) is longer


class TestLaneCounts:
    @pytest.mark.parametrize("fsm_key", [None, 5])
    def test_effect_sweep_simulates_each_context_stem_once(self, fsm_key):
        structure = _structure(fsm_key)
        with FaultCampaign(structure) as campaign:
            lanes = _planned_lanes(campaign)
            results = campaign.run_sweep(effect_sweep_scenarios(target_nets="comb"))
            expected = _reference_slots(campaign, campaign.injector.all_comb_nets())
        jobs = sum(result.total_injections for result in results.values())
        # The flips lead every (context, stem) slot they land on; each
        # stuck-at is either golden (rule a) or a copy of its net's flip.
        assert lanes == [len(expected), 0, 0]
        assert len(expected) < jobs // 3

    def test_second_sweep_plans_as_many_lanes_as_the_first(self):
        """The sharing table lives for one sweep: a warm executor's second
        sweep simulates every leader again."""
        structure = _structure(5)
        sweep = effect_sweep_scenarios(target_nets="comb")
        with FaultCampaign(structure) as campaign:
            lanes = _planned_lanes(campaign)
            first = campaign.run_sweep(sweep)
            planned = list(lanes)
            lanes.clear()
            second = campaign.run_sweep(sweep)
            assert lanes == planned
            assert sum(planned) < sum(result.total_injections for result in first.values())
        for name, result in first.items():
            assert second[name].counters() == result.counters()

    def test_runs_outside_a_sweep_share_nothing(self):
        structure = _structure(5)
        scenario = ExhaustiveSingleFault(target_nets="comb", effects=(FaultEffect.STUCK_AT_1,))
        with FaultCampaign(structure) as campaign:
            lanes = _planned_lanes(campaign)
            campaign.run(ExhaustiveSingleFault(target_nets="comb"))
            campaign.run(scenario)
            campaign.run(scenario)
            assert lanes[1] == lanes[2] > 0

    def test_persistent_stuck_at_golden_in_every_cycle_takes_no_lane(self):
        structure = _structure(None)
        with FaultCampaign(structure) as campaign:
            lanes = _planned_lanes(campaign)
            result = campaign.run(
                TemporalSingleFault(
                    target_nets="comb", effects=(FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
                    cycles=4, duration="persistent",
                )
            )
            table = campaign._fault_free(4)[:4]
            # A net that holds one value in all four cycles of a context masks
            # exactly one of its two stuck-ats; a net that toggles masks none.
            rows = np.array([campaign.net_index[net] for net in campaign.injector.all_comb_nets()])
            cells = (np.arange(len(campaign.contexts))[:, None] * len(campaign.net_index) + rows)
            steady = np.all(table[:, cells.ravel()] == table[:1, cells.ravel()], axis=0)
            assert lanes == [result.total_injections - int(np.count_nonzero(steady))]

    def test_oracle_simulates_every_job(self):
        structure = _structure(5)
        nets = structure.diffusion_nets
        with FaultCampaign(structure, engine="scalar") as campaign:
            lanes = _planned_lanes(campaign)
            results = campaign.run_sweep(effect_sweep_scenarios(target_nets=nets))
        assert lanes == [result.total_injections for result in results.values()]

    def test_multi_fault_groups_pass_through(self):
        structure = _structure(5)
        nets = structure.diffusion_nets
        scenarios = {
            "pairs": RandomMultiFault(num_faults=2, trials=50, target_nets=nets, seed=1),
            "shots": MultiShotGlitch(glitches=[(0, nets[0], "stuck0"), (1, nets[1], "stuck1")]),
        }
        with FaultCampaign(structure) as campaign:
            lanes = _planned_lanes(campaign)
            results = campaign.run_sweep(scenarios)
        assert lanes == [result.total_injections for result in results.values()]


class TestTake:
    def test_take_matches_the_job_stream(self):
        structure = _structure(5)
        with FaultCampaign(structure) as campaign:
            arrays = campaign.lower_scenario(
                RandomMultiFault(num_faults=2, trials=40, seed=3, effects=ALL_EFFECTS)
            )
            names = campaign._net_names()
        jobs = arrays.to_jobs(names)
        picked = np.array([0, 3, 4, 17, 39], dtype=np.intp)
        assert arrays.take(picked).to_jobs(names) == [jobs[i] for i in picked.tolist()]
