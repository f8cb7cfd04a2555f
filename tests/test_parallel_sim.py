"""Property-based equivalence of the bit-parallel engine and the scalar oracle.

Hypothesis-style: seeded random netlists (random DAGs over every supported
cell type, with flip-flop feedback) and random per-lane fault sets are thrown
at the bignum and the word-sliced numpy bit-parallel evaluators -- with
scalar-broadcast and with per-lane lane-word inputs, over one cycle and over
multi-cycle traces -- and every net of every lane must match the scalar
``NetlistSimulator`` evaluation with the same ``FaultSet``.  The engines take
faults as flat ``(net id, lane, mode)`` triples; the ``fault_triples``
fixture converts each lane's ``FaultSet`` into them.  A regression block
pins the ``ibex_lsu_fsm`` campaign counters to the values produced by the
pre-refactor scalar implementation on every campaign engine.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.campaign import exhaustive_single_fault_campaign, random_multi_fault_campaign
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.netlist.gates import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK0, MODE_STUCK1, CompiledNetlist
from repro.netlist.parallel_np import NumpyCompiledNetlist
from repro.netlist.simulate import FaultSet, NetlistSimulator, injectable_nets

_COMB_TYPES = [
    GateType.TIE0,
    GateType.TIE1,
    GateType.BUF,
    GateType.INV,
    GateType.AND2,
    GateType.NAND2,
    GateType.OR2,
    GateType.NOR2,
    GateType.XOR2,
    GateType.XNOR2,
    GateType.MUX2,
]

#: Bit-parallel evaluators sharing the ``CompiledNetlist`` interface.
ENGINE_CLASSES = (CompiledNetlist, NumpyCompiledNetlist)


def random_netlist(rng: random.Random, name: str, min_flops: int = 0) -> Netlist:
    """A random combinational DAG with optional flip-flop feedback."""
    netlist = Netlist(name)
    inputs = [netlist.add_input(f"in{i}") for i in range(rng.randint(1, 5))]
    q_nets = [f"q{i}" for i in range(rng.randint(min_flops, 3))]
    available = inputs + q_nets  # q nets are driven by the DFFs added below
    for i in range(rng.randint(5, 60)):
        gate_type = rng.choice(_COMB_TYPES)
        operands = [rng.choice(available) for _ in range(gate_type.num_inputs)]
        out = f"n{i}"
        netlist.add_gate(Gate(name=f"g{i}", gate_type=gate_type, inputs=operands, output=out))
        available.append(out)
    for i, q_net in enumerate(q_nets):
        netlist.add_gate(
            Gate(name=f"ff{i}", gate_type=GateType.DFF, inputs=[rng.choice(available)], output=q_net)
        )
    for net in rng.sample(available, min(3, len(available))):
        netlist.add_output(net)
    netlist.validate()
    return netlist


def random_fault_set(rng: random.Random, nets) -> FaultSet:
    count = rng.randint(1, 4)
    chosen = rng.sample(nets, min(count, len(nets)))
    split = rng.randint(0, len(chosen))
    return FaultSet(
        flips=frozenset(chosen[:split]),
        stuck_at={net: rng.randint(0, 1) for net in chosen[split:]},
    )


def _no_faults():
    return (np.array([], dtype=np.intp),) * 2 + (np.array([], dtype=np.uint8),)


class TestRandomNetlistEquivalence:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("seed", range(25))
    def test_all_nets_match_lane_for_lane(self, seed, engine_cls, fault_triples):
        rng = random.Random(seed)
        netlist = random_netlist(rng, f"rand{seed}")
        simulator = NetlistSimulator(netlist)
        compiled = engine_cls(netlist)
        targets = injectable_nets(netlist, include_inputs=True)

        inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
        registers = {net: rng.randint(0, 1) for net in simulator.registers}
        lanes = [None] + [random_fault_set(rng, targets) for _ in range(rng.randint(1, 33))]

        lane_values = compiled.evaluate_fault_arrays(
            inputs, *fault_triples(compiled.net_id, lanes), len(lanes), registers=registers
        )
        assert lane_values.num_lanes == len(lanes)
        for lane, fault_set in enumerate(lanes):
            reference = simulator.evaluate(
                inputs, faults=fault_set or FaultSet(), registers=registers
            )
            assert lane_values.lane_values(lane) == reference

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("seed", range(40, 50))
    def test_lane_word_inputs_evaluate_distinct_contexts(self, seed, engine_cls, fault_triples):
        """With ``lane_words=True`` every lane may carry its own input/state."""
        rng = random.Random(seed)
        netlist = random_netlist(rng, f"randctx{seed}", min_flops=1)
        simulator = NetlistSimulator(netlist)
        compiled = engine_cls(netlist)
        targets = injectable_nets(netlist, include_inputs=True)

        num_lanes = rng.randint(2, 40)
        lanes = [
            None if rng.random() < 0.3 else random_fault_set(rng, targets)
            for _ in range(num_lanes)
        ]
        per_lane_inputs = [
            {net: rng.randint(0, 1) for net in netlist.primary_inputs}
            for _ in range(num_lanes)
        ]
        per_lane_registers = [
            {net: rng.randint(0, 1) for net in simulator.registers}
            for _ in range(num_lanes)
        ]
        input_words = {
            net: sum(per_lane_inputs[k][net] << k for k in range(num_lanes))
            for net in netlist.primary_inputs
        }
        register_words = {
            net: sum(per_lane_registers[k][net] << k for k in range(num_lanes))
            for net in simulator.registers
        }
        lane_values = compiled.evaluate_fault_arrays(
            input_words,
            *fault_triples(compiled.net_id, lanes),
            num_lanes,
            registers=register_words,
            lane_words=True,
        )
        for lane, fault_set in enumerate(lanes):
            reference = simulator.evaluate(
                per_lane_inputs[lane],
                faults=fault_set or FaultSet(),
                registers=per_lane_registers[lane],
            )
            assert lane_values.lane_values(lane) == reference

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("seed", range(25, 35))
    def test_step_cycles_match_scalar_trace(self, seed, engine_cls, fault_triples):
        """Multi-cycle traces: per-cycle fault lanes, register feedback, and
        the final cycle's D-net codes (the next register state per lane)."""
        rng = random.Random(seed)
        netlist = random_netlist(rng, f"randreg{seed}", min_flops=1)
        simulator = NetlistSimulator(netlist)
        compiled = engine_cls(netlist)
        flops = netlist.flops()
        targets = injectable_nets(netlist, include_inputs=True)

        inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
        registers = {net: rng.randint(0, 1) for net in simulator.registers}
        num_lanes = 9
        cycle_lanes = [
            [None]
            + [
                random_fault_set(rng, targets) if rng.random() < 0.7 else None
                for _ in range(num_lanes - 1)
            ]
            for _ in range(3)
        ]
        values = compiled.step_cycles_fault_arrays(
            inputs,
            [fault_triples(compiled.net_id, lanes) for lanes in cycle_lanes],
            num_lanes,
            registers=registers,
        )
        codes = values.read_words_by_id([d_id for _, d_id in compiled.flop_d_ids])
        for lane in range(num_lanes):
            state = dict(registers)
            for lanes in cycle_lanes:
                reference = simulator.evaluate(
                    inputs, faults=lanes[lane] or FaultSet(), registers=state
                )
                state = {flop.output: reference[flop.inputs[0]] for flop in flops}
            assert values.lane_values(lane) == reference
            expected = sum(state[q] << i for i, (q, _) in enumerate(compiled.flop_d_ids))
            assert codes[lane] == expected

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_stuck_at_beats_flip_on_same_net(self, engine_cls, fault_triples):
        netlist = Netlist("prio")
        a = netlist.add_input("a")
        netlist.add_gate(Gate(name="g", gate_type=GateType.BUF, inputs=[a], output="y"))
        compiled = engine_cls(netlist)
        fault = FaultSet(flips=frozenset(["y"]), stuck_at={"y": 1})
        values = compiled.evaluate_fault_arrays(
            {"a": 0}, *fault_triples(compiled.net_id, [None, fault]), 2
        )
        reference = NetlistSimulator(netlist).evaluate({"a": 0}, faults=fault)
        assert values.lane_value("y", 1) == reference["y"] == 1
        assert values.lane_value("y", 0) == 0

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_last_stuck_at_wins_and_repeated_flip_is_one(self, engine_cls):
        """Fault groups keep ``FaultSet`` semantics: of two stuck-ats on one
        net in one lane the later one wins, and a repeated flip flips once."""
        netlist = Netlist("order")
        a = netlist.add_input("a")
        netlist.add_gate(Gate(name="g", gate_type=GateType.BUF, inputs=[a], output="y"))
        compiled = engine_cls(netlist)
        y = compiled.net_id["y"]
        rows = np.array([y, y, y, y, y, y], dtype=np.intp)
        lanes = np.array([1, 1, 2, 2, 3, 3], dtype=np.intp)
        modes = np.array(
            [MODE_STUCK0, MODE_STUCK1, MODE_STUCK1, MODE_STUCK0, MODE_FLIP, MODE_FLIP],
            dtype=np.uint8,
        )
        values = compiled.evaluate_fault_arrays({"a": 0}, rows, lanes, modes, 4)
        assert [values.lane_value("y", lane) for lane in range(4)] == [0, 1, 0, 1]

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_requires_at_least_one_lane(self, engine_cls):
        netlist = Netlist("empty_lanes")
        netlist.add_input("a")
        compiled = engine_cls(netlist)
        with pytest.raises(ValueError, match="lane"):
            compiled.evaluate_fault_arrays({"a": 1}, *_no_faults(), 0)
        with pytest.raises(ValueError, match="cycle"):
            compiled.step_cycles_fault_arrays({"a": 1}, [], 1)


class TestPickling:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_pickle_round_trip_preserves_evaluation(self, engine_cls):
        """Compiled netlists survive pickling (spawn-pool safety)."""
        import pickle

        rng = random.Random(13)
        netlist = random_netlist(rng, "pickled")
        compiled = engine_cls(netlist)
        restored = pickle.loads(pickle.dumps(compiled))
        inputs = {net: rng.randrange(2) for net in netlist.primary_inputs}
        original = compiled.evaluate_fault_arrays(inputs, *_no_faults(), 1)
        rebuilt = restored.evaluate_fault_arrays(inputs, *_no_faults(), 1)
        for net in compiled.net_id:
            assert rebuilt.word(net) == original.word(net)


class TestProtectedNetlistEquivalence:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_lanes_match_on_scfi_netlist(
        self, protected_traffic_light, engine_cls, fault_triples
    ):
        structure = protected_traffic_light.structure
        simulator = NetlistSimulator(structure.netlist)
        compiled = engine_cls(structure.netlist)
        rng = random.Random(99)
        targets = injectable_nets(structure.netlist, include_inputs=True)
        reset_code = structure.hardened.state_encoding[structure.hardened.fsm.reset_state]
        registers = {net: (reset_code >> i) & 1 for i, net in enumerate(structure.state_q)}
        inputs = {net: rng.randint(0, 1) for net in structure.netlist.primary_inputs}
        lanes = [None] + [random_fault_set(rng, targets) for _ in range(64)]
        lane_values = compiled.evaluate_fault_arrays(
            inputs, *fault_triples(compiled.net_id, lanes), len(lanes), registers=registers
        )
        for lane, fault_set in enumerate(lanes):
            reference = simulator.evaluate(
                inputs, faults=fault_set or FaultSet(), registers=registers
            )
            assert lane_values.lane_values(lane) == reference


class TestIbexLsuRegression:
    """Campaign counters must be identical pre/post refactor on ibex_lsu_fsm.

    The literal counter tuples below were produced by the scalar
    one-injection-at-a-time implementation that predates the bit-parallel
    engine; both engines must keep reproducing them exactly.
    """

    @pytest.fixture(scope="class")
    def ibex_structure(self):
        return protect_fsm(
            ibex_lsu_fsm(), ScfiOptions(protection_level=2, generate_verilog=False)
        ).structure

    def test_diffusion_counters_all_engines(self, ibex_structure):
        parallel = exhaustive_single_fault_campaign(ibex_structure, engine="parallel")
        vector = exhaustive_single_fault_campaign(ibex_structure, engine="parallel-numpy")
        scalar = exhaustive_single_fault_campaign(ibex_structure, engine="scalar")
        assert parallel.counters() == vector.counters() == scalar.counters() == (0, 238, 0, 0)

    def test_comb_cloud_counters_all_engines(self, ibex_structure):
        parallel = exhaustive_single_fault_campaign(
            ibex_structure, target_nets="comb", engine="parallel"
        )
        vector = exhaustive_single_fault_campaign(
            ibex_structure, target_nets="comb", engine="parallel-numpy"
        )
        scalar = exhaustive_single_fault_campaign(ibex_structure, target_nets="comb", engine="scalar")
        assert (
            parallel.counters()
            == vector.counters()
            == scalar.counters()
            == (1369, 1479, 74, 88)
        )

    def test_random_campaign_counters_engine_independent(self, ibex_structure):
        parallel = random_multi_fault_campaign(
            ibex_structure, num_faults=2, trials=400, seed=11, engine="parallel"
        )
        vector = random_multi_fault_campaign(
            ibex_structure, num_faults=2, trials=400, seed=11, engine="parallel-numpy"
        )
        scalar = random_multi_fault_campaign(
            ibex_structure, num_faults=2, trials=400, seed=11, engine="scalar"
        )
        assert parallel.counters() == vector.counters() == scalar.counters()
        assert parallel.total_injections == 400
