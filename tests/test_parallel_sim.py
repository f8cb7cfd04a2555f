"""Property-based equivalence of the bit-parallel engine and the scalar oracle.

Hypothesis-style: seeded random netlists (random DAGs over every supported
cell type, with flip-flop feedback) and random per-lane fault groups are
thrown at the bignum and the word-sliced numpy bit-parallel evaluators --
with one context shared by every lane and with a context per lane, over one
cycle and over multi-cycle traces -- and every net of every lane must match
the :class:`InstrumentedNetlist` oracle (the netlist with its fault cells as
gates, evaluated by the plain ``NetlistSimulator``) under the same group.
Both engines run through ``step_cycles_fault_arrays``: the ``fault_triples``
fixture converts each lane's ``(net, mode)`` group into flat ``(net id,
lane, mode)`` triples, and the ``lane_words`` fixture turns scalar contexts
into each engine's lane words.  Lane counts cross the 64-lane word boundaries, and raw triples with
conflicting or repeated faults on one net and lane are checked on both
engines against each other and the oracle.  The numpy engine's private
row layout must leave every shared id unchanged.  A regression block pins
the ``ibex_lsu_fsm`` campaign counters to the values produced by the
pre-refactor scalar implementation on every campaign engine.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import ExhaustiveSingleFault, RandomMultiFault
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.netlist.gates import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK0, MODE_STUCK1, CompiledNetlist
from repro.netlist.parallel_np import NumpyCompiledNetlist
from repro.netlist.simulate import InstrumentedNetlist, injectable_nets

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


def random_fault_group(rng: random.Random, nets):
    """``(net, mode)`` pairs: flips on some distinct nets, stuck-ats on others."""
    count = rng.randint(1, 4)
    chosen = rng.sample(nets, min(count, len(nets)))
    split = rng.randint(0, len(chosen))
    return [(net, MODE_FLIP) for net in sorted(chosen[:split])] + [
        (net, (MODE_STUCK0, MODE_STUCK1)[rng.randint(0, 1)]) for net in chosen[split:]
    ]


def oracle_rows(oracle: InstrumentedNetlist, group):
    """One lane's ``(net, mode)`` group as the oracle's ``(row, mode)`` pairs."""
    return [(oracle.net_id[net], mode) for net, mode in group or ()]


def _no_faults():
    return (np.array([], dtype=np.intp),) * 2 + (np.array([], dtype=np.uint8),)


class TestRandomNetlistEquivalence:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("seed", range(25))
    def test_all_nets_match_lane_for_lane(self, seed, engine_cls, fault_triples, lane_words):
        rng = random.Random(seed)
        netlist = random_netlist(rng, f"rand{seed}")
        oracle = InstrumentedNetlist(netlist)
        compiled = engine_cls(netlist)
        targets = injectable_nets(netlist, include_inputs=True)

        inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
        registers = {net: rng.randint(0, 1) for net in netlist.flop_outputs()}
        lanes = [None] + [random_fault_group(rng, targets) for _ in range(rng.randint(1, 33))]

        num_lanes = len(lanes)
        lane_values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, inputs, num_lanes),
            [fault_triples(compiled.net_id, lanes)],
            num_lanes,
            registers=lane_words(compiled, registers, num_lanes),
        )
        assert lane_values.num_lanes == len(lanes)
        for lane, group in enumerate(lanes):
            reference = oracle.evaluate(inputs, oracle_rows(oracle, group), registers=registers)
            assert lane_values.lane_values(lane) == reference

    @pytest.mark.parametrize("seed", range(50))
    def test_numpy_engine_keeps_the_shared_ids(self, seed):
        """The numpy engine's row layout is private: every id it exposes is
        the bignum engine's."""
        netlist = random_netlist(random.Random(seed), f"ids{seed}", min_flops=seed % 2)
        bignum = CompiledNetlist(netlist)
        vector = NumpyCompiledNetlist(netlist)
        assert vector.net_id == bignum.net_id
        assert vector.ops == bignum.ops
        assert vector.input_ids == bignum.input_ids
        assert vector.register_ids == bignum.register_ids
        assert vector.flop_d_ids == bignum.flop_d_ids

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_keeps_the_shared_ids(self, seed):
        """The instrumented oracle numbers the faultable nets like the
        compiled engines, so one lowered IR drives all three."""
        netlist = random_netlist(random.Random(seed), f"oids{seed}", min_flops=seed % 2)
        assert InstrumentedNetlist(netlist).net_id == CompiledNetlist(netlist).net_id

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("num_lanes", [1, 64, 65, 130])
    @pytest.mark.parametrize("seed", range(60, 66))
    def test_lane_counts_across_word_boundaries(
        self, seed, num_lanes, engine_cls, fault_triples, lane_words
    ):
        rng = random.Random(seed * 1000 + num_lanes)
        netlist = random_netlist(rng, f"randwide{seed}", min_flops=1)
        oracle = InstrumentedNetlist(netlist)
        compiled = engine_cls(netlist)
        targets = injectable_nets(netlist, include_inputs=True)

        inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
        registers = {net: rng.randint(0, 1) for net in netlist.flop_outputs()}
        lanes = [
            random_fault_group(rng, targets) if rng.random() < 0.8 else None
            for _ in range(num_lanes)
        ]
        lane_values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, inputs, num_lanes),
            [fault_triples(compiled.net_id, lanes)],
            num_lanes,
            registers=lane_words(compiled, registers, num_lanes),
        )
        for net in compiled.net_id:
            assert lane_values.word(net) >> num_lanes == 0, net
        for lane, group in enumerate(lanes):
            reference = oracle.evaluate(inputs, oracle_rows(oracle, group), registers=registers)
            assert lane_values.lane_values(lane) == reference

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("seed", range(40, 50))
    def test_lane_word_inputs_evaluate_distinct_contexts(
        self, seed, engine_cls, fault_triples, lane_words
    ):
        """Every lane may carry its own input/state context."""
        rng = random.Random(seed)
        netlist = random_netlist(rng, f"randctx{seed}", min_flops=1)
        oracle = InstrumentedNetlist(netlist)
        registers = netlist.flop_outputs()
        compiled = engine_cls(netlist)
        targets = injectable_nets(netlist, include_inputs=True)

        num_lanes = rng.randint(2, 40)
        lanes = [
            None if rng.random() < 0.3 else random_fault_group(rng, targets)
            for _ in range(num_lanes)
        ]
        per_lane_inputs = [
            {net: rng.randint(0, 1) for net in netlist.primary_inputs}
            for _ in range(num_lanes)
        ]
        per_lane_registers = [
            {net: rng.randint(0, 1) for net in registers} for _ in range(num_lanes)
        ]
        lane_values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, per_lane_inputs, num_lanes),
            [fault_triples(compiled.net_id, lanes)],
            num_lanes,
            registers=lane_words(compiled, per_lane_registers, num_lanes),
        )
        for lane, group in enumerate(lanes):
            reference = oracle.evaluate(
                per_lane_inputs[lane],
                oracle_rows(oracle, group),
                registers=per_lane_registers[lane],
            )
            assert lane_values.lane_values(lane) == reference

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize("seed", range(25, 35))
    def test_step_cycles_match_scalar_trace(self, seed, engine_cls, fault_triples, lane_words):
        """Multi-cycle traces: per-cycle fault lanes, register feedback, and
        the final cycle's D-net codes (the next register state per lane)."""
        rng = random.Random(seed)
        netlist = random_netlist(rng, f"randreg{seed}", min_flops=1)
        oracle = InstrumentedNetlist(netlist)
        compiled = engine_cls(netlist)
        flops = netlist.flops()
        targets = injectable_nets(netlist, include_inputs=True)

        inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
        registers = {net: rng.randint(0, 1) for net in netlist.flop_outputs()}
        num_lanes = 9
        cycle_lanes = [
            [None]
            + [
                random_fault_group(rng, targets) if rng.random() < 0.7 else None
                for _ in range(num_lanes - 1)
            ]
            for _ in range(3)
        ]
        values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, inputs, num_lanes),
            [fault_triples(compiled.net_id, lanes) for lanes in cycle_lanes],
            num_lanes,
            registers=lane_words(compiled, registers, num_lanes),
        )
        codes = values.codes_by_id([d_id for _, d_id in compiled.flop_d_ids])
        for lane in range(num_lanes):
            state = dict(registers)
            for lanes in cycle_lanes:
                reference = oracle.evaluate(
                    inputs, oracle_rows(oracle, lanes[lane]), registers=state
                )
                state = {flop.output: reference[flop.inputs[0]] for flop in flops}
            assert values.lane_values(lane) == reference
            # The oracle's own multi-cycle driver ends on the same values.
            traced = oracle.trace(
                inputs, [oracle_rows(oracle, lanes[lane]) for lanes in cycle_lanes], registers
            )
            assert {net: traced[read] for net, read in oracle.read.items()} == reference
            expected = sum(state[q] << i for i, (q, _) in enumerate(compiled.flop_d_ids))
            assert codes[lane] == expected

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_stuck_at_beats_flip_on_same_net(self, engine_cls, fault_triples, lane_words):
        netlist = Netlist("prio")
        a = netlist.add_input("a")
        netlist.add_gate(Gate(name="g", gate_type=GateType.BUF, inputs=[a], output="y"))
        compiled = engine_cls(netlist)
        fault = [("y", MODE_FLIP), ("y", MODE_STUCK1)]
        values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, {"a": 0}, 2), [fault_triples(compiled.net_id, [None, fault])], 2
        )
        oracle = InstrumentedNetlist(netlist)
        reference = oracle.evaluate({"a": 0}, oracle_rows(oracle, fault))
        assert values.lane_value("y", 1) == reference["y"] == 1
        assert values.lane_value("y", 0) == 0

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_last_stuck_at_wins_and_repeated_flip_is_one(self, engine_cls, lane_words):
        """Fault groups keep the oracle's fault rule: of two stuck-ats on one
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
        values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, {"a": 0}, 4), [(rows, lanes, modes)], 4
        )
        assert [values.lane_value("y", lane) for lane in range(4)] == [0, 1, 0, 1]

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_requires_at_least_one_lane(self, engine_cls):
        netlist = Netlist("empty_lanes")
        netlist.add_input("a")
        compiled = engine_cls(netlist)
        with pytest.raises(ValueError, match="lane"):
            compiled.step_cycles_fault_arrays({}, [_no_faults()], 0)
        with pytest.raises(ValueError, match="cycle"):
            compiled.step_cycles_fault_arrays({}, [], 1)


def _lane_groups(rows, lanes, modes, num_lanes):
    """The oracle fault group of every lane that raw fault triples define:
    each lane's ``(row, mode)`` pairs in triple order."""
    groups = [[] for _ in range(num_lanes)]
    for row, lane, mode in zip(rows.tolist(), lanes.tolist(), modes.tolist()):
        groups[lane].append((row, mode))
    return groups


def _triple_arrays(entries):
    rows, lanes, modes = zip(*entries)
    return (
        np.array(rows, dtype=np.intp),
        np.array(lanes, dtype=np.intp),
        np.array(modes, dtype=np.uint8),
    )


def _edge_netlist() -> Netlist:
    """Inputs, registers, both tie cells and a deep buffer chain."""
    netlist = Netlist("edges")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    gates = [
        ("t0", GateType.TIE0, []),
        ("t1", GateType.TIE1, []),
        ("x", GateType.AND2, [a, "t1"]),
        ("y", GateType.OR2, ["x", "t0"]),
        ("z", GateType.XOR2, ["y", "q0"]),
        ("m", GateType.MUX2, ["z", b, "q1"]),
        ("c0", GateType.BUF, ["m"]),
        ("c1", GateType.INV, ["c0"]),
        ("c2", GateType.NAND2, ["c1", "q1"]),
        ("deep", GateType.XNOR2, ["c2", b]),
        ("nq1", GateType.NOR2, [a, "q0"]),
    ]
    for out, gate_type, operands in gates:
        netlist.add_gate(Gate(name=f"g_{out}", gate_type=gate_type, inputs=operands, output=out))
    netlist.add_gate(Gate(name="ff0", gate_type=GateType.DFF, inputs=["deep"], output="q0"))
    netlist.add_gate(Gate(name="ff1", gate_type=GateType.DFF, inputs=["nq1"], output="q1"))
    netlist.add_output("deep")
    netlist.validate()
    return netlist


class TestRawFaultTriples:
    """Raw fault triples -- conflicting and repeated faults on one
    (net, lane) -- and faults on every kind of net, checked on both engines
    against each other and the scalar oracle (which shares their rows)."""

    @staticmethod
    def _check(lane_words, netlist, triples, num_lanes, inputs, registers):
        oracle = InstrumentedNetlist(netlist)
        bignum = CompiledNetlist(netlist)
        vector = NumpyCompiledNetlist(netlist)
        ref, out = (
            engine.step_cycles_fault_arrays(
                lane_words(engine, inputs, num_lanes),
                [triples],
                num_lanes,
                registers=lane_words(engine, registers, num_lanes),
            )
            for engine in (bignum, vector)
        )
        for net in bignum.net_id:
            assert out.word(net) == ref.word(net), net
        for lane, group in enumerate(_lane_groups(*triples, num_lanes)):
            reference = oracle.evaluate(inputs, group, registers=registers)
            assert out.lane_values(lane) == reference, lane

    @pytest.mark.parametrize("num_lanes", [64, 65, 130])
    def test_conflicts_and_every_net_kind(self, num_lanes, lane_words):
        netlist = _edge_netlist()
        net_id = CompiledNetlist(netlist).net_id
        cases = [
            [("y", MODE_FLIP), ("y", MODE_STUCK0)],  # flip, then stuck on one net
            [("y", MODE_STUCK1), ("y", MODE_FLIP)],  # stuck, then flip
            [("z", MODE_FLIP), ("z", MODE_FLIP)],  # a repeated flip is one flip
            [("z", MODE_FLIP)] * 3,
            [("m", MODE_STUCK0), ("m", MODE_STUCK1)],  # the last stuck-at wins
            [("m", MODE_STUCK1), ("m", MODE_STUCK0)],
            [("a", MODE_FLIP)],  # primary input
            [("b", MODE_STUCK1), ("b", MODE_FLIP)],
            [("q0", MODE_FLIP)],  # register
            [("q1", MODE_STUCK0), ("q1", MODE_STUCK1), ("q1", MODE_FLIP)],
            [("t0", MODE_FLIP)],  # tie cells
            [("t1", MODE_STUCK0)],
            [("deep", MODE_FLIP), ("deep", MODE_FLIP)],  # deepest level
            [("deep", MODE_STUCK1), ("a", MODE_FLIP), ("c1", MODE_FLIP), ("c1", MODE_STUCK0)],
        ]
        stride = max(1, (num_lanes - 1) // len(cases))
        entries = [
            (net_id[net], min(1 + k * stride, num_lanes - 1), mode)
            for k, case in enumerate(cases)
            for net, mode in case
        ]
        for inputs in ({"a": 0, "b": 1}, {"a": 1, "b": 0}):
            for registers in ({"q0": 0, "q1": 1}, {"q0": 1, "q1": 0}):
                self._check(
                    lane_words, netlist, _triple_arrays(entries), num_lanes, inputs, registers
                )

    @pytest.mark.parametrize("num_lanes", [1, 65, 130])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_conflicting_triples(self, seed, num_lanes, lane_words):
        rng = random.Random(seed * 7 + num_lanes)
        netlist = random_netlist(rng, f"rawrand{seed}", min_flops=1)
        net_id = CompiledNetlist(netlist).net_id
        rows = list(net_id.values())
        # Few nets, many faults: (net, lane) collisions of every kind.
        hot = rng.sample(rows, min(4, len(rows)))
        modes = (MODE_FLIP, MODE_STUCK0, MODE_STUCK1)
        entries = [
            (rng.choice(hot), rng.randrange(num_lanes), rng.choice(modes))
            for _ in range(3 * num_lanes)
        ]
        inputs = {net: rng.randint(0, 1) for net in netlist.primary_inputs}
        registers = {flop.output: rng.randint(0, 1) for flop in netlist.flops()}
        self._check(lane_words, netlist, _triple_arrays(entries), num_lanes, inputs, registers)

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_trace_reuses_a_repeated_triple_object(self, engine_cls, lane_words):
        """A persistent triple handed to every cycle and a schedule that
        switches triples both match the scalar oracle cycle by cycle."""
        netlist = _edge_netlist()
        oracle = InstrumentedNetlist(netlist)
        compiled = engine_cls(netlist)
        net_id = compiled.net_id
        num_lanes = 66
        first = _triple_arrays(
            [
                (net_id["z"], 1, MODE_STUCK1),
                (net_id["q0"], 65, MODE_FLIP),
                (net_id["c1"], 64, MODE_STUCK0),
            ]
        )
        second = _triple_arrays([(net_id["deep"], 1, MODE_FLIP), (net_id["a"], 65, MODE_STUCK1)])
        inputs = {"a": 1, "b": 0}
        for schedule in ([first] * 4, [first, first, second, first]):
            values = compiled.step_cycles_fault_arrays(
                lane_words(compiled, inputs, num_lanes),
                schedule,
                num_lanes,
                registers=lane_words(compiled, {"q0": 0, "q1": 0}, num_lanes),
            )
            per_cycle = [_lane_groups(*t, num_lanes) for t in schedule]
            for lane in range(num_lanes):
                state = {"q0": 0, "q1": 0}
                for groups in per_cycle:
                    reference = oracle.evaluate(inputs, groups[lane], registers=state)
                    state = {flop.output: reference[flop.inputs[0]] for flop in netlist.flops()}
                assert values.lane_values(lane) == reference, lane


class TestPickling:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_pickle_round_trip_preserves_evaluation(self, engine_cls, lane_words):
        """Compiled netlists survive pickling (spawn-pool safety)."""
        import pickle

        rng = random.Random(13)
        netlist = random_netlist(rng, "pickled")
        compiled = engine_cls(netlist)
        restored = pickle.loads(pickle.dumps(compiled))
        inputs = lane_words(compiled, {net: rng.randrange(2) for net in netlist.primary_inputs}, 1)
        original = compiled.step_cycles_fault_arrays(inputs, [_no_faults()], 1)
        rebuilt = restored.step_cycles_fault_arrays(inputs, [_no_faults()], 1)
        for net in compiled.net_id:
            assert rebuilt.word(net) == original.word(net)


class TestProtectedNetlistEquivalence:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_lanes_match_on_scfi_netlist(
        self, protected_traffic_light, engine_cls, fault_triples, lane_words
    ):
        structure = protected_traffic_light.structure
        oracle = InstrumentedNetlist(structure.netlist)
        compiled = engine_cls(structure.netlist)
        rng = random.Random(99)
        targets = injectable_nets(structure.netlist, include_inputs=True)
        reset_code = structure.hardened.state_encoding[structure.hardened.fsm.reset_state]
        registers = {net: (reset_code >> i) & 1 for i, net in enumerate(structure.state_q)}
        inputs = {net: rng.randint(0, 1) for net in structure.netlist.primary_inputs}
        lanes = [None] + [random_fault_group(rng, targets) for _ in range(64)]
        lane_values = compiled.step_cycles_fault_arrays(
            lane_words(compiled, inputs, len(lanes)),
            [fault_triples(compiled.net_id, lanes)],
            len(lanes),
            registers=lane_words(compiled, registers, len(lanes)),
        )
        for lane, group in enumerate(lanes):
            reference = oracle.evaluate(inputs, oracle_rows(oracle, group), registers=registers)
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
        parallel = FaultCampaign(ibex_structure, engine="parallel").run(ExhaustiveSingleFault())
        vector = FaultCampaign(ibex_structure, engine="parallel-numpy").run(ExhaustiveSingleFault())
        scalar = FaultCampaign(ibex_structure, engine="scalar").run(ExhaustiveSingleFault())
        assert parallel.counters() == vector.counters() == scalar.counters() == (0, 238, 0, 0)

    def test_comb_cloud_counters_all_engines(self, ibex_structure):
        parallel = FaultCampaign(ibex_structure, engine="parallel").run(
            ExhaustiveSingleFault(target_nets="comb")
        )
        vector = FaultCampaign(ibex_structure, engine="parallel-numpy").run(
            ExhaustiveSingleFault(target_nets="comb")
        )
        scalar = FaultCampaign(ibex_structure, engine="scalar").run(
            ExhaustiveSingleFault(target_nets="comb")
        )
        assert (
            parallel.counters()
            == vector.counters()
            == scalar.counters()
            == (1369, 1479, 74, 88)
        )

    def test_random_campaign_counters_engine_independent(self, ibex_structure):
        parallel = FaultCampaign(ibex_structure, engine="parallel").run(
            RandomMultiFault(num_faults=2, trials=400, seed=11)
        )
        vector = FaultCampaign(ibex_structure, engine="parallel-numpy").run(
            RandomMultiFault(num_faults=2, trials=400, seed=11)
        )
        scalar = FaultCampaign(ibex_structure, engine="scalar").run(
            RandomMultiFault(num_faults=2, trials=400, seed=11)
        )
        assert parallel.counters() == vector.counters() == scalar.counters()
        assert parallel.total_injections == 400
