"""Tests for the levelised simulator and the fault cells of the instrumented netlist."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK0, MODE_STUCK1
from repro.netlist.simulate import InstrumentedNetlist, NetlistSimulator, injectable_nets


def xor_chain_netlist():
    """q <= a ^ b, with an intermediate inverter pair to have internal nets."""
    builder = NetlistBuilder("chain")
    a = builder.add_input("a")[0]
    b = builder.add_input("b")[0]
    x = builder.xor_(a, b)
    inv1 = builder.not_(x)
    inv2 = builder.not_(inv1)
    q = builder.register([inv2], "q")
    builder.add_output(q, "q_out")
    return builder, {"a": a, "b": b, "x": x, "inv1": inv1, "inv2": inv2, "q": q[0]}


def _group(oracle, *faults):
    """``(net, mode)`` faults as the oracle's ``(row, mode)`` group."""
    return [(oracle.net_id[net], mode) for net, mode in faults]


class TestSimulator:
    def test_combinational_evaluation(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        values = simulator.evaluate({"a": 1, "b": 0})
        assert values[nets["x"]] == 1
        assert values[nets["inv2"]] == 1

    def test_missing_inputs_default_to_zero(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        assert simulator.evaluate({})[nets["x"]] == 0

    def test_step_updates_registers(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        simulator.step({"a": 1, "b": 0})
        assert simulator.registers[nets["q"]] == 1
        simulator.step({"a": 0, "b": 0})
        assert simulator.registers[nets["q"]] == 0

    def test_register_override_per_evaluation(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        values = simulator.evaluate({}, registers={nets["q"]: 1})
        assert values[nets["q"]] == 1
        # The stored state is untouched.
        assert simulator.registers[nets["q"]] == 0

    def test_set_registers_validation(self):
        builder, _ = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        with pytest.raises(KeyError):
            simulator.set_registers({"not_a_flop": 1})

    def test_evaluate_rejects_unknown_register_names(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        assert nets["q"] != "q"
        with pytest.raises(KeyError, match="'q' is not a flip-flop output"):
            simulator.evaluate({}, registers={"q": 1})
        with pytest.raises(KeyError, match="is not a flip-flop output"):
            simulator.next_register_values({}, registers={nets["q"]: 1, nets["x"]: 0})

    def test_register_word_helpers(self):
        builder = NetlistBuilder("regs")
        d = builder.add_input("d", 4)
        q = builder.register(d, "r")
        builder.add_output(q, "ro")
        simulator = NetlistSimulator(builder.netlist)
        simulator.set_register_word(q, 0b1011)
        assert simulator.read_register_word(q) == 0b1011

    def test_next_register_values_does_not_commit(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        next_values = simulator.next_register_values({"a": 1, "b": 0})
        assert next_values[nets["q"]] == 1
        assert simulator.registers[nets["q"]] == 0


class TestFaultCells:
    """The fault rule lives in the instrumented netlist's gates: one
    ``MUX2(XOR2(n, n__f), n__v, n__s)`` cell per faultable net."""

    def test_rewrite_adds_two_gates_and_three_inputs_per_net(self):
        builder, _ = xor_chain_netlist()
        netlist = builder.netlist
        oracle = InstrumentedNetlist(netlist)
        faultable = len(netlist.primary_inputs) + len(netlist.gates)
        assert len(oracle.net_id) == faultable
        assert len(oracle.netlist.gates) == len(netlist.gates) + 2 * faultable
        assert len(oracle.netlist.primary_inputs) == len(netlist.primary_inputs) + 3 * faultable
        assert oracle.netlist.count(GateType.MUX2) == faultable

    def test_no_faults_evaluates_like_the_plain_simulator(self):
        builder, nets = xor_chain_netlist()
        simulator = NetlistSimulator(builder.netlist)
        oracle = InstrumentedNetlist(builder.netlist)
        for a in (0, 1):
            for q in (0, 1):
                inputs, registers = {"a": a, "b": 1}, {nets["q"]: q}
                assert oracle.evaluate(inputs, registers=registers) == simulator.evaluate(
                    inputs, registers=registers
                )

    def test_flip_inverts_either_value(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        for a in (0, 1):
            flipped = oracle.evaluate({"a": a, "b": 0}, _group(oracle, (nets["x"], MODE_FLIP)))
            assert flipped[nets["x"]] == 1 - a

    def test_stuck_at_forces_either_value(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        for a in (0, 1):
            for mode, value in ((MODE_STUCK0, 0), (MODE_STUCK1, 1)):
                stuck = oracle.evaluate({"a": a, "b": 0}, _group(oracle, (nets["x"], mode)))
                assert stuck[nets["x"]] == value
                assert stuck[nets["inv2"]] == value

    @pytest.mark.parametrize("order", ["flip-first", "stuck-first"])
    def test_stuck_at_beats_flip(self, order):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        faults = [(nets["x"], MODE_FLIP), (nets["x"], MODE_STUCK1)]
        if order == "stuck-first":
            faults.reverse()
        for a in (0, 1):
            values = oracle.evaluate({"a": a, "b": 0}, _group(oracle, *faults))
            assert values[nets["x"]] == 1

    def test_last_stuck_at_wins(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        x = nets["x"]
        for first, last, value in ((MODE_STUCK0, MODE_STUCK1, 1), (MODE_STUCK1, MODE_STUCK0, 0)):
            values = oracle.evaluate({"a": 1, "b": 1}, _group(oracle, (x, first), (x, last)))
            assert values[x] == value

    def test_repeated_flip_counts_once(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        inv1 = nets["inv1"]
        clean = oracle.evaluate({"a": 1, "b": 0})
        for repeats in (1, 2, 3):
            values = oracle.evaluate({"a": 1, "b": 0}, _group(oracle, *[(inv1, MODE_FLIP)] * repeats))
            assert values[inv1] == 1 - clean[inv1]

    def test_fault_on_state_d_net_is_captured(self):
        """The flop reads its D net through the fault cell: a stuck-at on the
        D net is what the register holds after the clock edge."""
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        d, q = nets["inv2"], nets["q"]
        clean = oracle.trace({"a": 1, "b": 0}, [(), ()])
        assert clean[q] == 1
        stuck = oracle.trace({"a": 1, "b": 0}, [_group(oracle, (d, MODE_STUCK0)), ()])
        assert stuck[q] == 0
        # Held across both cycles, the D net's readers see it stuck as well,
        # while its driver still computes the fault-free value.
        held = _group(oracle, (d, MODE_STUCK0))
        values = oracle.trace({"a": 1, "b": 0}, [held, held])
        assert (values[oracle.read[d]], values[d]) == (0, 1)

    def test_trace_requires_a_cycle(self):
        builder, _ = xor_chain_netlist()
        with pytest.raises(ValueError, match="cycle"):
            InstrumentedNetlist(builder.netlist).trace({}, [])


class TestFaultInjection:
    def test_flip_on_internal_net_propagates(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        clean = oracle.evaluate({"a": 1, "b": 0})
        faulty = oracle.evaluate({"a": 1, "b": 0}, _group(oracle, (nets["inv1"], MODE_FLIP)))
        assert clean[nets["inv2"]] != faulty[nets["inv2"]]

    def test_flip_on_primary_input(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        faulty = oracle.evaluate({"a": 1, "b": 0}, _group(oracle, ("a", MODE_FLIP)))
        assert faulty["a"] == 0
        assert faulty[nets["x"]] == 0

    def test_stuck_at_on_register_output(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        values = oracle.evaluate({}, _group(oracle, (nets["q"], MODE_STUCK1)))
        assert values[nets["q"]] == 1

    def test_double_flip_cancels_on_same_path(self):
        builder, nets = xor_chain_netlist()
        oracle = InstrumentedNetlist(builder.netlist)
        clean = oracle.evaluate({"a": 1, "b": 1})
        faulty = oracle.evaluate(
            {"a": 1, "b": 1}, _group(oracle, (nets["inv1"], MODE_FLIP), (nets["x"], MODE_FLIP))
        )
        # Flipping both the XOR output and the inverter output restores the value.
        assert clean[nets["inv2"]] == faulty[nets["inv2"]]


class TestInjectableNets:
    def test_constants_excluded(self):
        netlist = Netlist("n")
        netlist.add_gate(Gate("tie", GateType.TIE1, [], "one"))
        netlist.add_gate(Gate("buf", GateType.BUF, ["one"], "y"))
        netlist.add_output("y")
        nets = injectable_nets(netlist)
        assert "one" not in nets
        assert "y" in nets

    def test_inputs_optional(self):
        builder, _ = xor_chain_netlist()
        without = injectable_nets(builder.netlist)
        with_inputs = injectable_nets(builder.netlist, include_inputs=True)
        assert "a" not in without
        assert "a" in with_inputs
        assert set(without).issubset(set(with_inputs))
