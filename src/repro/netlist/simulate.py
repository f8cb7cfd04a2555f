"""Levelised logic simulation, and the fault model as a netlist rewrite.

:class:`NetlistSimulator` evaluates the combinational cloud of a netlist
given the primary inputs and the current flip-flop outputs; it knows nothing
about faults.  :class:`InstrumentedNetlist` puts the fault model of the paper
(Section 2.1) into gates, like HARPOON's node rewiring: every reader of a
faultable net ``n`` reads ``MUX2(XOR2(n, n__f), n__v, n__s)`` with fresh
flip, stuck-value and stick inputs.  The fault rule -- a stuck-at beats a
flip, the last stuck-at on a net wins, a repeated flip is one flip -- is then
a property of the cells and of the order a driver sets their inputs in.  This
is the reference oracle the bit-parallel engines
(:mod:`repro.netlist.parallel`, :mod:`repro.netlist.parallel_np`) are
cross-checked against lane for lane.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.gates import CELL_FUNCTIONS, Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK1


class NetlistSimulator:
    """Evaluates a netlist cycle by cycle."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.topological_order()
        #: ``(output, cell function, operand nets a, b, c)`` per gate, in
        #: topological order (unused operands are ``None``), so evaluation
        #: skips the per-gate type dispatch.
        self._program = [
            (gate.output, CELL_FUNCTIONS[gate.gate_type], *gate.inputs)
            + (None,) * (3 - len(gate.inputs))
            for gate in self._order
        ]
        self._flops = netlist.flops()
        self.registers: Dict[str, int] = {flop.output: 0 for flop in self._flops}
        self._no_inputs = dict.fromkeys(netlist.primary_inputs, 0)

    # ------------------------------------------------------------------
    # Register state
    # ------------------------------------------------------------------
    def set_registers(self, values: Mapping[str, int]) -> None:
        """Force flip-flop outputs (e.g. to load an encoded state)."""
        for net, value in values.items():
            if net not in self.registers:
                raise KeyError(f"{net!r} is not a flip-flop output")
            self.registers[net] = int(value) & 1

    def set_register_word(self, q_bits: List[str], value: int) -> None:
        """Load an integer into an ordered list of flop outputs (LSB first)."""
        self.set_registers({net: (value >> i) & 1 for i, net in enumerate(q_bits)})

    def read_register_word(self, q_bits: List[str]) -> int:
        return sum(self.registers[net] << i for i, net in enumerate(q_bits))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        inputs: Mapping[str, int],
        registers: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate the combinational logic once and return every net value.

        ``inputs`` maps primary-input nets to values; missing inputs default
        to zero and names that are not primary inputs are ignored.
        ``registers`` overrides the stored flip-flop outputs for this
        evaluation only; like :meth:`set_registers` it raises ``KeyError``
        for a name that is not a flip-flop output.
        """
        values = self._no_inputs.copy()
        for net, value in inputs.items():
            if net in values:
                values[net] = int(value) & 1
        values.update(self.registers)
        if registers:
            unknown = registers.keys() - self.registers.keys()
            if unknown:
                raise KeyError(f"{min(unknown)!r} is not a flip-flop output")
            values.update({k: int(v) & 1 for k, v in registers.items()})
        for output, function, a, b, c in self._program:
            values[output] = function(values, a, b, c)
        return values

    def next_register_values(
        self,
        inputs: Mapping[str, int],
        registers: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Values the flip-flops would capture at the next clock edge."""
        values = self.evaluate(inputs, registers=registers)
        return {flop.output: values[flop.inputs[0]] for flop in self._flops}

    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Advance one clock cycle (registers updated in place) and return net values."""
        values = self.evaluate(inputs)
        for flop in self._flops:
            self.registers[flop.output] = values[flop.inputs[0]]
        return values

    # ------------------------------------------------------------------
    # Convenience helpers
    # ------------------------------------------------------------------
    def read_word(self, values: Mapping[str, int], bits: List[str]) -> int:
        """Assemble an integer from per-bit net values (LSB first)."""
        return sum((int(values[bit]) & 1) << i for i, bit in enumerate(bits))

    @staticmethod
    def spread_word(bits: List[str], value: int) -> Dict[str, int]:
        """Split an integer into a per-net input mapping (LSB first)."""
        return {bit: (value >> i) & 1 for i, bit in enumerate(bits)}


#: A fault as the oracle takes it: ``(net row, fault mode)``, both as in the
#: compiled engines' flat fault arrays.
FaultRow = Tuple[int, int]


class InstrumentedNetlist:
    """A netlist whose every faultable net is read through a fault cell.

    ``net_id`` numbers the faultable nets in the compiled engines' row order
    (primary inputs, flop outputs, gate outputs in topological order), so
    the campaign IR lowers onto this oracle exactly as onto them.  A fault
    group is a sequence of ``(row, mode)`` pairs that :meth:`fault_inputs`
    turns into control-input values, in group order; the gates do the rest.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        nets = list(netlist.primary_inputs) + netlist.flop_outputs()
        nets += [gate.output for gate in netlist.topological_order()]
        self.net_id: Dict[str, int] = {net: row for row, net in enumerate(nets)}
        #: The net every reader of a faultable net reads instead.
        self.read: Dict[str, str] = {net: f"{net}__r" for net in nets}
        #: ``(flip, stick, value)`` control inputs per row.
        self._controls = [(f"{net}__f", f"{net}__s", f"{net}__v") for net in nets]
        rewritten = Netlist(f"{netlist.name}__fi")
        for net in netlist.primary_inputs + [c for cell in self._controls for c in cell]:
            rewritten.add_input(net)
        for gate in netlist.gates.values():
            rewritten.add_gate(replace(gate, inputs=[self.read[net] for net in gate.inputs]))
        for net, (flip, stick, value) in zip(nets, self._controls):
            rewritten.add_gate(Gate(f"{net}__fx", GateType.XOR2, [net, flip], f"{net}__x"))
            rewritten.add_gate(
                Gate(f"{net}__fm", GateType.MUX2, [f"{net}__x", value, stick], self.read[net])
            )
        for net in netlist.primary_outputs:
            rewritten.add_output(self.read[net])
        self.netlist = rewritten
        self.simulator = NetlistSimulator(rewritten)
        #: ``(flop output, net the flop captures)`` for register feedback.
        self._feedback = [(flop.output, self.read[flop.inputs[0]]) for flop in netlist.flops()]

    def fault_inputs(self, faults: Iterable[FaultRow]) -> Dict[str, int]:
        """The control-input values that inject one fault group.

        A flip sets its net's flip input; a stuck-at sets the stick input
        and writes the stuck value, so of two stuck-ats on one net the later
        one is what the cell sees.  The MUX2 lets a stuck-at beat a flip, and
        setting a flip input twice is one flip.
        """
        values: Dict[str, int] = {}
        for row, mode in faults:
            flip, stick, value = self._controls[row]
            if mode == MODE_FLIP:
                values[flip] = 1
            else:
                values[stick] = 1
                values[value] = int(mode == MODE_STUCK1)
        return values

    def trace(
        self,
        inputs: Mapping[str, int],
        cycle_faults: Sequence[Iterable[FaultRow]],
        registers: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Step ``len(cycle_faults)`` cycles, holding the inputs, with
        ``cycle_faults[t]`` active in cycle ``t``; every flop captures what
        its D net's readers see.  Returns the rewritten netlist's last values
        (read original nets through :attr:`read` or :meth:`read_word`)."""
        if not cycle_faults:
            raise ValueError("at least one cycle is required")
        evaluate = self.simulator.evaluate
        values: Dict[str, int] = {}
        for cycle, faults in enumerate(cycle_faults):
            if cycle:
                registers = {q: values[d] for q, d in self._feedback}
            values = evaluate({**inputs, **self.fault_inputs(faults)}, registers=registers)
        return values

    def read_word(self, values: Mapping[str, int], bits: Sequence[str]) -> int:
        """An integer from the values the readers of ``bits`` see (LSB first)."""
        read = self.read
        return sum(values[read[bit]] << i for i, bit in enumerate(bits))

    def evaluate(
        self,
        inputs: Mapping[str, int],
        faults: Iterable[FaultRow] = (),
        registers: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """One evaluation with one fault group active: every faultable net's
        value as its readers see it, in :meth:`NetlistSimulator.evaluate`
        format."""
        values = self.trace(inputs, [faults], registers=registers)
        return {net: values[read] for net, read in self.read.items()}


def injectable_nets(netlist: Netlist, include_inputs: bool = False) -> List[str]:
    """Nets that a fault campaign may target (gate outputs, optionally inputs).

    Constant tie cells are excluded: a fault on a tie output is equivalent to a
    fault on every reader and inflates campaign sizes without adding coverage.
    """
    nets: List[str] = [
        gate.output for gate in netlist.gates.values() if not gate.gate_type.is_constant
    ]
    if include_inputs:
        nets.extend(netlist.primary_inputs)
    return sorted(set(nets))
