"""Levelised logic simulation with fault-injection hooks.

The simulator evaluates the combinational cloud of a netlist given the primary
inputs and the current flip-flop outputs.  Faults are expressed as
:class:`FaultSet` overrides on nets: a *flip* inverts whatever value the
driver produced, a *stuck-at* forces the value.  Both transient (single
evaluation) and permanent (caller re-applies every cycle) behaviour can be
modelled, matching the fault model of the paper (Section 2.1).

This scalar simulator is the reference oracle; bulk fault campaigns run on
the bit-parallel :class:`~repro.netlist.parallel.CompiledNetlist` engine,
which evaluates many fault lanes per pass and is cross-checked against this
implementation lane for lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.netlist.gates import CELL_FUNCTIONS
from repro.netlist.netlist import Netlist


@dataclass
class FaultSet:
    """Net-level fault overrides applied during one combinational evaluation."""

    flips: frozenset = field(default_factory=frozenset)
    stuck_at: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def single_flip(cls, net: str) -> "FaultSet":
        return cls(flips=frozenset([net]))

    @classmethod
    def flips_of(cls, nets: Iterable[str]) -> "FaultSet":
        return cls(flips=frozenset(nets))

    @classmethod
    def stuck(cls, net: str, value: int) -> "FaultSet":
        return cls(stuck_at={net: int(value) & 1})

    @property
    def is_empty(self) -> bool:
        return not self.flips and not self.stuck_at

    def apply(self, net: str, value: int) -> int:
        if net in self.stuck_at:
            return self.stuck_at[net]
        if net in self.flips:
            return 1 - value
        return value


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
        faults: Optional[FaultSet] = None,
        registers: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate the combinational logic once and return every net value.

        ``inputs`` maps primary-input nets to values; missing inputs default
        to zero.  ``registers`` overrides the stored flip-flop outputs for
        this evaluation only.
        """
        faults = faults or FaultSet(frozenset(), {})
        apply = faults.apply
        values: Dict[str, int] = {}
        reg_values = dict(self.registers)
        if registers:
            reg_values.update({k: int(v) & 1 for k, v in registers.items()})
        for net in self.netlist.primary_inputs:
            values[net] = apply(net, int(inputs.get(net, 0)) & 1)
        for net, value in reg_values.items():
            values[net] = apply(net, value)
        if faults.is_empty:
            for output, function, a, b, c in self._program:
                values[output] = function(values, a, b, c)
        else:
            for output, function, a, b, c in self._program:
                values[output] = apply(output, function(values, a, b, c))
        return values

    def next_register_values(
        self,
        inputs: Mapping[str, int],
        faults: Optional[FaultSet] = None,
        registers: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Values the flip-flops would capture at the next clock edge."""
        values = self.evaluate(inputs, faults=faults, registers=registers)
        next_values: Dict[str, int] = {}
        for flop in self._flops:
            next_values[flop.output] = values[flop.inputs[0]]
        return next_values

    def step(self, inputs: Mapping[str, int], faults: Optional[FaultSet] = None) -> Dict[str, int]:
        """Advance one clock cycle (registers updated in place) and return net values."""
        values = self.evaluate(inputs, faults=faults)
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
