"""Netlist-level fault injectors for the three implementation styles.

Each injector knows how to drive its netlist onto a specific CFG edge (load
the encoded current state into the state register, apply the activating input
vector) and how to read back and classify the next-state value the register
bank would capture, with or without a fault override on one or more nets.
This mirrors what the SYNFI flow does on the Yosys netlist in Section 6.4.

The injectors evaluate one injection at a time on the scalar
:class:`~repro.netlist.simulate.NetlistSimulator` and serve as the reference
oracle; bulk campaigns go through :class:`~repro.fi.executor.FaultCampaign`,
which packs many injections per pass on the bit-parallel
:class:`~repro.netlist.parallel.CompiledNetlist` engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.core.structure import ScfiNetlist
from repro.fi.model import Classification, Fault, FaultEffect, FaultOutcome, classify_observation
from repro.fsm.cfg import CfgEdge, control_flow_edges
from repro.fsm.model import Fsm
from repro.netlist.simulate import FaultSet, NetlistSimulator
from repro.synth.lower import FsmNetlist


def cfg_successor_map(fsm: Fsm) -> Dict[str, frozenset]:
    """Map every state to the set of states its CFG edges can reach."""
    successors: Dict[str, set] = {state: set() for state in fsm.states}
    for edge in control_flow_edges(fsm):
        successors[edge.src].add(edge.dst)
    return {state: frozenset(values) for state, values in successors.items()}


def fault_set(faults: Iterable[Fault]) -> FaultSet:
    """Lower a group of :class:`Fault` descriptions to net-level overrides."""
    flips = []
    stuck: Dict[str, int] = {}
    for fault in faults:
        if fault.effect is FaultEffect.TRANSIENT_FLIP:
            flips.append(fault.net)
        elif fault.effect is FaultEffect.STUCK_AT_0:
            stuck[fault.net] = 0
        else:
            stuck[fault.net] = 1
    return FaultSet(flips=frozenset(flips), stuck_at=stuck)


class ScfiFaultInjector:
    """Injects faults into an SCFI-protected netlist during one transition."""

    def __init__(self, structure: ScfiNetlist):
        self.structure = structure
        self.hardened = structure.hardened
        self.simulator = NetlistSimulator(structure.netlist)
        self._successors = cfg_successor_map(structure.hardened.fsm)
        self._flops = structure.netlist.flops()

    # ------------------------------------------------------------------
    def _context(self, edge: CfgEdge, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Primary-input assignment (encoded) for the given raw input values."""
        return self.structure.encode_inputs(dict(inputs))

    def next_code(
        self,
        edge: CfgEdge,
        inputs: Mapping[str, int],
        faults: Iterable[Fault] = (),
    ) -> int:
        """The value the encoded state register would capture for this edge."""
        encoded_inputs = self._context(edge, inputs)
        state_code = self.hardened.state_encoding[edge.src]
        registers = {
            net: (state_code >> i) & 1 for i, net in enumerate(self.structure.state_q)
        }
        values = self.simulator.evaluate(encoded_inputs, faults=fault_set(faults), registers=registers)
        return self.simulator.read_word(values, self.structure.state_d)

    def trace_code(
        self,
        edge: CfgEdge,
        inputs: Mapping[str, int],
        cycle_faults: Sequence[Iterable[Fault]],
    ) -> int:
        """The state-register code after stepping ``len(cycle_faults)`` cycles.

        Cycle ``t`` evaluates the combinational cloud with ``cycle_faults[t]``
        active and feeds every flop's D-net value back as the next cycle's
        register state; inputs are held constant across cycles.  This is the
        scalar reference for the bit-parallel
        :meth:`~repro.netlist.parallel.CompiledNetlist.step_cycles_fault_arrays`
        path and reduces to :meth:`next_code` at one cycle.
        """
        if not cycle_faults:
            raise ValueError("at least one cycle is required")
        encoded_inputs = self._context(edge, inputs)
        state_code = self.hardened.state_encoding[edge.src]
        registers = {
            net: (state_code >> i) & 1 for i, net in enumerate(self.structure.state_q)
        }
        values: Mapping[str, int] = {}
        for cycle, faults in enumerate(cycle_faults):
            if cycle:
                registers = {flop.output: values[flop.inputs[0]] for flop in self._flops}
            values = self.simulator.evaluate(
                encoded_inputs, faults=fault_set(faults), registers=registers
            )
        return self.simulator.read_word(values, self.structure.state_d)

    def classify(
        self,
        edge: CfgEdge,
        inputs: Mapping[str, int],
        fault: Fault,
    ) -> FaultOutcome:
        """Inject one fault during one transition and classify the outcome."""
        golden = self.hardened.state_encoding[edge.dst]
        observed = self.next_code(edge, inputs, faults=[fault])
        observed_state = self.hardened.decode_state(observed)
        classification = classify_observation(
            golden,
            observed,
            observed_state,
            error_states=frozenset([self.hardened.error_state]),
            cfg_successors=self._successors.get(edge.src, frozenset()),
        )
        return FaultOutcome(
            fault=fault,
            source_state=edge.src,
            expected_state=edge.dst,
            observed_code=observed,
            observed_state=observed_state,
            classification=classification,
        )

    def diffusion_nets(self) -> List[str]:
        """Fault targets inside the MDS matrix multiplication (Section 6.4)."""
        return list(self.structure.diffusion_nets)

    def all_comb_nets(self) -> List[str]:
        """Every combinational gate output of the protected next-state logic."""
        from repro.netlist.simulate import injectable_nets

        return injectable_nets(self.structure.netlist)


class UnprotectedFaultInjector:
    """Reference injector for the unprotected FSM netlist."""

    def __init__(self, implementation: FsmNetlist):
        self.implementation = implementation
        self.simulator = NetlistSimulator(implementation.netlist)
        self._successors = cfg_successor_map(implementation.fsm)

    def next_code(self, edge: CfgEdge, inputs: Mapping[str, int], faults: Iterable[Fault] = ()) -> int:
        state_code = self.implementation.encoding[edge.src]
        registers = {
            net: (state_code >> i) & 1 for i, net in enumerate(self.implementation.state_q)
        }
        values = self.simulator.evaluate(
            self.implementation.input_vector(dict(inputs)), faults=fault_set(faults), registers=registers
        )
        return self.simulator.read_word(values, self.implementation.state_d)

    def classify(self, edge: CfgEdge, inputs: Mapping[str, int], fault: Fault) -> FaultOutcome:
        golden = self.implementation.encoding[edge.dst]
        observed = self.next_code(edge, inputs, faults=[fault])
        observed_state = self.implementation.decode_state(observed)
        # The unprotected design has no error signalling; a landing outside
        # the encoding is "detected" only in the weak sense that the register
        # holds a value no case arm decodes.
        classification = classify_observation(
            golden,
            observed,
            observed_state,
            error_states=frozenset(),
            cfg_successors=self._successors.get(edge.src, frozenset()),
        )
        return FaultOutcome(
            fault=fault,
            source_state=edge.src,
            expected_state=edge.dst,
            observed_code=observed,
            observed_state=observed_state,
            classification=classification,
        )


class RedundantFaultInjector:
    """Injector for the redundancy baseline (error signal = register mismatch)."""

    def __init__(self, implementation: FsmNetlist):
        if not implementation.redundant_state_q or implementation.error_net is None:
            raise ValueError("the implementation is not a redundant FSM netlist")
        self.implementation = implementation
        self.simulator = NetlistSimulator(implementation.netlist)
        self._successors = cfg_successor_map(implementation.fsm)

    def classify(self, edge: CfgEdge, inputs: Mapping[str, int], fault: Fault) -> FaultOutcome:
        golden = self.implementation.encoding[edge.dst]
        state_code = self.implementation.encoding[edge.src]
        registers = {}
        for copy_q in self.implementation.redundant_state_q:
            for i, net in enumerate(copy_q):
                registers[net] = (state_code >> i) & 1
        values = self.simulator.evaluate(
            self.implementation.input_vector(dict(inputs)),
            faults=fault_set([fault]),
            registers=registers,
        )
        # Next-state values of every copy plus the mismatch alarm after one cycle.
        copy_next: List[int] = [
            self.simulator.read_word(values, self._d_nets_for(copy_q))
            for copy_q in self.implementation.redundant_state_q
        ]
        observed = copy_next[0]
        observed_state = self.implementation.decode_state(observed)
        mismatch = len(set(copy_next)) > 1
        classification = classify_observation(
            golden,
            observed,
            observed_state,
            error_states=frozenset(),
            cfg_successors=self._successors.get(edge.src, frozenset()),
            error_raised=mismatch,
        )
        return FaultOutcome(
            fault=fault,
            source_state=edge.src,
            expected_state=edge.dst,
            observed_code=observed,
            observed_state=observed_state,
            classification=classification,
        )

    def _d_nets_for(self, copy_q: List[str]) -> List[str]:
        """The D nets feeding a given bank of state-register Q nets."""
        d_nets = []
        for q_net in copy_q:
            flop = self.implementation.netlist.driver_of(q_net)
            d_nets.append(flop.inputs[0])
        return d_nets
