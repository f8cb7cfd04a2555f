"""Netlist-level fault injectors for the three implementation styles.

Each injector knows how to drive its netlist onto a specific CFG edge (load
the encoded current state into the state register, apply the activating input
vector) and how to read back and classify the next-state value the register
bank would capture, with or without a fault on one or more nets.  This
mirrors what the SYNFI flow does on the Yosys netlist in Section 6.4.

The injectors evaluate one injection at a time on an
:class:`~repro.netlist.simulate.InstrumentedNetlist` -- the netlist rewritten
so that its fault model is gates -- and serve as the reference oracle; bulk
campaigns go through :class:`~repro.fi.executor.FaultCampaign`, which packs
many injections per pass on the bit-parallel engines (and runs its
``"scalar"`` engine on the same rewrite).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

from repro.core.structure import ScfiNetlist
from repro.fi.model import Fault, FaultOutcome, classify_observation
from repro.fi.scenarios import EFFECT_MODES
from repro.fsm.cfg import CfgEdge, control_flow_edges
from repro.fsm.model import Fsm
from repro.netlist.simulate import InstrumentedNetlist, injectable_nets

if TYPE_CHECKING:  # only the reference injectors' annotations name it
    from repro.synth.lower import FsmNetlist


def cfg_successor_map(fsm: Fsm) -> Dict[str, frozenset]:
    """Map every state to the set of states its CFG edges can reach."""
    successors: Dict[str, set] = {state: set() for state in fsm.states}
    for edge in control_flow_edges(fsm):
        successors[edge.src].add(edge.dst)
    return {state: frozenset(values) for state, values in successors.items()}


def _capture(
    oracle: InstrumentedNetlist,
    inputs: Mapping[str, int],
    q_banks: Iterable[List[str]],
    state_code: int,
    faults: Iterable[Fault],
) -> Dict[str, int]:
    """One evaluation of the rewritten netlist from ``state_code`` (loaded
    into every bank of state-register Q nets) with one fault group active.

    The group's faults become the oracle's ``(row, mode)`` pairs in order;
    faults on nets the netlist does not contain inject nothing.
    """
    registers = {net: (state_code >> i) & 1 for bank in q_banks for i, net in enumerate(bank)}
    net_id = oracle.net_id
    rows = [(net_id[f.net], EFFECT_MODES[f.effect]) for f in faults if f.net in net_id]
    return oracle.trace(inputs, [rows], registers=registers)


def _outcome(
    fault: Fault,
    edge: CfgEdge,
    golden: int,
    observed: int,
    observed_state: Optional[str],
    successors: Mapping[str, frozenset],
    error_states: frozenset = frozenset(),
    error_raised: bool = False,
) -> FaultOutcome:
    """Classify one observed next-state code of a faulted transition."""
    classification = classify_observation(
        golden,
        observed,
        observed_state,
        error_states=error_states,
        cfg_successors=successors.get(edge.src, frozenset()),
        error_raised=error_raised,
    )
    return FaultOutcome(
        fault=fault,
        source_state=edge.src,
        expected_state=edge.dst,
        observed_code=observed,
        observed_state=observed_state,
        classification=classification,
    )


class ScfiFaultInjector:
    """Injects faults into an SCFI-protected netlist during one transition."""

    def __init__(self, structure: ScfiNetlist):
        self.structure = structure
        self.hardened = structure.hardened
        self._successors = cfg_successor_map(structure.hardened.fsm)
        self._oracle: Optional[InstrumentedNetlist] = None

    @property
    def oracle(self) -> InstrumentedNetlist:
        """The instrumented protected netlist, built on first use (campaigns
        on the compiled engines only read this injector's net pools)."""
        if self._oracle is None:
            self._oracle = InstrumentedNetlist(self.structure.netlist)
        return self._oracle

    def next_code(
        self,
        edge: CfgEdge,
        inputs: Mapping[str, int],
        faults: Iterable[Fault] = (),
    ) -> int:
        """The value the encoded state register would capture for this edge."""
        structure = self.structure
        values = _capture(
            self.oracle,
            structure.encode_inputs(dict(inputs)),
            [structure.state_q],
            self.hardened.state_encoding[edge.src],
            faults,
        )
        return self.oracle.read_word(values, structure.state_d)

    def classify(
        self,
        edge: CfgEdge,
        inputs: Mapping[str, int],
        fault: Fault,
    ) -> FaultOutcome:
        """Inject one fault during one transition and classify the outcome."""
        observed = self.next_code(edge, inputs, faults=[fault])
        return _outcome(
            fault,
            edge,
            self.hardened.state_encoding[edge.dst],
            observed,
            self.hardened.decode_state(observed),
            self._successors,
            error_states=frozenset([self.hardened.error_state]),
        )

    def diffusion_nets(self) -> List[str]:
        """Fault targets inside the MDS matrix multiplication (Section 6.4)."""
        return list(self.structure.diffusion_nets)

    def all_comb_nets(self) -> List[str]:
        """Every combinational gate output of the protected next-state logic."""
        return injectable_nets(self.structure.netlist)


class UnprotectedFaultInjector:
    """Reference injector for the unprotected FSM netlist."""

    def __init__(self, implementation: FsmNetlist):
        self.implementation = implementation
        self.oracle = InstrumentedNetlist(implementation.netlist)
        self._successors = cfg_successor_map(implementation.fsm)

    def next_code(self, edge: CfgEdge, inputs: Mapping[str, int], faults: Iterable[Fault] = ()) -> int:
        implementation = self.implementation
        values = _capture(
            self.oracle,
            implementation.input_vector(dict(inputs)),
            [implementation.state_q],
            implementation.encoding[edge.src],
            faults,
        )
        return self.oracle.read_word(values, implementation.state_d)

    def classify(self, edge: CfgEdge, inputs: Mapping[str, int], fault: Fault) -> FaultOutcome:
        observed = self.next_code(edge, inputs, faults=[fault])
        # The unprotected design has no error signalling; a landing outside
        # the encoding is "detected" only in the weak sense that the register
        # holds a value no case arm decodes.
        return _outcome(
            fault,
            edge,
            self.implementation.encoding[edge.dst],
            observed,
            self.implementation.decode_state(observed),
            self._successors,
        )


class RedundantFaultInjector:
    """Injector for the redundancy baseline (error signal = register mismatch)."""

    def __init__(self, implementation: FsmNetlist):
        if not implementation.redundant_state_q or implementation.error_net is None:
            raise ValueError("the implementation is not a redundant FSM netlist")
        self.implementation = implementation
        self.oracle = InstrumentedNetlist(implementation.netlist)
        self._successors = cfg_successor_map(implementation.fsm)

    def classify(self, edge: CfgEdge, inputs: Mapping[str, int], fault: Fault) -> FaultOutcome:
        implementation = self.implementation
        values = _capture(
            self.oracle,
            implementation.input_vector(dict(inputs)),
            implementation.redundant_state_q,
            implementation.encoding[edge.src],
            [fault],
        )
        # Next-state values of every copy plus the mismatch alarm after one cycle.
        copy_next: List[int] = [
            self.oracle.read_word(values, self._d_nets_for(copy_q))
            for copy_q in implementation.redundant_state_q
        ]
        return _outcome(
            fault,
            edge,
            implementation.encoding[edge.dst],
            copy_next[0],
            implementation.decode_state(copy_next[0]),
            self._successors,
            error_raised=len(set(copy_next)) > 1,
        )

    def _d_nets_for(self, copy_q: List[str]) -> List[str]:
        """The D nets feeding a given bank of state-register Q nets."""
        netlist = self.implementation.netlist
        return [netlist.driver_of(q_net).inputs[0] for q_net in copy_q]
