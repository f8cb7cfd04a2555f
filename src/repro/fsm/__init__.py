"""Finite-state machine substrate: model, CFG analysis, simulation, encodings."""

from repro.fsm.model import Fsm, FsmBuilder, Guard, Signal, Transition
from repro.fsm.cfg import CfgEdge, control_flow_edges, reachable_states, unreachable_states
from repro.fsm.encoding import binary_encoding, gray_encoding, one_hot_encoding
from repro.fsm.simulate import FsmSimulator, SimulationTrace, TraceStep

__all__ = [
    "Fsm",
    "FsmBuilder",
    "Guard",
    "Signal",
    "Transition",
    "CfgEdge",
    "control_flow_edges",
    "reachable_states",
    "unreachable_states",
    "binary_encoding",
    "gray_encoding",
    "one_hot_encoding",
    "FsmSimulator",
    "SimulationTrace",
    "TraceStep",
]
