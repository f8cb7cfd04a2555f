"""Shared fixtures for the SCFI reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fsm.model import Fsm, FsmBuilder
from repro.fsmlib import (
    formal_analysis_fsm,
    spi_master_fsm,
    traffic_light_fsm,
    uart_rx_fsm,
)


def _fault_triples(net_id, fault_lanes):
    """Flat ``(net ids, lanes, modes)`` arrays of per-lane fault groups.

    Each lane is ``None`` (a golden lane) or a sequence of ``(net, mode)``
    pairs; a lane's pairs become its triples in group order, which is the
    input format of the compiled engines' ``evaluate_fault_arrays``.
    """
    rows, lanes, modes = [], [], []
    for lane, group in enumerate(fault_lanes):
        for net, mode in group or ():
            rows.append(net_id[net])
            lanes.append(lane)
            modes.append(mode)
    return (
        np.array(rows, dtype=np.intp),
        np.array(lanes, dtype=np.intp),
        np.array(modes, dtype=np.uint8),
    )


@pytest.fixture
def fault_triples():
    """The fault-group-lanes-to-fault-triples converter of the engine tests."""
    return _fault_triples


@pytest.fixture
def traffic_light() -> Fsm:
    return traffic_light_fsm()


@pytest.fixture
def uart_rx() -> Fsm:
    return uart_rx_fsm()


@pytest.fixture
def spi_master() -> Fsm:
    return spi_master_fsm()


@pytest.fixture
def formal_fsm() -> Fsm:
    return formal_analysis_fsm()


@pytest.fixture
def two_state_fsm() -> Fsm:
    """The smallest interesting FSM: two states toggled by one input."""
    builder = FsmBuilder("toggle")
    builder.state("OFF", reset=True)
    builder.state("ON", active=1)
    builder.transition("OFF", "ON", go=1)
    builder.transition("ON", "OFF", go=1)
    return builder.build()


@pytest.fixture
def protected_traffic_light(traffic_light):
    """Traffic light protected at N=2 (behaviour + structure, no Verilog)."""
    return protect_fsm(traffic_light, ScfiOptions(protection_level=2, generate_verilog=False))


@pytest.fixture
def protected_uart(uart_rx):
    return protect_fsm(uart_rx, ScfiOptions(protection_level=2, generate_verilog=False))
