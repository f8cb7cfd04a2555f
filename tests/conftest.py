"""Shared fixtures for the SCFI reproduction test suite.

The compiled-engine tests drive both engines through their one entry point,
``step_cycles_fault_arrays``, which takes faults as flat ``(net id, lane,
mode)`` triples and inputs/registers as lane words in the engine's own form.
The ``fault_triples`` fixture builds the triples from per-lane fault groups,
and the ``lane_words`` fixture builds each engine's lane words from scalar
0/1 contexts.
"""

from __future__ import annotations

from typing import Mapping

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
from repro.netlist.parallel import WORD_BITS, WORD_DTYPE
from repro.netlist.parallel_np import NumpyCompiledNetlist


def _fault_triples(net_id, fault_lanes):
    """Flat ``(net ids, lanes, modes)`` arrays of per-lane fault groups.

    Each lane is ``None`` (a golden lane) or a sequence of ``(net, mode)``
    pairs; a lane's pairs become its triples in group order.
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


def _lane_words(compiled, contexts, num_lanes):
    """Lane words in ``compiled``'s own form for scalar 0/1 contexts.

    ``contexts`` is one ``{net: value}`` mapping shared by every lane, or a
    sequence of ``num_lanes`` mappings, one per lane.  Bit ``k`` of a net's
    word is its value in lane ``k``: a Python int for the bignum engine, a
    little-endian uint64 row for the numpy engine.
    """
    if isinstance(contexts, Mapping):
        contexts = [contexts] * num_lanes
    nets = {net for context in contexts for net in context}
    words = {
        net: sum((int(context.get(net, 0)) & 1) << lane for lane, context in enumerate(contexts))
        for net in nets
    }
    if isinstance(compiled, NumpyCompiledNetlist):
        size = -(-num_lanes // WORD_BITS) * 8
        return {
            net: np.frombuffer(word.to_bytes(size, "little"), dtype=WORD_DTYPE)
            for net, word in words.items()
        }
    return words


@pytest.fixture
def lane_words():
    """The scalar-contexts-to-engine-lane-words converter of the engine tests."""
    return _lane_words


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
