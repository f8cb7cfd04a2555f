"""Tests for control-flow graph extraction and analysis."""

import pytest

from repro.fsm.cfg import (
    control_flow_edges,
    edges_from,
    reachable_states,
    terminal_states,
    transition_count,
    unreachable_states,
    validate_determinism,
)
from repro.fsm.model import FsmBuilder


class TestControlFlowEdges:
    def test_stay_edges_added(self, traffic_light):
        edges = control_flow_edges(traffic_light)
        stay = [e for e in edges if e.is_stay]
        # Every traffic-light state has a non-exhaustive guard chain.
        assert {e.src for e in stay} == {"RED", "GREEN", "YELLOW"}
        for edge in stay:
            assert edge.dst == edge.src
            assert edge.guard.is_true

    def test_no_stay_for_unconditional_state(self, uart_rx):
        edges = edges_from(uart_rx, "DONE")
        assert len(edges) == 1
        assert not edges[0].is_stay
        assert edges[0].dst == "IDLE"

    def test_edge_indices_follow_priority(self, uart_rx):
        edges = edges_from(uart_rx, "DATA")
        assert [e.index for e in edges] == list(range(len(edges)))
        assert edges[-1].is_stay

    def test_formal_fsm_has_14_edges(self, formal_fsm):
        assert transition_count(formal_fsm) == 14
        assert transition_count(formal_fsm, include_stay=False) == 10


class TestGraph:
    def test_cfg_nodes_and_edges(self, traffic_light):
        edges = control_flow_edges(traffic_light)
        pairs = {(e.src, e.dst) for e in edges}
        assert {e.src for e in edges} | {e.dst for e in edges} == set(traffic_light.states)
        assert reachable_states(traffic_light) == set(traffic_light.states)
        assert ("RED", "GREEN") in pairs
        assert any(e.src == e.dst == "RED" and e.is_stay for e in edges)  # stay edge

    def test_parallel_edges_collected(self, traffic_light):
        # GREEN -> YELLOW exists twice (ped_request and timer_done).
        assert [e.dst for e in edges_from(traffic_light, "GREEN")].count("YELLOW") == 2

    def test_reachability(self, uart_rx):
        assert reachable_states(uart_rx) == set(uart_rx.states)
        assert unreachable_states(uart_rx) == set()

    def test_unreachable_state_detected(self):
        builder = FsmBuilder("island")
        builder.state("A", reset=True)
        builder.state("B")
        builder.state("ORPHAN")
        builder.transition("A", "B", go=1)
        builder.transition("ORPHAN", "A", back=1)
        fsm = builder.build()
        assert unreachable_states(fsm) == {"ORPHAN"}

    def test_terminal_states(self):
        builder = FsmBuilder("trap")
        builder.state("RUN", reset=True)
        builder.state("LOCKED")
        builder.transition("RUN", "LOCKED", err=1)
        fsm = builder.build()
        assert terminal_states(fsm) == {"LOCKED"}


class TestDeterminism:
    def test_clean_fsm_has_no_warnings(self, uart_rx):
        assert validate_determinism(uart_rx) == []

    def test_shadowed_transition_reported(self):
        builder = FsmBuilder("shadow")
        builder.state("A", reset=True)
        builder.state("B")
        builder.state("C")
        builder.transition("A", "B", go=1)
        builder.transition("A", "C", go=1, fast=1)  # can never fire
        problems = validate_determinism(builder.build())
        assert len(problems) == 1
        assert "shadowed" in problems[0]
