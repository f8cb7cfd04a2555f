"""Tests for the hardened-function bit-layout planner (Mix/Unmix planning)."""

import hashlib
import json

import pytest

from repro.core.layout import (
    BLOCK_BITS,
    CONTROL_SHARE_BITS,
    MODIFIER_BITS,
    STATE_SHARE_BITS,
    plan_layout,
)
from repro.core.hardened import HardenedFsm
from repro.fsmlib.registry import get_fsm
from repro.linalg import gf2_rank

#: The registered FSMs whose layouts :data:`LAYOUT_DIGEST` pins.
REGISTERED_FSMS = (
    "adc_ctrl_fsm", "aes_control", "formal_fsm", "i2c_fsm", "ibex_controller", "ibex_lsu",
    "otbn_controller", "pwrmgr_fsm", "spi_master", "traffic_light", "uart_rx",
)
#: SHA-256 of every block's input bits and output/modifier positions for each
#: of those FSMs at N = 1..3, as planned with submatrix ranks (gf2_rank).
LAYOUT_DIGEST = "9cce5b844de23d6ce3639e28c1ce0f5e36284d2b38545f5cb8e1ee59379c4c7f"


class TestBlockCount:
    def test_small_fsm_needs_one_block(self):
        layout = plan_layout(state_width=5, control_width=6, error_bits=2)
        assert layout.num_blocks == 1

    def test_wide_state_needs_more_blocks(self):
        layout = plan_layout(state_width=12, control_width=6, error_bits=2)
        assert layout.num_blocks == 2

    def test_wide_control_needs_more_blocks(self):
        layout = plan_layout(state_width=4, control_width=17, error_bits=2)
        assert layout.num_blocks == 3

    def test_error_bits_consume_modifier_budget(self):
        # 14 steerable bits per block remain with e=2; 15 state bits need 2 blocks.
        layout = plan_layout(state_width=15, control_width=4, error_bits=2)
        assert layout.num_blocks == 2

    def test_zero_error_bits_allowed(self):
        layout = plan_layout(state_width=5, control_width=4, error_bits=0)
        assert layout.total_error_bits == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            plan_layout(state_width=0, control_width=4, error_bits=2)
        with pytest.raises(ValueError):
            plan_layout(state_width=4, control_width=4, error_bits=-1)
        with pytest.raises(ValueError):
            plan_layout(state_width=4, control_width=4, error_bits=MODIFIER_BITS)


class TestBlockStructure:
    @pytest.mark.parametrize("state_width,control_width,error_bits", [
        (3, 4, 2),
        (5, 6, 2),
        (7, 9, 1),
        (11, 13, 2),
        (9, 20, 4),
    ])
    def test_every_state_bit_covered_exactly_once(self, state_width, control_width, error_bits):
        layout = plan_layout(state_width, control_width, error_bits)
        produced = [bit for block in layout.blocks for bit in block.state_out_bits]
        assert sorted(produced) == list(range(state_width))
        absorbed = [bit for block in layout.blocks for bit in block.state_in_bits]
        assert sorted(absorbed) == list(range(state_width))
        control_in = [bit for block in layout.blocks for bit in block.control_in_bits]
        assert sorted(control_in) == list(range(control_width))

    def test_state_and_error_positions_disjoint(self):
        layout = plan_layout(state_width=6, control_width=6, error_bits=3)
        for block in layout.blocks:
            assert not set(block.state_out_positions) & set(block.error_out_positions)
            assert len(block.error_out_positions) == 3

    def test_modifier_positions_in_modifier_bytes(self):
        layout = plan_layout(state_width=6, control_width=6, error_bits=2)
        for block in layout.blocks:
            for position in block.modifier_in_positions:
                assert STATE_SHARE_BITS + CONTROL_SHARE_BITS <= position < BLOCK_BITS

    def test_modifier_width_matches_targets(self):
        layout = plan_layout(state_width=6, control_width=6, error_bits=2)
        for block in layout.blocks:
            assert block.modifier_width == len(block.target_positions)

    def test_modifier_submatrix_is_invertible(self):
        layout = plan_layout(state_width=7, control_width=8, error_bits=2)
        for block in layout.blocks:
            square = layout.bit_matrix.submatrix(block.target_positions, block.modifier_in_positions)
            assert gf2_rank(square) == len(block.target_positions)

    def test_total_modifier_width(self):
        layout = plan_layout(state_width=5, control_width=4, error_bits=2)
        assert layout.total_modifier_width == 5 + 2


class TestBlockInputAssembly:
    def test_block_input_bits_layout(self):
        layout = plan_layout(state_width=5, control_width=4, error_bits=2)
        block = layout.blocks[0]
        bits = layout.block_input_bits(block, state_code=0b10101, control_code=0b1001, modifier=0b11)
        assert len(bits) == BLOCK_BITS
        # State share occupies the first byte.
        assert bits[:5] == [1, 0, 1, 0, 1]
        assert bits[5:STATE_SHARE_BITS] == [0, 0, 0]
        # Control share occupies the second byte.
        assert bits[STATE_SHARE_BITS : STATE_SHARE_BITS + 4] == [1, 0, 0, 1]
        # Modifier occupies the upper half.
        assert bits[STATE_SHARE_BITS + CONTROL_SHARE_BITS] == 1
        assert bits[STATE_SHARE_BITS + CONTROL_SHARE_BITS + 1] == 1
        assert sum(bits[STATE_SHARE_BITS + CONTROL_SHARE_BITS + 2 :]) == 0

    def test_multi_block_shares_are_sliced(self):
        layout = plan_layout(state_width=10, control_width=12, error_bits=2)
        first, second = layout.blocks
        assert first.state_in_bits == list(range(8))
        assert second.state_in_bits == [8, 9]
        assert first.control_in_bits == list(range(8))
        assert second.control_in_bits == [8, 9, 10, 11]


class TestRegisteredLayouts:
    def test_block_positions_match_the_pinned_digest(self):
        """The packed-row rank tests plan the same positions as submatrix ranks did."""
        doc = {}
        for name in REGISTERED_FSMS:
            for level in (1, 2, 3):
                layout = HardenedFsm.from_fsm(get_fsm(name), level).layout
                doc[f"{name}/N{level}"] = [
                    [block.state_in_bits, block.control_in_bits, block.state_out_positions,
                     block.state_out_bits, block.error_out_positions, block.modifier_in_positions]
                    for block in layout.blocks
                ]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == LAYOUT_DIGEST
