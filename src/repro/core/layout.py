"""Bit layout of the hardened next-state function (the Mix/Unmix planning).

Figure 5 of the paper splits the input triple ``{S_Ce, X_e, Mod}`` into ``k``
32-bit vectors, feeds each through an MDS diffusion block, and reassembles the
encoded next state plus the error bits from the block outputs.  This module
plans that layout:

* how many diffusion blocks are needed for a given encoded-state width,
  encoded-control width and error-bit count;
* which global state/control bits feed which block (the Mix layer);
* which output bit positions of each block carry next-state bits and which
  carry error bits (the Unmix layer);
* which modifier input positions are actually used.  The modifier only needs
  as many effective bits as there are output bits to steer (next-state slice
  plus error bits); the planner picks a set of modifier columns whose square
  submatrix is invertible so that every CFG edge has a unique, cheap-to-select
  modifier constant, and the remaining modifier inputs are tied to zero.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

from repro.core.mds import WordMatrix, default_mds_matrix
from repro.linalg import BitMatrix, gf2_rank_rows, gf2_row_reduce

#: Word width of the diffusion blocks (bytes, as in the paper).
WORD_WIDTH = 8
#: Words per diffusion block (the paper's 4 x 8-bit = 32-bit blocks).
WORDS_PER_BLOCK = 4
#: Total input bits of one diffusion block.
BLOCK_BITS = WORD_WIDTH * WORDS_PER_BLOCK
#: Input bits reserved for the state share (byte 0).
STATE_SHARE_BITS = 8
#: Input bits reserved for the control share (byte 1).
CONTROL_SHARE_BITS = 8
#: Input bits reserved for the per-transition modifier (bytes 2-3).
MODIFIER_BITS = BLOCK_BITS - STATE_SHARE_BITS - CONTROL_SHARE_BITS
#: Block input columns of the state and control shares, as a bit mask.
_SHARE_MASK = (1 << (STATE_SHARE_BITS + CONTROL_SHARE_BITS)) - 1
#: Block input columns of the modifier, as a bit mask.
_MODIFIER_MASK = ((1 << BLOCK_BITS) - 1) & ~_SHARE_MASK


class BlockLayout:
    """Input/output bit assignment of one diffusion block."""

    def __init__(
        self,
        index: int,
        state_in_bits: List[int],
        control_in_bits: List[int],
        state_out_positions: List[int],
        state_out_bits: List[int],
        error_out_positions: List[int],
        modifier_in_positions: List[int],
    ):
        self.index = index
        #: Global encoded-state bit indices feeding input bits [0, 8).
        self.state_in_bits = state_in_bits
        #: Global encoded-control bit indices feeding input bits [8, 16).
        self.control_in_bits = control_in_bits
        #: Output bit positions carrying encoded-next-state bits, in the order
        #: of the global state bits they produce.
        self.state_out_positions = state_out_positions
        #: Global encoded-state bit indices produced by ``state_out_positions``.
        self.state_out_bits = state_out_bits
        #: Output bit positions carrying error-detection bits (must read all-ones).
        self.error_out_positions = error_out_positions
        #: Block input positions (within [16, 32)) carrying effective modifier bits.
        self.modifier_in_positions = modifier_in_positions

    @property
    def target_positions(self) -> List[int]:
        """Output bits the modifier must steer (state slice then error bits)."""
        return list(self.state_out_positions) + list(self.error_out_positions)

    @property
    def modifier_width(self) -> int:
        """Number of effective modifier bits of this block."""
        return len(self.modifier_in_positions)


class HardenedLayout:
    """Complete layout of the hardened next-state function."""

    def __init__(
        self,
        state_width: int,
        control_width: int,
        error_bits_per_block: int,
        matrix: WordMatrix,
        blocks: List[BlockLayout],
        bit_matrix: BitMatrix,
    ):
        self.state_width = state_width
        self.control_width = control_width
        self.error_bits_per_block = error_bits_per_block
        self.matrix = matrix
        self.blocks = blocks
        self.bit_matrix = bit_matrix

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_error_bits(self) -> int:
        return sum(len(b.error_out_positions) for b in self.blocks)

    @property
    def total_modifier_width(self) -> int:
        return sum(b.modifier_width for b in self.blocks)

    def block_input_bits(self, block: BlockLayout, state_code: int, control_code: int, modifier: int) -> List[int]:
        """Assemble the 32 input bits of one block from the global values.

        ``modifier`` is the full 16-bit modifier word of the block (ineffective
        positions are simply zero).
        """
        bits = [0] * BLOCK_BITS
        for position, global_bit in enumerate(block.state_in_bits):
            bits[position] = (state_code >> global_bit) & 1
        for position, global_bit in enumerate(block.control_in_bits):
            bits[STATE_SHARE_BITS + position] = (control_code >> global_bit) & 1
        for position in range(MODIFIER_BITS):
            bits[STATE_SHARE_BITS + CONTROL_SHARE_BITS + position] = (modifier >> position) & 1
        return bits


def _chunk(indices: List[int], size: int) -> List[List[int]]:
    return [indices[i : i + size] for i in range(0, len(indices), size)]


def plan_layout(
    state_width: int,
    control_width: int,
    error_bits: int,
    matrix: Optional[WordMatrix] = None,
) -> HardenedLayout:
    """Plan the Mix/Diffusion/Unmix layout for the given widths.

    ``error_bits`` is the number of error-detection bits *per block* (the
    paper's ``e``).  The number of blocks is the smallest ``k`` that fits the
    state and control shares (8 bits each per block) and leaves enough
    modifier freedom to steer every selected output bit.
    """
    if state_width < 1:
        raise ValueError("state_width must be >= 1")
    if error_bits < 0:
        raise ValueError("error_bits must be >= 0")
    matrix = matrix or default_mds_matrix()
    bit_matrix = matrix.to_bit_matrix()

    max_targets = MODIFIER_BITS  # the modifier can steer at most 16 output bits
    if error_bits >= max_targets:
        raise ValueError(f"error_bits={error_bits} leaves no room for state bits")

    num_blocks = max(
        1,
        -(-state_width // STATE_SHARE_BITS),
        -(-control_width // CONTROL_SHARE_BITS) if control_width else 1,
        -(-state_width // (max_targets - error_bits)),
    )

    state_chunks = _chunk(list(range(state_width)), STATE_SHARE_BITS)
    control_chunks = _chunk(list(range(control_width)), CONTROL_SHARE_BITS)

    # Distribute the output state bits as evenly as possible over the blocks.
    per_block_state = [0] * num_blocks
    for i in range(state_width):
        per_block_state[i % num_blocks] += 1

    blocks: List[BlockLayout] = []
    next_state_bit = 0
    for index in range(num_blocks):
        state_in = state_chunks[index] if index < len(state_chunks) else []
        control_in = control_chunks[index] if index < len(control_chunks) else []
        slice_size = per_block_state[index]
        state_out_bits = list(range(next_state_bit, next_state_bit + slice_size))
        next_state_bit += slice_size

        positions = _solve_output_positions(bit_matrix, slice_size, error_bits)
        if positions is None:
            raise ValueError(
                "could not find solvable output-bit positions; "
                "reduce error_bits or use a different MDS matrix"
            )
        state_positions, error_positions, modifier_positions = positions
        blocks.append(
            BlockLayout(
                index=index,
                state_in_bits=state_in,
                control_in_bits=control_in,
                state_out_positions=state_positions,
                state_out_bits=state_out_bits,
                error_out_positions=error_positions,
                modifier_in_positions=modifier_positions,
            )
        )

    return HardenedLayout(
        state_width=state_width,
        control_width=control_width,
        error_bits_per_block=error_bits,
        matrix=matrix,
        blocks=blocks,
        bit_matrix=bit_matrix,
    )


def _pivot_modifier_columns(bit_matrix: BitMatrix, rows: List[int]) -> Optional[List[int]]:
    """Modifier columns forming an invertible square system for ``rows``.

    Returns the block-input positions (within [16, 32)) of the pivot columns,
    or ``None`` when the rows are not independent over the modifier columns.
    """
    if not rows:
        return []
    modifier_cols = list(range(STATE_SHARE_BITS + CONTROL_SHARE_BITS, BLOCK_BITS))
    sub = bit_matrix.submatrix(rows, modifier_cols)
    _, pivots = gf2_row_reduce(sub)
    if len(pivots) != len(rows):
        return None
    return [modifier_cols[p] for p in pivots]


def _greedy_error_rows(
    bit_matrix: BitMatrix, state_positions: List[int], error_bits: int
) -> List[int]:
    """Pick error rows that maximise coverage of the state/control columns.

    A fault on an absorbed input wire (the encoded state share or the active
    control word) is *deterministically* detected when at least one error row
    has a one in that input's column -- the flipped input then flips an error
    bit regardless of everything else.  The greedy choice therefore maximises
    the number of covered share columns (columns 0..15); remaining ties are
    broken towards the upper bits of each word, mirroring Figure 5.
    """
    packed = bit_matrix.packed_rows()
    candidates = [row for row in range(BLOCK_BITS) if row not in state_positions]
    chosen: List[int] = []
    covered = 0  # mask of the share columns some chosen row already covers

    def keeps_full_rank(row: int) -> bool:
        rows = state_positions + chosen + [row]
        if len(rows) > MODIFIER_BITS:
            return False
        return gf2_rank_rows((packed[r] for r in rows), _MODIFIER_MASK) == len(rows)

    for _ in range(error_bits):
        best_row = None
        best_gain = (-1, -1)
        for row in candidates:
            if row in chosen or not keeps_full_rank(row):
                continue
            gain = (packed[row] & _SHARE_MASK & ~covered).bit_count()
            preference = row % WORD_WIDTH  # prefer upper bits within a word on ties
            score = (gain, preference)
            if best_row is None or score > best_gain:
                best_gain = score
                best_row = row
        if best_row is None:
            break
        chosen.append(best_row)
        covered |= packed[best_row] & _SHARE_MASK
    return chosen


def _spread_state_positions(bit_matrix: BitMatrix, slice_size: int) -> List[int]:
    """State-slice output positions spread round-robin over the output words.

    Positions are taken in word-interleaved order, skipping any position whose
    row (restricted to the modifier columns) would be linearly dependent on
    the already chosen ones -- the modifier must be able to steer every chosen
    bit independently.
    """
    packed = bit_matrix.packed_rows()
    interleaved = [
        word * WORD_WIDTH + offset
        for offset in range(WORD_WIDTH)
        for word in range(WORDS_PER_BLOCK)
    ]
    chosen: List[int] = []
    for position in interleaved:
        if len(chosen) == slice_size:
            break
        candidate = chosen + [position]
        if gf2_rank_rows((packed[r] for r in candidate), _MODIFIER_MASK) == len(candidate):
            chosen.append(position)
    return chosen


def _solve_output_positions(
    bit_matrix: BitMatrix, slice_size: int, error_bits: int
) -> Optional[Tuple[List[int], List[int], List[int]]]:
    """Choose output bit positions whose modifier submatrix has full row rank.

    Following Figure 5 of the paper, the next-state slice takes the lowest
    bits of *every* output word (round-robin across the four words); the error
    bits are then chosen by :func:`_greedy_error_rows` to cover as many of the
    absorbed input columns as possible.  Spreading the extracted bits over all
    words maximises the chance that a fault anywhere in the diffusion cone
    disturbs at least one extracted bit.  If the corresponding rows of the
    modifier columns are linearly dependent, alternatives are searched.
    Returns ``(state_positions, error_positions, modifier_in_positions)``.
    """
    preferred_state = _spread_state_positions(bit_matrix, slice_size)
    if len(preferred_state) < slice_size:
        preferred_state = list(range(slice_size))
    preferred_error = _greedy_error_rows(bit_matrix, preferred_state, error_bits)
    if len(preferred_error) == error_bits and not set(preferred_state) & set(preferred_error):
        pivots = _pivot_modifier_columns(bit_matrix, preferred_state + preferred_error)
        if pivots is not None:
            return preferred_state, preferred_error, pivots
    preferred_state = list(range(slice_size))
    preferred_error = list(range(BLOCK_BITS - 1, BLOCK_BITS - 1 - error_bits, -1))
    pivots = _pivot_modifier_columns(bit_matrix, preferred_state + preferred_error)
    if pivots is not None:
        return preferred_state, preferred_error, pivots

    # Fall back to searching error-bit positions in the upper half of the output.
    upper = list(range(BLOCK_BITS - 1, BLOCK_BITS // 2 - 1, -1))
    for error_positions in combinations(upper, error_bits):
        candidate_error = list(error_positions)
        if set(candidate_error) & set(preferred_state):
            continue
        pivots = _pivot_modifier_columns(bit_matrix, preferred_state + candidate_error)
        if pivots is not None:
            return preferred_state, candidate_error, pivots

    # Last resort: also move the state slice around.
    all_positions = list(range(BLOCK_BITS))
    for state_positions in combinations(all_positions, slice_size):
        remaining = [p for p in all_positions if p not in state_positions]
        for error_positions in combinations(remaining, error_bits):
            pivots = _pivot_modifier_columns(bit_matrix, list(state_positions) + list(error_positions))
            if pivots is not None:
                return list(state_positions), list(error_positions), pivots
    return None
