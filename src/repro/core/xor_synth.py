"""XOR-network synthesis for GF(2)-linear layers.

The diffusion layer of the hardened next-state function is a 32x32 bit matrix
over GF(2); realising it naively costs one XOR tree per output row.  This
module implements Paar's greedy common-subexpression algorithm, which
repeatedly extracts the pair of live signals that appears together in the most
remaining rows, the standard technique used to build lightweight MDS circuits.

The result is a straight-line program of 2-input XOR operations plus an output
map, which the structural generator turns into XOR2 gates and the evaluation
code can execute directly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.linalg import BitMatrix


class XorOp(NamedTuple):
    """One 2-input XOR: ``signals[result] = signals[left] ^ signals[right]``."""

    result: int
    left: int
    right: int


class XorNetwork:
    """A straight-line XOR program computing ``matrix @ inputs``.

    Attributes:
        num_inputs: number of primary input signals (indices ``0..n-1``).
        ops: the XOR operations in execution order; every op defines a new
            signal index (``num_inputs + position``).
        outputs: for each matrix row, the signal index carrying that output.
            Outputs with zero or one term map directly onto constant-zero
            (index ``-1``) or an input/intermediate signal.
    """

    def __init__(self, num_inputs: int, ops: List[XorOp], outputs: List[int]):
        self.num_inputs = num_inputs
        self.ops = ops
        self.outputs = outputs

    @property
    def xor_count(self) -> int:
        return len(self.ops)

    def depth(self) -> int:
        """Longest XOR chain from any input to any output."""
        depths: Dict[int, int] = {i: 0 for i in range(self.num_inputs)}
        depths[-1] = 0
        for op in self.ops:
            depths[op.result] = 1 + max(depths[op.left], depths[op.right])
        if not self.outputs:
            return 0
        return max(depths[o] for o in self.outputs)

    def evaluate(self, input_bits: Sequence[int]) -> List[int]:
        """Execute the program on a bit vector and return the output bits."""
        if len(input_bits) != self.num_inputs:
            raise ValueError(f"expected {self.num_inputs} input bits, got {len(input_bits)}")
        signals: Dict[int, int] = {i: int(b) & 1 for i, b in enumerate(input_bits)}
        signals[-1] = 0
        for op in self.ops:
            signals[op.result] = signals[op.left] ^ signals[op.right]
        return [signals[o] for o in self.outputs]

    def fault_sensitivity(self, signal: int) -> int:
        """Output flip mask caused by inverting ``signal`` (a single-bit fault).

        Because the network is XOR-only, a flipped signal propagates to an
        output exactly when an odd number of paths connects them; the parity
        is obtained by pushing a symbolic flip through the program.  Bit ``j``
        of the result is set when output ``j`` toggles.
        """
        flips: Dict[int, int] = {signal: 1}
        for op in self.ops:
            if op.result == signal:
                continue
            flipped = flips.get(op.left, 0) ^ flips.get(op.right, 0)
            if flipped:
                flips[op.result] = 1
        mask = 0
        for index, output in enumerate(self.outputs):
            if flips.get(output, 0):
                mask |= 1 << index
        return mask

    def internal_signals(self) -> List[int]:
        """Signal indices created by the program (the injectable XOR outputs)."""
        return [op.result for op in self.ops]

    def rebuild_output_unshared(self, matrix_row: Sequence[int], output_index: int) -> None:
        """Recompute one output as a private XOR chain over the primary inputs.

        Used by the verify-and-repair hardening step: the rebuilt output no
        longer depends on any shared internal node, so a fault in the shared
        part of the network can no longer flip it.
        """
        terms = [column for column, bit in enumerate(matrix_row) if bit]
        if not terms:
            self.outputs[output_index] = -1
            return
        if len(terms) == 1:
            self.outputs[output_index] = terms[0]
            return
        next_signal = max([self.num_inputs - 1] + [op.result for op in self.ops]) + 1
        acc = terms[0]
        for term in terms[1:]:
            self.ops.append(XorOp(next_signal, acc, term))
            acc = next_signal
            next_signal += 1
        self.outputs[output_index] = acc

    def prune_dead_ops(self) -> int:
        """Drop operations no output depends on; returns the number removed."""
        needed = set(self.outputs)
        kept_reversed: List[XorOp] = []
        for op in reversed(self.ops):
            if op.result in needed:
                kept_reversed.append(op)
                needed.add(op.left)
                needed.add(op.right)
        kept = list(reversed(kept_reversed))
        removed = len(self.ops) - len(kept)
        self.ops = kept
        return removed


def synthesize_xor_network(matrix: BitMatrix, share: bool = True) -> XorNetwork:
    """Build an :class:`XorNetwork` computing ``matrix @ x``.

    With ``share=True`` Paar's greedy pair-sharing heuristic is applied;
    otherwise each row gets an independent XOR chain (useful as a cost
    baseline for the ablation benchmarks).
    """
    if share:
        return _paar_network(matrix)
    return _naive_network(matrix)


def _naive_network(matrix: BitMatrix) -> XorNetwork:
    num_inputs = matrix.cols
    ops: List[XorOp] = []
    outputs: List[int] = []
    next_signal = num_inputs
    for row_index in range(matrix.rows):
        terms = [c for c in range(matrix.cols) if matrix.data[row_index, c]]
        if not terms:
            outputs.append(-1)
            continue
        acc = terms[0]
        for term in terms[1:]:
            ops.append(XorOp(next_signal, acc, term))
            acc = next_signal
            next_signal += 1
        outputs.append(acc)
    return XorNetwork(num_inputs, ops, outputs)


def _paar_network(matrix: BitMatrix) -> XorNetwork:
    # Working copy: rows x live-signals incidence matrix.  Columns beyond the
    # original inputs correspond to freshly created intermediate signals.
    work = matrix.data.astype(np.uint8).copy()
    num_inputs = matrix.cols
    ops: List[XorOp] = []
    next_signal = num_inputs

    while True:
        best_pair: Tuple[int, int] = (-1, -1)
        best_count = 1
        cols = work.shape[1]
        # Count co-occurrence of every signal pair across rows still needing >1 term.
        occupancy = work.astype(np.uint16)
        cooccur = occupancy.T @ occupancy
        for a in range(cols):
            for b in range(a + 1, cols):
                count = int(cooccur[a, b])
                if count > best_count:
                    best_count = count
                    best_pair = (a, b)
        if best_pair == (-1, -1):
            break
        a, b = best_pair
        ops.append(XorOp(next_signal, a, b))
        both = (work[:, a] & work[:, b]).astype(bool)
        work[both, a] = 0
        work[both, b] = 0
        new_col = np.zeros((work.shape[0], 1), dtype=np.uint8)
        new_col[both, 0] = 1
        work = np.hstack([work, new_col])
        next_signal += 1

    outputs: List[int] = []
    for row_index in range(work.shape[0]):
        terms = [c for c in range(work.shape[1]) if work[row_index, c]]
        if not terms:
            outputs.append(-1)
        elif len(terms) == 1:
            outputs.append(terms[0])
        else:
            acc = terms[0]
            for term in terms[1:]:
                ops.append(XorOp(next_signal, acc, term))
                acc = next_signal
                next_signal += 1
            outputs.append(acc)
    return XorNetwork(num_inputs, ops, outputs)
