"""Word-sliced ``numpy`` netlist evaluation engine (``engine="parallel-numpy"``).

The bignum engine of :mod:`repro.netlist.parallel` holds each net's fault
lanes in one arbitrary-precision Python ``int`` and pays the CPython
interpreter (dispatch, big-int allocation, digit loops) once per *gate* per
pass.  This module re-slices the same lanes onto fixed-width machine words:
every net owns a ``(num_words,)``-shaped ``uint64`` array (lane ``k`` lives
in bit ``k % 64`` of word ``k // 64``), so a gate becomes one vectorised
``numpy`` bitwise op over all lanes at once and the per-gate Python overhead
is amortised over the whole word vector.

Three compile/run-time structures make the wide case fast:

* **Level-contiguous rows.**  The value matrix's rows follow a private
  layout ordered by (topological level, driving opcode), so every level and
  every (level, opcode) gate group is one contiguous row range.  A gate group
  gathers its operand rows and writes its outputs straight into its slice
  (``np.bitwise_and(values[a], values[b], out=values[lo:hi])``), collapsing
  thousands of per-gate ops into a few dozen array calls per pass.  The
  shared dense net ids stay the public currency; the engine maps them to
  rows internally.
* **Dense keep/xor fault planes.**  Fault lanes enter as three flat arrays
  -- faulted net id, lane, effect mode -- and the shared
  :func:`~repro.netlist.parallel.fault_keep_xor` scatter (one unsorted
  ``ufunc.at`` per plane, no per-lane Python loop) turns them into two
  dense ``(num_nets, num_words)`` word planes in row order.  A faulted level
  is patched in place with two ops on views (``v &= keep; v ^= xor``); the
  bignum engine consumes the same scatter, so both engines apply faults
  with one rule, the one the scalar oracle's fault cells implement in gates
  (:class:`~repro.netlist.simulate.InstrumentedNetlist`).
* **Byte-view transposes.**  ``read_words`` / ``read_words_by_id`` view the
  selected rows as bytes and run the shared
  :func:`~repro.netlist.parallel.lane_codes_from_byte_rows` transpose, so
  batch classification costs two vectorised bit passes instead of an
  O(lanes x bits) shift loop.

Because lanes cost ``1/64`` of a machine word each instead of a bignum digit
chain, lane counts are no longer tied to ``DEFAULT_LANE_WIDTH=256``: wide
campaigns run thousands of lanes per pass (the executor defaults this
engine to ``DEFAULT_NUMPY_LANE_WIDTH`` lanes).  Lane words entering and
leaving the engine remain plain Python ints or little-endian ``uint64``
arrays, so the campaign executor hands its packed per-context rows straight
in and the bignum engine reads the same bytes as ints.

``NumpyCompiledNetlist`` is cross-checked lane-for-lane against the bignum
and scalar engines in ``tests/test_parallel_np.py`` and
``tests/test_parallel_sim.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.netlist.parallel import (
    _OP_AND2,
    _OP_BUF,
    _OP_INV,
    _OP_MUX2,
    _OP_NAND2,
    _OP_NOR2,
    _OP_OR2,
    _OP_TIE0,
    _OP_XNOR2,
    _OP_XOR2,
    WORD_BITS,
    WORD_DTYPE,
    MODE_FLIP,
    MODE_STUCK0,
    CompiledNetlist,
    fault_keep_xor,
    lane_code_array,
    lane_codes_from_byte_rows,
)


def int_to_words(value: int, num_words: int) -> np.ndarray:
    """One bignum lane word as a ``(num_words,)`` little-endian uint64 array."""
    return np.frombuffer(
        int(value).to_bytes(num_words * 8, "little"), dtype=WORD_DTYPE
    )


def words_to_int(words: np.ndarray) -> int:
    """The bignum form of one word-sliced lane word (inverse of
    :func:`int_to_words`)."""
    return int.from_bytes(np.ascontiguousarray(words, dtype=WORD_DTYPE).tobytes(), "little")


class NumpyLaneValues:
    """Per-net lane words of one :meth:`NumpyCompiledNetlist.evaluate_fault_arrays` pass.

    Mirrors the :class:`~repro.netlist.parallel.LaneValues` read interface
    over a ``(num_nets, num_words)`` uint64 array instead of per-net bignums;
    ``word`` converts back to the bignum form so existing cross-checks compare
    engines bit for bit.  The array's rows follow the engine's private
    level-contiguous layout: ``net_slot`` maps net names and ``id_slot`` dense
    net ids to rows, so callers keep using the shared ids.
    """

    def __init__(
        self,
        net_slot: Mapping[str, int],
        id_slot: np.ndarray,
        values: np.ndarray,
        num_lanes: int,
    ):
        self._net_slot = net_slot
        self._id_slot = id_slot
        self._values = values
        self.num_lanes = num_lanes

    def word(self, net: str) -> int:
        """The raw ``W``-bit lane word of one net (bit ``k`` = lane ``k``)."""
        return words_to_int(self._values[self._net_slot[net]])

    def lane_value(self, net: str, lane: int) -> int:
        """The scalar 0/1 value of ``net`` in one lane."""
        word = int(self._values[self._net_slot[net], lane // WORD_BITS])
        return (word >> (lane % WORD_BITS)) & 1

    def lane_values(self, lane: int) -> Dict[str, int]:
        """All net values of one lane, in ``NetlistSimulator.evaluate`` format."""
        column = (
            self._values[:, lane // WORD_BITS] >> np.uint64(lane % WORD_BITS)
        ) & np.uint64(1)
        return {net: int(column[i]) for net, i in self._net_slot.items()}

    def read_word(self, bits: Sequence[str], lane: int) -> int:
        """Assemble an integer from per-bit nets (LSB first) for one lane."""
        code = 0
        for i, bit in enumerate(bits):
            code |= self.lane_value(bit, lane) << i
        return code

    def read_words(self, bits: Sequence[str]) -> List[int]:
        """Per-lane integers assembled from per-bit nets (LSB first)."""
        if not bits:
            return [0] * self.num_lanes
        rows = self._values[[self._net_slot[bit] for bit in bits]]
        return lane_codes_from_byte_rows(rows.view(np.uint8), self.num_lanes)

    def read_words_by_id(self, ids: Sequence[int]) -> List[int]:
        """Like :meth:`read_words` but over pre-resolved dense net ids.

        The selected rows are viewed as bytes and transposed through the
        shared :func:`~repro.netlist.parallel.lane_codes_from_byte_rows`
        helper -- no per-lane Python loop.
        """
        if not ids:
            return [0] * self.num_lanes
        return lane_codes_from_byte_rows(self.byte_rows_by_id(ids), self.num_lanes)

    def code_array_by_id(self, ids: Sequence[int]) -> Optional[np.ndarray]:
        """Per-lane codes as one uint64 array, or ``None`` for >64-bit codes.

        The vectorised campaign classifier consumes codes without ever
        materialising per-lane Python ints; state registers wider than one
        machine word fall back to :meth:`read_words_by_id`.
        """
        if not 0 < len(ids) < 64:
            return None
        return lane_code_array(self.byte_rows_by_id(ids), self.num_lanes)

    def byte_rows_by_id(self, ids: Sequence[int]) -> np.ndarray:
        """The little-endian byte form of the selected lane words, one row each."""
        return self._values[self._id_slot[np.asarray(ids, dtype=np.intp)]].view(np.uint8)


#: One (level, opcode) gate group: opcode, its output rows ``lo:hi`` and the
#: operand row index arrays (``None`` past the opcode's arity).
_OpGroup = Tuple[int, int, int, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]

#: Compiled faults of one pass: the dense keep/xor planes (rows in slot order)
#: and, per topological level, whether it holds a stuck-at (needs ``&= keep``)
#: and whether it holds a flip or stuck-at-1 (needs ``^= xor``).
_CompiledFaults = Tuple[np.ndarray, np.ndarray, List[bool], List[bool]]


class NumpyCompiledNetlist(CompiledNetlist):
    """A netlist compiled for word-sliced multi-lane ``numpy`` evaluation.

    Shares the flat op list, dense net ids, fault scatter and multi-cycle
    driver (:meth:`~repro.netlist.parallel.CompiledNetlist.step_cycles_fault_arrays`)
    of :class:`~repro.netlist.parallel.CompiledNetlist`.  On top it orders
    the rows of its value matrix by (topological level, driving opcode), a
    private layout: every level and every (level, opcode) gate group is one
    contiguous row range.  ``net_id``, ``ops``, ``input_ids``,
    ``register_ids`` and ``flop_d_ids`` keep the shared dense ids; the engine
    maps them to rows (``_slot``) internally.  The compiled form stays
    immutable and stateless; register values are inputs to
    :meth:`evaluate_fault_arrays`.
    """

    def __init__(self, netlist: Netlist):
        super().__init__(netlist)
        # Topological level per dense net id: inputs/registers sit at level 0,
        # an op output one past its deepest operand.  The op list is already
        # topologically ordered, so one forward pass suffices.
        level = [0] * self.num_nets
        for op in self.ops:
            level[op[1]] = 1 + max((level[i] for i in op[2:]), default=0)
        self.net_level: Tuple[int, ...] = tuple(level)
        self.num_levels = max(level, default=0)

        # Rows: level-0 nets in id order, then each level's gate groups in
        # opcode order, each group's gates in op-list order.
        grouped: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        for op in self.ops:
            grouped.setdefault((level[op[1]], op[0]), []).append(op)
        order = [net_id for net_id in range(self.num_nets) if level[net_id] == 0]
        placed = []
        for depth, code in sorted(grouped):
            ops = grouped[depth, code]
            placed.append((depth, code, len(order), ops))
            order.extend(op[1] for op in ops)
        self._slot = np.empty(self.num_nets, dtype=np.intp)
        self._slot[order] = np.arange(self.num_nets, dtype=np.intp)
        self._slot_level = np.array(level, dtype=np.intp)[order]
        edges = np.searchsorted(self._slot_level, np.arange(self.num_levels + 2)).tolist()
        #: Row range ``lo:hi`` of every level, level 0 (inputs/registers) first.
        self._level_bounds: List[Tuple[int, int]] = list(zip(edges[:-1], edges[1:]))
        slot = self._slot.tolist()
        self._net_slot: Dict[str, int] = {net: slot[i] for net, i in self.net_id.items()}
        self._input_slots = [(net, slot[i]) for net, i in self.input_ids]
        self._register_slots = [(net, slot[i]) for net, i in self.register_ids]
        self._feedback_slots = [(q_net, slot[d_id]) for q_net, d_id in self.flop_d_ids]

        def operand(ops: List[Tuple[int, ...]], index: int) -> Optional[np.ndarray]:
            if len(ops[0]) <= index:
                return None
            return self._slot[[op[index] for op in ops]]

        self._levels: List[List[_OpGroup]] = [[] for _ in range(self.num_levels)]
        for depth, code, lo, ops in placed:
            self._levels[depth - 1].append(
                (code, lo, lo + len(ops), operand(ops, 2), operand(ops, 3), operand(ops, 4))
            )

    # ------------------------------------------------------------------
    # Fault compilation
    # ------------------------------------------------------------------
    def compile_fault_arrays(
        self,
        fault_rows: np.ndarray,
        fault_lanes: np.ndarray,
        fault_modes: np.ndarray,
        num_lanes: int,
    ) -> Optional[_CompiledFaults]:
        """Scatter flat (net id, lane, mode) fault triples into dense keep/xor
        planes in row order (the shared :func:`fault_keep_xor`) and flag the
        levels they patch."""
        if fault_rows.size == 0:
            return None
        slots = self._slot[fault_rows]
        keep, xor = fault_keep_xor(
            slots, fault_lanes, fault_modes, self.num_nets, -(-num_lanes // WORD_BITS)
        )
        levels = self._slot_level[slots]
        stuck_levels = np.zeros(self.num_levels + 1, dtype=bool)
        stuck_levels[levels[fault_modes != MODE_FLIP]] = True
        xor_levels = np.zeros(self.num_levels + 1, dtype=bool)
        xor_levels[levels[fault_modes != MODE_STUCK0]] = True
        return keep, xor, stuck_levels.tolist(), xor_levels.tolist()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def register_feedback(self, values: NumpyLaneValues) -> Dict[str, np.ndarray]:
        """Next-cycle register lane rows captured from every flop's D net.

        The returned rows are views into the pass's value matrix; each
        pass allocates a fresh matrix, so feeding them into the next cycle
        is safe without copying.
        """
        return {q_net: values._values[row] for q_net, row in self._feedback_slots}

    def evaluate_compiled(
        self,
        inputs: Mapping[str, object],
        faults: Optional[_CompiledFaults],
        num_lanes: int,
        registers: Optional[Mapping[str, object]] = None,
        lane_words: bool = False,
    ) -> NumpyLaneValues:
        """One pass over the level groups with faults already compiled by
        :meth:`compile_fault_arrays`.

        The contract matches
        :meth:`~repro.netlist.parallel.CompiledNetlist.evaluate_compiled`;
        with ``lane_words=True`` the per-net lane words may be Python ints
        *or* ready-made little-endian ``uint64`` arrays (the campaign
        executor's packed per-context rows go straight in).
        """
        num_words = -(-num_lanes // WORD_BITS)
        mask = np.full(num_words, ~np.uint64(0), dtype=WORD_DTYPE)
        tail = num_lanes % WORD_BITS
        if tail:
            mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)

        values = np.zeros((self.num_nets, num_words), dtype=WORD_DTYPE)
        registers = registers or {}

        def source(row: int, value: object) -> None:
            if lane_words:
                if isinstance(value, np.ndarray):
                    values[row] = value.view(WORD_DTYPE) & mask
                else:
                    values[row] = int_to_words(int(value), num_words) & mask
            elif int(value) & 1:
                values[row] = mask

        for net, row in self._input_slots:
            source(row, inputs.get(net, 0))
        for net, row in self._register_slots:
            source(row, registers.get(net, 0))

        # Faults patch a level as soon as it is written -- inputs and
        # registers right after sourcing, gate outputs at the end of their
        # level, always before any deeper gate reads them.
        if faults is not None:
            keep, xor, stuck_levels, xor_levels = faults

            def patch(depth: int) -> None:
                lo, hi = self._level_bounds[depth]
                if stuck_levels[depth]:
                    values[lo:hi] &= keep[lo:hi]
                if xor_levels[depth]:
                    values[lo:hi] ^= xor[lo:hi]

            patch(0)

        for depth, groups in enumerate(self._levels, start=1):
            for code, lo, hi, a, b, s in groups:
                out = values[lo:hi]
                if code == _OP_AND2:
                    np.bitwise_and(values[a], values[b], out=out)
                elif code == _OP_NAND2:
                    np.bitwise_and(values[a], values[b], out=out)
                    out ^= mask
                elif code == _OP_OR2:
                    np.bitwise_or(values[a], values[b], out=out)
                elif code == _OP_NOR2:
                    np.bitwise_or(values[a], values[b], out=out)
                    out ^= mask
                elif code == _OP_XOR2:
                    np.bitwise_xor(values[a], values[b], out=out)
                elif code == _OP_XNOR2:
                    np.bitwise_xor(values[a], values[b], out=out)
                    out ^= mask
                elif code == _OP_INV:
                    np.bitwise_xor(values[a], mask, out=out)
                elif code == _OP_BUF:
                    out[...] = values[a]
                elif code == _OP_MUX2:
                    low = values[a]
                    diff = values[b]
                    diff ^= low
                    diff &= values[s]
                    np.bitwise_xor(low, diff, out=out)
                elif code == _OP_TIE0:
                    out.fill(0)
                else:  # _OP_TIE1
                    out[...] = mask
            if faults is not None:
                patch(depth)

        return NumpyLaneValues(self._net_slot, self._slot, values, num_lanes)
