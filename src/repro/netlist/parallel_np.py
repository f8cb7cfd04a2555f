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
* **Byte-view reads.**  The shared
  :class:`~repro.netlist.parallel.LaneValues` reader asks the engine only
  for byte rows: the selected rows of the value matrix viewed as bytes,
  with no copy per net, from which batch classification gets every lane's
  state code in two vectorised bit passes.

Because lanes cost ``1/64`` of a machine word each instead of a bignum digit
chain, lane counts are no longer tied to ``DEFAULT_LANE_WIDTH=256``: wide
campaigns run thousands of lanes per pass (the executor defaults this
engine to ``DEFAULT_NUMPY_LANE_WIDTH`` lanes).  The engine keeps the bignum
engine's one entry point
(:meth:`~repro.netlist.parallel.CompiledNetlist.step_cycles_fault_arrays`),
with lane words entering as ``(num_words,)`` little-endian ``uint64`` rows:
the campaign executor hands its packed per-context rows straight in, and
register feedback passes rows of the previous pass's matrix.

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
    LaneValues,
    fault_keep_xor,
)


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
    :meth:`step_cycles_fault_arrays`.
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
    def _compile_faults(
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
    def byte_rows(self, words: np.ndarray, ids: Sequence[int], num_lanes: int) -> np.ndarray:
        """The selected rows of the value matrix viewed as little-endian bytes
        (the engine-specific half of :class:`~repro.netlist.parallel.LaneValues`)."""
        return words[self._slot[np.asarray(ids, dtype=np.intp)]].view(np.uint8)

    def register_feedback(self, values: LaneValues) -> Dict[str, np.ndarray]:
        """Next-cycle register lane rows captured from every flop's D net.

        The returned rows are views into the pass's value matrix; each
        pass allocates a fresh matrix, so feeding them into the next cycle
        is safe without copying.
        """
        return {q_net: values.words[row] for q_net, row in self._feedback_slots}

    def _evaluate(
        self,
        inputs: Mapping[str, np.ndarray],
        faults: Optional[_CompiledFaults],
        num_lanes: int,
        registers: Mapping[str, np.ndarray],
    ) -> LaneValues:
        """One pass over the level groups with faults compiled by
        :meth:`_compile_faults`; lane words are ``(num_words,)`` little-endian
        uint64 rows."""
        num_words = -(-num_lanes // WORD_BITS)
        mask = np.full(num_words, ~np.uint64(0), dtype=WORD_DTYPE)
        tail = num_lanes % WORD_BITS
        if tail:
            mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)

        values = np.zeros((self.num_nets, num_words), dtype=WORD_DTYPE)
        for nets, rows in ((inputs, self._input_slots), (registers, self._register_slots)):
            for net, row in rows:
                word = nets.get(net)
                if word is not None:
                    np.bitwise_and(word, mask, out=values[row])

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

        return LaneValues(self, values, num_lanes)
