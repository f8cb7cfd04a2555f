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

* **Levelised op groups.**  Gates are grouped by (topological level, opcode)
  at compile time; evaluation gathers every same-shaped gate of a level into
  one fancy-indexed ``numpy`` expression (``values[out] = values[a] &
  values[b]`` over index arrays), collapsing thousands of per-gate ops into a
  few dozen array calls per pass.
* **Vectorised fault words.**  Fault lanes enter as three flat arrays --
  faulted net id, lane, effect mode -- and the shared
  :func:`~repro.netlist.parallel.fault_word_planes` scatter turns them into
  compact per-faulted-net flip/stuck word matrices (no per-lane Python
  loop, no bignum masks).  The matrices are applied between levels in one
  fused expression per level; the bignum engine consumes the same scatter,
  so both engines apply faults with one set of ``FaultSet.apply`` semantics.
* **Byte-view transposes.**  ``read_words`` / ``read_words_by_id`` view the
  selected rows as bytes and run the shared
  :func:`~repro.netlist.parallel.lane_codes_from_byte_rows` transpose, so
  batch classification costs two vectorised bit passes instead of an
  O(lanes x bits) shift loop.

Because lanes cost ``1/64`` of a machine word each instead of a bignum digit
chain, lane counts are no longer tied to ``DEFAULT_LANE_WIDTH=256``: wide
campaigns run thousands of lanes per pass (the executor defaults this
engine to ``DEFAULT_NUMPY_LANE_WIDTH`` lanes).  Lane words entering and
leaving the engine remain plain Python ints (or little-endian ``uint64``
arrays), so planned batches, the shared-memory transport and the bignum
engine interoperate without conversion layers.

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
    CompiledNetlist,
    fault_word_planes,
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
    engines bit for bit.
    """

    def __init__(self, net_id: Mapping[str, int], values: np.ndarray, num_lanes: int):
        self._net_id = net_id
        self._values = values
        self.num_lanes = num_lanes

    def word(self, net: str) -> int:
        """The raw ``W``-bit lane word of one net (bit ``k`` = lane ``k``)."""
        return words_to_int(self._values[self._net_id[net]])

    def lane_value(self, net: str, lane: int) -> int:
        """The scalar 0/1 value of ``net`` in one lane."""
        word = int(self._values[self._net_id[net], lane // WORD_BITS])
        return (word >> (lane % WORD_BITS)) & 1

    def lane_values(self, lane: int) -> Dict[str, int]:
        """All net values of one lane, in ``NetlistSimulator.evaluate`` format."""
        column = (
            self._values[:, lane // WORD_BITS] >> np.uint64(lane % WORD_BITS)
        ) & np.uint64(1)
        return {net: int(column[i]) for net, i in self._net_id.items()}

    def read_word(self, bits: Sequence[str], lane: int) -> int:
        """Assemble an integer from per-bit nets (LSB first) for one lane."""
        code = 0
        for i, bit in enumerate(bits):
            code |= self.lane_value(bit, lane) << i
        return code

    def read_words(self, bits: Sequence[str]) -> List[int]:
        """Per-lane integers assembled from per-bit nets (LSB first)."""
        return self.read_words_by_id([self._net_id[bit] for bit in bits])

    def read_words_by_id(self, ids: Sequence[int]) -> List[int]:
        """Like :meth:`read_words` but over pre-resolved dense net ids.

        The selected rows are viewed as bytes and transposed through the
        shared :func:`~repro.netlist.parallel.lane_codes_from_byte_rows`
        helper -- no per-lane Python loop.
        """
        if not ids:
            return [0] * self.num_lanes
        rows = self._values[np.asarray(ids, dtype=np.intp)]
        return lane_codes_from_byte_rows(rows.view(np.uint8), self.num_lanes)

    def code_array_by_id(self, ids: Sequence[int]) -> Optional[np.ndarray]:
        """Per-lane codes as one uint64 array, or ``None`` for >64-bit codes.

        The vectorised campaign classifier consumes codes without ever
        materialising per-lane Python ints; state registers wider than one
        machine word fall back to :meth:`read_words_by_id`.
        """
        if not 0 < len(ids) < 64:
            return None
        rows = self._values[np.asarray(ids, dtype=np.intp)]
        return lane_code_array(rows.view(np.uint8), self.num_lanes)


#: One levelised op group: (opcode, out ids, operand ids...) as index arrays.
_OpGroup = Tuple[int, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]


class _FaultPlan:
    """Compiled fault words of one pass: compact matrices plus level slices.

    ``rows[i]`` is a faulted dense net id; ``flip``/``stuck_mask``/
    ``stuck_val`` hold that net's fault words across all lanes.  ``by_level``
    maps each topological level (0 = inputs/registers) to the slice of
    ``rows`` it must patch, so evaluation applies every fault of a level in
    one fused expression.
    """

    __slots__ = ("rows", "flip", "stuck_mask", "stuck_val", "by_level")

    def __init__(
        self,
        rows: np.ndarray,
        flip: np.ndarray,
        stuck_mask: np.ndarray,
        stuck_val: np.ndarray,
        by_level: Dict[int, np.ndarray],
    ):
        self.rows = rows
        self.flip = flip
        self.stuck_mask = stuck_mask
        self.stuck_val = stuck_val
        self.by_level = by_level

    def apply(self, values: np.ndarray, selection: np.ndarray) -> None:
        """Patch one level's faulted nets in ``values`` (stuck beats flip)."""
        idx = self.rows[selection]
        patched = values[idx]
        patched = (patched & ~self.stuck_mask[selection]) | self.stuck_val[selection]
        values[idx] = patched ^ self.flip[selection]


class NumpyCompiledNetlist(CompiledNetlist):
    """A netlist compiled for word-sliced multi-lane ``numpy`` evaluation.

    Shares the flat op list, dense net ids, fault scatter and multi-cycle
    driver (:meth:`~repro.netlist.parallel.CompiledNetlist.step_cycles_fault_arrays`)
    of :class:`~repro.netlist.parallel.CompiledNetlist` and adds the
    levelised (level, opcode) gate groups that vectorised evaluation runs on.
    The compiled form stays immutable and stateless; register values are
    inputs to :meth:`evaluate_fault_arrays`.
    """

    def __init__(self, netlist: Netlist):
        super().__init__(netlist)
        # Topological level per dense net id: inputs/registers sit at level 0,
        # an op output one past its deepest operand.  The op list is already
        # topologically ordered, so one forward pass suffices.
        level = [0] * self.num_nets
        for op in self.ops:
            out = op[1]
            operands = op[2:]
            level[out] = 1 + max((level[i] for i in operands), default=0)
        self.net_level: Tuple[int, ...] = tuple(level)
        self._net_level_arr = np.array(level, dtype=np.intp)

        grouped: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        for op in self.ops:
            grouped.setdefault((level[op[1]], op[0]), []).append(op)
        self._levels: List[List[_OpGroup]] = []
        self.num_levels = max(level, default=0)
        for depth in range(1, self.num_levels + 1):
            groups: List[_OpGroup] = []
            for (lvl, code), ops in grouped.items():
                if lvl != depth:
                    continue
                outs = np.array([op[1] for op in ops], dtype=np.intp)
                a = b = s = None
                if len(ops[0]) > 2:
                    a = np.array([op[2] for op in ops], dtype=np.intp)
                if len(ops[0]) > 3:
                    b = np.array([op[3] for op in ops], dtype=np.intp)
                if len(ops[0]) > 4:
                    s = np.array([op[4] for op in ops], dtype=np.intp)
                groups.append((code, outs, a, b, s))
            self._levels.append(groups)

    # ------------------------------------------------------------------
    # Fault compilation
    # ------------------------------------------------------------------
    def compile_fault_arrays(
        self,
        fault_rows: np.ndarray,
        fault_lanes: np.ndarray,
        fault_modes: np.ndarray,
        num_words: int,
    ) -> Optional[_FaultPlan]:
        """Scatter flat (net id, lane, mode) fault triples into a
        :class:`_FaultPlan` (the shared :func:`fault_word_planes` scatter
        plus the level slices evaluation patches by)."""
        if fault_rows.size == 0:
            return None
        rows, planes = fault_word_planes(fault_rows, fault_lanes, fault_modes, num_words)
        levels = self._net_level_arr[rows]
        order = np.argsort(levels, kind="stable")
        ordered = levels[order]
        starts = np.flatnonzero(
            np.concatenate(([True], ordered[1:] != ordered[:-1]))
        )
        bounds = np.append(starts, ordered.size)
        by_level = {
            int(ordered[lo]): order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        }
        return _FaultPlan(rows, planes[0], planes[1], planes[2], by_level)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def register_feedback(self, values: NumpyLaneValues) -> Dict[str, np.ndarray]:
        """Next-cycle register lane rows captured from every flop's D net.

        The returned rows are views into the pass's value matrix; each
        :meth:`evaluate_fault_arrays` allocates a fresh matrix, so feeding
        them into the next cycle is safe without copying.
        """
        return {q_net: values._values[d_id] for q_net, d_id in self.flop_d_ids}

    def evaluate_fault_arrays(
        self,
        inputs: Mapping[str, object],
        fault_rows: np.ndarray,
        fault_lanes: np.ndarray,
        fault_modes: np.ndarray,
        num_lanes: int,
        registers: Optional[Mapping[str, object]] = None,
        lane_words: bool = False,
    ) -> NumpyLaneValues:
        """Evaluate ``num_lanes`` lanes in one vectorised pass over the level
        groups.

        The contract matches
        :meth:`~repro.netlist.parallel.CompiledNetlist.evaluate_fault_arrays`;
        with ``lane_words=True`` the per-net lane words may be Python ints
        *or* ready-made little-endian ``uint64`` arrays (the shared-memory
        transport hands arrays straight in).
        """
        if num_lanes < 1:
            raise ValueError("at least one lane is required")
        num_words = -(-num_lanes // WORD_BITS)
        mask = np.full(num_words, ~np.uint64(0), dtype=WORD_DTYPE)
        tail = num_lanes % WORD_BITS
        if tail:
            mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)

        plan = self.compile_fault_arrays(fault_rows, fault_lanes, fault_modes, num_words)
        values = np.zeros((self.num_nets, num_words), dtype=WORD_DTYPE)
        registers = registers or {}

        def source(net_id: int, value: object) -> None:
            if lane_words:
                if isinstance(value, np.ndarray):
                    values[net_id] = value.view(WORD_DTYPE) & mask
                else:
                    values[net_id] = int_to_words(int(value), num_words) & mask
            elif int(value) & 1:
                values[net_id] = mask

        for net, net_id in self.input_ids:
            source(net_id, inputs.get(net, 0))
        for net, net_id in self.register_ids:
            source(net_id, registers.get(net, 0))

        # Faults patch a net as soon as its driver has run -- inputs and
        # registers right after sourcing, op outputs at the end of their
        # level, always before any deeper gate reads the net.
        if plan is not None:
            selection = plan.by_level.get(0)
            if selection is not None:
                plan.apply(values, selection)

        for depth, groups in enumerate(self._levels, start=1):
            for code, outs, a, b, s in groups:
                if code == _OP_AND2:
                    values[outs] = values[a] & values[b]
                elif code == _OP_NAND2:
                    values[outs] = (values[a] & values[b]) ^ mask
                elif code == _OP_OR2:
                    values[outs] = values[a] | values[b]
                elif code == _OP_NOR2:
                    values[outs] = (values[a] | values[b]) ^ mask
                elif code == _OP_XOR2:
                    values[outs] = values[a] ^ values[b]
                elif code == _OP_XNOR2:
                    values[outs] = (values[a] ^ values[b]) ^ mask
                elif code == _OP_INV:
                    values[outs] = values[a] ^ mask
                elif code == _OP_BUF:
                    values[outs] = values[a]
                elif code == _OP_MUX2:
                    av = values[a]
                    values[outs] = av ^ ((av ^ values[b]) & values[s])
                elif code == _OP_TIE0:
                    values[outs] = 0
                else:  # _OP_TIE1
                    values[outs] = mask
            if plan is not None:
                selection = plan.by_level.get(depth)
                if selection is not None:
                    plan.apply(values, selection)

        return NumpyLaneValues(self.net_id, values, num_lanes)
