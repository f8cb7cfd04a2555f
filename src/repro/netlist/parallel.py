"""Bit-parallel (word-level) netlist evaluation engine.

The scalar :class:`~repro.netlist.simulate.NetlistSimulator` walks the netlist
once per injection with a per-net ``Dict[str, int]`` -- fine for debugging one
fault, hopeless for exhaustive campaigns that evaluate ``edges x nets x
effects`` injections.  This module compiles a netlist **once** into a flat,
topologically ordered op list over dense integer net ids and then evaluates up
to ``W`` *fault lanes* per pass using Python bignum bitwise operations:

* every net holds a ``W``-bit integer whose bit ``k`` is the net's value in
  lane ``k``;
* lanes carrying no fault are *golden* lanes; by convention campaigns put at
  least one golden lane in every pass and assert it against the analytic
  next state;
* faults arrive as three flat arrays -- dense net id, lane, effect mode
  (:data:`MODE_FLIP` / :data:`MODE_STUCK0` / :data:`MODE_STUCK1`).  One
  unsorted ``ufunc.at`` scatter, :func:`fault_keep_xor`, turns them into
  dense keep/xor word planes with the oracle's fault rule; this
  engine lifts the faulted rows into per-net ``(keep, xor)`` bignum pairs and
  applies ``word = (word & keep) ^ xor`` right after the driving op.

Inputs and registers may be supplied either as scalar 0/1 values broadcast to
every lane (the common single-context case) or, with ``lane_words=True``, as
ready-made ``W``-bit lane words so that different lanes can simulate
*different transition contexts* in the same pass -- that is what lets the
campaign layer pack few-nets/many-transitions sweeps densely into lanes.
:meth:`CompiledNetlist.step_cycles_fault_arrays` chains passes with register
feedback for multi-cycle traces.

One pass over the op list simulates up to ``W`` evaluations, which is where
the 10-50x campaign speedups over the scalar simulator come from: the Python
interpreter overhead per gate is paid once per *batch* instead of once per
*injection*.  The op list, the fault scatter and the multi-cycle driver are
shared with the word-sliced numpy engine (:mod:`repro.netlist.parallel_np`),
so both engines apply faults on one path.  The scalar simulator remains the
cross-check oracle (see ``tests/test_parallel_sim.py``).

Compiled netlists are the per-worker unit of the process-sharded campaign
executor (:mod:`repro.fi.executor`, ``workers=N``): every worker process
compiles its own instance once from the netlist its fleet config ships
(only the netlist crosses the process boundary, not the compiled form).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

# Opcodes of the flat op list (small ints dispatch faster than enum members).
_OP_TIE0 = 0
_OP_TIE1 = 1
_OP_BUF = 2
_OP_INV = 3
_OP_AND2 = 4
_OP_NAND2 = 5
_OP_OR2 = 6
_OP_NOR2 = 7
_OP_XOR2 = 8
_OP_XNOR2 = 9
_OP_MUX2 = 10

_OPCODE = {
    GateType.TIE0: _OP_TIE0,
    GateType.TIE1: _OP_TIE1,
    GateType.BUF: _OP_BUF,
    GateType.INV: _OP_INV,
    GateType.AND2: _OP_AND2,
    GateType.NAND2: _OP_NAND2,
    GateType.OR2: _OP_OR2,
    GateType.NOR2: _OP_NOR2,
    GateType.XOR2: _OP_XOR2,
    GateType.XNOR2: _OP_XNOR2,
    GateType.MUX2: _OP_MUX2,
}

#: Below this many (lanes x bits) cells the plain shift loop beats the numpy
#: transpose (array setup dominates); above it the byte-level path wins by an
#: order of magnitude on wide batches.
_TRANSPOSE_THRESHOLD = 512

#: Lanes per machine word of the fault scatter (and of the numpy engine).
WORD_BITS = 64

#: Explicit little-endian words so lane <-> byte positions are stable across
#: hosts (on the common little-endian platforms this is the native dtype).
WORD_DTYPE = np.dtype("<u8")

#: Fault effect modes of the flat fault arrays (the campaign layer lowers
#: :class:`~repro.fi.model.FaultEffect` onto these).
MODE_FLIP = 0
MODE_STUCK0 = 1
MODE_STUCK1 = 2


def _last_stuck_wins(
    rows: np.ndarray, lanes: np.ndarray, modes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop every stuck-at a later stuck-at on the same (net, lane) overrides.

    A group that sticks one net at 0 and then at 1 behaves like the oracle's
    fault cell, whose stuck-value input keeps the last value written.
    """
    stuck = np.flatnonzero(modes != MODE_FLIP)
    keys = rows[stuck].astype(np.int64) * (int(lanes.max()) + 1) + lanes[stuck]
    # The first hit in reversed order is the last stuck-at in group order.
    _, last = np.unique(keys[::-1], return_index=True)
    keep = np.ones(rows.size, dtype=bool)
    keep[stuck] = False
    keep[stuck[stuck.size - 1 - last]] = True
    return rows[keep], lanes[keep], modes[keep]


def fault_keep_xor(
    fault_rows: np.ndarray,
    fault_lanes: np.ndarray,
    fault_modes: np.ndarray,
    num_rows: int,
    num_words: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter flat ``(row, lane, mode)`` fault triples into keep/xor planes.

    Returns two dense ``(num_rows, num_words)`` uint64 arrays: applying
    ``v = (v & keep[row]) ^ xor[row]`` to a row's lane words right after its
    driver runs injects every fault.  A stuck-at clears the lane's ``keep``
    bit (and sets its ``xor`` bit for stuck-at-1); a flip sets its ``xor``
    bit.  The triples of one lane form one fault group with the rule of the
    oracle's fault cells (:class:`~repro.netlist.simulate.InstrumentedNetlist`):
    stuck-at beats flip, the last stuck-at on a net wins, and a repeated
    flip is one flip.  Rows are trusted (the campaign layer resolves
    and bounds-checks them).
    """
    rows = np.asarray(fault_rows, dtype=np.intp)
    lanes = np.asarray(fault_lanes, dtype=np.intp)
    modes = np.asarray(fault_modes)
    # Conflicts need two faults in one lane; single-fault passes skip both
    # conflict checks.
    crowded = lanes.size > 1 and int(np.bincount(lanes).max()) > 1
    if crowded:
        rows, lanes, modes = _last_stuck_wins(rows, lanes, modes)
    flat = rows * num_words + (lanes >> 6)
    bits = np.left_shift(np.uint64(1), (lanes & 63).astype(np.uint64))
    # Both planes share one block: two separate blocks of this size, freed
    # after every pass, make glibc's malloc return them to the OS and
    # page-fault them back in on the next pass.
    keep, xor = np.empty((2, num_rows * num_words), dtype=WORD_DTYPE)
    keep.fill(~np.uint64(0))
    xor.fill(0)
    flips = modes == MODE_FLIP
    stuck = ~flips
    if stuck.any():
        np.bitwise_and.at(keep, flat[stuck], ~bits[stuck])
        if crowded:
            # A flip whose keep bit a stuck-at cleared is overridden.
            flips &= (keep[flat] & bits) != 0
    toggles = flips | (modes == MODE_STUCK1)
    np.bitwise_or.at(xor, flat[toggles], bits[toggles])
    return keep.reshape(num_rows, num_words), xor.reshape(num_rows, num_words)


def lane_code_array(rows: np.ndarray, num_lanes: int) -> np.ndarray:
    """Per-lane codes of fewer than 64 bits from a byte-level bit matrix.

    ``rows`` is laid out as in :func:`lane_codes_from_byte_rows`; the codes
    come back as one uint64 array (one weighted column sum).
    """
    bits = np.unpackbits(rows, axis=1, count=num_lanes, bitorder="little")
    weights = np.left_shift(np.uint64(1), np.arange(rows.shape[0], dtype=np.uint64))
    return (bits * weights[:, None]).sum(axis=0, dtype=np.uint64)



def lane_codes_from_byte_rows(rows, num_lanes: int) -> List[int]:
    """Per-lane integers from a byte-level bit matrix (the shared transpose).

    ``rows`` is a ``(num_bits, num_bytes)`` ``uint8`` array where bit ``i`` of
    lane ``k`` lives in ``rows[i, k // 8]`` at bit position ``k % 8`` (i.e.
    every row is the little-endian byte form of one net's lane word).  Returns
    ``num_lanes`` integers assembling bit ``i`` of each lane LSB-first --
    exactly what the O(lanes x bits) shift loop of
    :meth:`LaneValues.read_words_by_id` used to produce, but vectorised: one
    ``unpackbits`` plus either a weighted column sum (codes below 64 bits) or
    a ``packbits`` re-pack (arbitrary width).  Shared by the bignum engine
    and :mod:`repro.netlist.parallel_np`.
    """
    num_bits = rows.shape[0]
    if num_bits == 0:
        return [0] * num_lanes
    if num_bits < 64:
        return lane_code_array(rows, num_lanes).tolist()
    bits = np.unpackbits(rows, axis=1, count=num_lanes, bitorder="little")
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    stride = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[lane * stride : (lane + 1) * stride], "little")
        for lane in range(num_lanes)
    ]


class LaneValues:
    """Per-net lane words produced by one
    :meth:`CompiledNetlist.evaluate_fault_arrays` pass."""

    def __init__(self, net_id: Mapping[str, int], words: List[int], num_lanes: int):
        self._net_id = net_id
        self._words = words
        self.num_lanes = num_lanes

    def word(self, net: str) -> int:
        """The raw ``W``-bit lane word of one net (bit ``k`` = lane ``k``)."""
        return self._words[self._net_id[net]]

    def lane_value(self, net: str, lane: int) -> int:
        """The scalar 0/1 value of ``net`` in one lane."""
        return (self._words[self._net_id[net]] >> lane) & 1

    def lane_values(self, lane: int) -> Dict[str, int]:
        """All net values of one lane, in ``NetlistSimulator.evaluate`` format."""
        return {net: (self._words[i] >> lane) & 1 for net, i in self._net_id.items()}

    def read_word(self, bits: Sequence[str], lane: int) -> int:
        """Assemble an integer from per-bit nets (LSB first) for one lane."""
        code = 0
        for i, bit in enumerate(bits):
            code |= ((self._words[self._net_id[bit]] >> lane) & 1) << i
        return code

    def read_words(self, bits: Sequence[str]) -> List[int]:
        """Per-lane integers assembled from per-bit nets (LSB first).

        This is the batch classification primitive: one call transposes the
        lane words of e.g. the state-register D nets into one next-state code
        per lane.
        """
        return self.read_words_by_id([self._net_id[bit] for bit in bits])

    def read_words_by_id(self, ids: Sequence[int]) -> List[int]:
        """Like :meth:`read_words` but over pre-resolved dense net ids.

        Wide batches go through the shared byte-level transpose
        (:func:`lane_codes_from_byte_rows`): each bignum lane word is lowered
        to its little-endian bytes once and the per-lane codes come out of two
        vectorised bit passes, replacing the O(lanes x bits) shift loop that
        used to dominate batch classification at large lane counts.  Tiny
        reads keep the plain loop.
        """
        if self.num_lanes * len(ids) >= _TRANSPOSE_THRESHOLD:
            return lane_codes_from_byte_rows(self.byte_rows_by_id(ids), self.num_lanes)
        words = [self._words[net_id] for net_id in ids]
        codes = []
        for lane in range(self.num_lanes):
            code = 0
            for i, word in enumerate(words):
                code |= ((word >> lane) & 1) << i
            codes.append(code)
        return codes

    def code_array_by_id(self, ids: Sequence[int]) -> Optional[np.ndarray]:
        """Per-lane codes as one uint64 array, or ``None`` unless
        ``0 < len(ids) < 64`` (wider codes go through :meth:`read_words_by_id`)."""
        if not 0 < len(ids) < 64:
            return None
        return lane_code_array(self.byte_rows_by_id(ids), self.num_lanes)

    def byte_rows_by_id(self, ids: Sequence[int]) -> np.ndarray:
        """The little-endian byte form of the selected lane words, one row each."""
        num_bytes = (self.num_lanes + 7) // 8
        return np.frombuffer(
            b"".join(self._words[net_id].to_bytes(num_bytes, "little") for net_id in ids),
            dtype=np.uint8,
        ).reshape(len(ids), num_bytes)


class CompiledNetlist:
    """A netlist compiled for bit-parallel multi-lane evaluation.

    Compilation assigns every net a dense integer id and flattens the
    combinational cloud into ``(opcode, out_id, in_ids...)`` tuples in
    topological order.  The compiled form is immutable and stateless: register
    values are inputs to :meth:`evaluate_fault_arrays`, so one compiled
    netlist can serve any number of concurrent campaigns.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.net_id: Dict[str, int] = {}

        def intern(net: str) -> int:
            net_id = self.net_id.get(net)
            if net_id is None:
                net_id = len(self.net_id)
                self.net_id[net] = net_id
            return net_id

        self.input_ids: List[Tuple[str, int]] = [
            (net, intern(net)) for net in netlist.primary_inputs
        ]
        #: (q net name, q id, d id) per flop; d ids are filled after interning.
        self._flops = netlist.flops()
        self.register_ids: List[Tuple[str, int]] = [
            (flop.output, intern(flop.output)) for flop in self._flops
        ]
        self.ops: List[Tuple[int, ...]] = []
        for gate in netlist.topological_order():
            out = intern(gate.output)
            operands = tuple(intern(net) for net in gate.inputs)
            self.ops.append((_OPCODE[gate.gate_type], out) + operands)
        self.flop_d_ids: List[Tuple[str, int]] = [
            (flop.output, intern(flop.inputs[0])) for flop in self._flops
        ]
        self.num_nets = len(self.net_id)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compile_fault_arrays(
        self,
        fault_rows: np.ndarray,
        fault_lanes: np.ndarray,
        fault_modes: np.ndarray,
        num_lanes: int,
    ) -> Dict[int, Tuple[int, int]]:
        """Per-faulted-net (keep, xor) lane words of one pass.

        The shared :func:`fault_keep_xor` scatter fills dense planes; only
        the faulted rows are turned into bignum words.
        """
        if not fault_rows.size:
            return {}
        num_words = -(-num_lanes // WORD_BITS)
        keep, xor = fault_keep_xor(
            fault_rows, fault_lanes, fault_modes, self.num_nets, num_words
        )
        hit = np.zeros(self.num_nets, dtype=bool)
        hit[fault_rows] = True
        ids = np.flatnonzero(hit)
        stride = num_words * 8
        keep_data = keep[ids].tobytes()
        xor_data = xor[ids].tobytes()
        return {
            net_id: (
                int.from_bytes(keep_data[i : i + stride], "little"),
                int.from_bytes(xor_data[i : i + stride], "little"),
            )
            for net_id, i in zip(ids.tolist(), range(0, len(keep_data), stride))
        }

    def evaluate_fault_arrays(
        self,
        inputs: Mapping[str, int],
        fault_rows: np.ndarray,
        fault_lanes: np.ndarray,
        fault_modes: np.ndarray,
        num_lanes: int,
        registers: Optional[Mapping[str, int]] = None,
        lane_words: bool = False,
    ) -> LaneValues:
        """Evaluate ``num_lanes`` lanes in one pass over the op list.

        Faults arrive as flat ``(dense net id, lane, effect mode)`` triples
        (see :func:`fault_keep_xor` for their semantics).  By default
        ``inputs`` and ``registers`` are scalar 0/1 assignments broadcast to
        every lane (missing inputs and registers default to zero).  With
        ``lane_words=True`` they are instead ``W``-bit lane words (bit ``k`` =
        the net's value in lane ``k``), which lets different lanes evaluate
        different input/state contexts in the same pass.
        """
        if num_lanes < 1:
            raise ValueError("at least one lane is required")
        faults = self.compile_fault_arrays(fault_rows, fault_lanes, fault_modes, num_lanes)
        return self.evaluate_compiled(
            inputs, faults, num_lanes, registers=registers, lane_words=lane_words
        )

    def evaluate_compiled(
        self,
        inputs: Mapping[str, int],
        faults: Dict[int, Tuple[int, int]],
        num_lanes: int,
        registers: Optional[Mapping[str, int]] = None,
        lane_words: bool = False,
    ) -> LaneValues:
        """One pass with faults already compiled by :meth:`compile_fault_arrays`."""
        mask = (1 << num_lanes) - 1

        values = [0] * self.num_nets
        registers = registers or {}

        def source(net_id: int, value: int) -> None:
            if lane_words:
                word = int(value) & mask
            else:
                word = mask if value & 1 else 0
            entry = faults.get(net_id)
            if entry is not None:
                word = (word & entry[0]) ^ entry[1]
            values[net_id] = word

        for net, net_id in self.input_ids:
            source(net_id, int(inputs.get(net, 0)))
        for net, net_id in self.register_ids:
            source(net_id, int(registers.get(net, 0)))

        faults_get = faults.get
        faulted = bool(faults)
        for op in self.ops:
            code = op[0]
            if code == _OP_AND2:
                word = values[op[2]] & values[op[3]]
            elif code == _OP_OR2:
                word = values[op[2]] | values[op[3]]
            elif code == _OP_XOR2:
                word = values[op[2]] ^ values[op[3]]
            elif code == _OP_INV:
                word = values[op[2]] ^ mask
            elif code == _OP_BUF:
                word = values[op[2]]
            elif code == _OP_NAND2:
                word = (values[op[2]] & values[op[3]]) ^ mask
            elif code == _OP_NOR2:
                word = (values[op[2]] | values[op[3]]) ^ mask
            elif code == _OP_XNOR2:
                word = (values[op[2]] ^ values[op[3]]) ^ mask
            elif code == _OP_MUX2:
                a = values[op[2]]
                word = a ^ ((a ^ values[op[3]]) & values[op[4]])
            elif code == _OP_TIE0:
                word = 0
            else:  # _OP_TIE1
                word = mask
            out = op[1]
            if faulted:
                entry = faults_get(out)
                if entry is not None:
                    word = (word & entry[0]) ^ entry[1]
            values[out] = word
        return LaneValues(self.net_id, values, num_lanes)

    def register_feedback(self, values: LaneValues) -> Dict[str, int]:
        """Next-cycle register lane words captured from every flop's D net.

        Feeding the returned mapping back as ``registers`` (with
        ``lane_words=True``) advances the sequential state of every lane by
        one clock edge -- the primitive behind :meth:`step_cycles_fault_arrays`.
        """
        return {q_net: values._words[d_id] for q_net, d_id in self.flop_d_ids}

    def step_cycles_fault_arrays(
        self,
        inputs: Mapping[str, object],
        cycle_faults: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        num_lanes: int,
        registers: Optional[Mapping[str, object]] = None,
        lane_words: bool = False,
    ):
        """Evaluate ``len(cycle_faults)`` clock cycles with register feedback.

        ``cycle_faults[t]`` is the flat ``(net ids, lanes, modes)`` fault
        triple active during cycle ``t`` (empty arrays for a fault-free
        cycle).  Inputs are held constant across cycles while registers
        advance through each cycle's captured D-net words.  A *transient*
        fault appears in exactly one cycle's triple, a *persistent* stuck-at
        in all of them, and a multi-shot glitch schedule in the cycles it
        names.  Each distinct triple is compiled once and reused while the
        following cycles pass the same triple object, so a persistent fault
        set handed to every cycle is scattered once per trace.  Returns the
        lane values of the final cycle, whose D nets hold the state each lane
        would enter after the last clock edge.
        """
        if not cycle_faults:
            raise ValueError("at least one cycle is required")
        if num_lanes < 1:
            raise ValueError("at least one lane is required")
        if not lane_words:
            # Broadcast scalar contexts to lane words once so every cycle --
            # including the register-feedback cycles, whose register values
            # are always lane words -- runs with ``lane_words=True``.
            word = (1 << num_lanes) - 1
            inputs = {net: (word if int(value) & 1 else 0) for net, value in inputs.items()}
            if registers:
                registers = {
                    net: (word if int(value) & 1 else 0) for net, value in registers.items()
                }
        values = compiled = previous = None
        for triple in cycle_faults:
            if triple is not previous:
                compiled = self.compile_fault_arrays(*triple, num_lanes)
                previous = triple
            values = self.evaluate_compiled(
                inputs, compiled, num_lanes, registers=registers, lane_words=True
            )
            registers = self.register_feedback(values)
        return values
