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

Both compiled engines -- this one and the word-sliced numpy engine
(:mod:`repro.netlist.parallel_np`) -- have one entry point,
:meth:`CompiledNetlist.step_cycles_fault_arrays`, and one input form: inputs
and registers arrive as lane words in the engine's own form (Python ints
here, little-endian uint64 rows there), so different lanes can simulate
*different transition contexts* in the same pass, and a trace of several
cycles chains passes with register feedback.  Both hand back one reader,
:class:`LaneValues`: each engine lowers selected lane words to little-endian
byte rows, and every read -- one net's word, one lane's values, the per-lane
state codes that classify a batch -- is built from those rows.

One pass over the op list simulates up to ``W`` evaluations, which is where
the 10-50x campaign speedups over the scalar simulator come from: the Python
interpreter overhead per gate is paid once per *batch* instead of once per
*injection*.  The op list, the fault scatter, the multi-cycle driver and the
reader are shared by both engines, so both apply faults on one path.  The
scalar simulator remains the cross-check oracle (see
``tests/test_parallel_sim.py``).

Compiled netlists are the per-worker unit of the process-sharded campaign
executor (:mod:`repro.fi.executor`, ``workers=N``): every worker process
compiles its own instance once from the netlist its fleet config ships
(only the netlist crosses the process boundary, not the compiled form).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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


class LaneValues:
    """Per-net lane words of one compiled pass, read through their byte rows.

    Both engines hand back this reader.  ``words`` is the engine's own value
    store (a list of bignums, or the numpy engine's ``(num_nets, num_words)``
    uint64 matrix), and the engine's ``byte_rows`` method is the only code
    that knows its layout: it lowers the lane words of selected dense net ids
    to a ``(len(ids), num_bytes)`` uint8 matrix in which row ``i`` is the
    little-endian byte form of net ``ids[i]``'s lane word, so lane ``k`` sits
    in byte ``k // 8`` at bit ``k % 8``.  Every read below is built from those
    rows; the engine's ``register_feedback`` reads ``words`` directly.
    """

    def __init__(self, engine: "CompiledNetlist", words, num_lanes: int):
        self._engine = engine
        self.words = words
        self.num_lanes = num_lanes

    def byte_rows_by_id(self, ids: Sequence[int]) -> np.ndarray:
        """The little-endian byte form of the selected lane words, one row each."""
        return self._engine.byte_rows(self.words, ids, self.num_lanes)

    def word(self, net: str) -> int:
        """The raw ``W``-bit lane word of one net (bit ``k`` = lane ``k``)."""
        return int.from_bytes(self.byte_rows_by_id([self._engine.net_id[net]]).tobytes(), "little")

    def lane_value(self, net: str, lane: int) -> int:
        """The scalar 0/1 value of ``net`` in one lane."""
        return self._lane_column([self._engine.net_id[net]], lane)[0]

    def lane_values(self, lane: int) -> Dict[str, int]:
        """All net values of one lane, in ``NetlistSimulator.evaluate`` format."""
        net_id = self._engine.net_id
        return dict(zip(net_id, self._lane_column(list(net_id.values()), lane)))

    def _lane_column(self, ids: Sequence[int], lane: int) -> List[int]:
        rows = self.byte_rows_by_id(ids)
        return ((rows[:, lane >> 3] >> (lane & 7)) & 1).tolist()

    def codes_by_id(self, ids: Sequence[int]) -> Union[np.ndarray, List[int]]:
        """Per-lane integers assembled from the selected nets, LSB first.

        This is the batch classification primitive: one call transposes the
        lane words of e.g. the state-register D nets into one code per lane.
        Codes of fewer than 64 bits come back as one uint64 array (one
        weighted column sum); wider codes as exact Python ints, re-packed
        per lane.
        """
        bits = np.unpackbits(
            self.byte_rows_by_id(ids), axis=1, count=self.num_lanes, bitorder="little"
        )
        if len(ids) < 64:
            weights = np.left_shift(np.uint64(1), np.arange(len(ids), dtype=np.uint64))
            return (bits * weights[:, None]).sum(axis=0, dtype=np.uint64)
        packed = np.packbits(bits.T, axis=1, bitorder="little")
        return [int.from_bytes(row, "little") for row in map(bytes, packed)]


class CompiledNetlist:
    """A netlist compiled for bit-parallel multi-lane evaluation.

    Compilation assigns every net a dense integer id and flattens the
    combinational cloud into ``(opcode, out_id, in_ids...)`` tuples in
    topological order.  The compiled form is immutable and stateless: register
    values are inputs to :meth:`step_cycles_fault_arrays`, so one compiled
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
    def byte_rows(self, words: List[int], ids: Sequence[int], num_lanes: int) -> np.ndarray:
        """The little-endian bytes of the selected bignum lane words, one row
        each (the engine-specific half of :class:`LaneValues`)."""
        num_bytes = (num_lanes + 7) // 8
        return np.frombuffer(
            b"".join(words[net_id].to_bytes(num_bytes, "little") for net_id in ids),
            dtype=np.uint8,
        ).reshape(len(ids), num_bytes)

    def register_feedback(self, values: LaneValues) -> Dict[str, int]:
        """Next-cycle register lane words captured from every flop's D net.

        Feeding the returned mapping back as ``registers`` advances the
        sequential state of every lane by one clock edge.
        """
        return {q_net: values.words[d_id] for q_net, d_id in self.flop_d_ids}

    def step_cycles_fault_arrays(
        self,
        inputs: Mapping[str, object],
        cycle_faults: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        num_lanes: int,
        registers: Optional[Mapping[str, object]] = None,
    ) -> LaneValues:
        """Evaluate ``len(cycle_faults)`` clock cycles with register feedback.

        ``inputs`` and ``registers`` map nets to lane words in the engine's
        own form (Python ints here, little-endian uint64 rows on the numpy
        engine): bit ``k`` is the net's value in lane ``k``, so different
        lanes can evaluate different input/state contexts in the same pass.
        Missing nets are zero in every lane.

        ``cycle_faults[t]`` is the flat ``(net ids, lanes, modes)`` fault
        triple active during cycle ``t`` (empty arrays for a fault-free
        cycle; see :func:`fault_keep_xor` for its semantics).  Inputs are
        held constant across cycles while registers advance through each
        cycle's captured D-net words.  A *transient* fault appears in exactly
        one cycle's triple, a *persistent* stuck-at in all of them, and a
        multi-shot glitch schedule in the cycles it names.  Each distinct
        triple is compiled once and reused while the following cycles pass
        the same triple object, so a persistent fault set handed to every
        cycle is scattered once per trace.  Returns the lane values of the
        final cycle, whose D nets hold the state each lane would enter after
        the last clock edge.
        """
        if not cycle_faults:
            raise ValueError("at least one cycle is required")
        if num_lanes < 1:
            raise ValueError("at least one lane is required")
        values = compiled = previous = None
        for triple in cycle_faults:
            if triple is not previous:
                compiled = self._compile_faults(*triple, num_lanes)
                previous = triple
            values = self._evaluate(inputs, compiled, num_lanes, registers or {})
            registers = self.register_feedback(values)
        return values

    def _compile_faults(
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

    def _evaluate(
        self,
        inputs: Mapping[str, int],
        faults: Dict[int, Tuple[int, int]],
        num_lanes: int,
        registers: Mapping[str, int],
    ) -> LaneValues:
        """One pass over the op list with faults compiled by :meth:`_compile_faults`."""
        mask = (1 << num_lanes) - 1
        values = [0] * self.num_nets

        def source(net_id: int, word: int) -> None:
            word &= mask
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
        return LaneValues(self, values, num_lanes)
