"""Bit-parallel (word-level) netlist evaluation engine.

The scalar :class:`~repro.netlist.simulate.NetlistSimulator` walks the netlist
once per injection with a per-net ``Dict[str, int]`` -- fine for debugging one
fault, hopeless for exhaustive campaigns that evaluate ``edges x nets x
effects`` injections.  This module compiles a netlist **once** into a flat,
topologically ordered op list over dense integer net ids and then evaluates up
to ``W`` *fault lanes* per pass using Python bignum bitwise operations:

* every net holds a ``W``-bit integer whose bit ``k`` is the net's value in
  lane ``k``;
* lanes carrying no fault set are *golden* lanes; by convention campaigns put
  at least one golden lane in every pass and assert it against the analytic
  next state;
* each lane carries its own :class:`~repro.netlist.simulate.FaultSet`,
  compiled into per-net flip/stuck mask words that are applied right after the
  driving op, exactly mirroring ``FaultSet.apply`` (stuck-at wins over flip).

Inputs and registers may be supplied either as scalar 0/1 values broadcast to
every lane (the common single-context case) or, with ``lane_words=True``, as
ready-made ``W``-bit lane words so that different lanes can simulate
*different transition contexts* in the same pass -- that is what lets the
campaign layer pack few-nets/many-transitions sweeps densely into lanes.
:meth:`CompiledNetlist.step_cycles` chains passes with register feedback for
multi-cycle traces.

One pass over the op list simulates up to ``W`` evaluations, which is where
the 10-50x campaign speedups over the scalar simulator come from: the Python
interpreter overhead per gate is paid once per *batch* instead of once per
*injection*.  The op list is also the compile front end of the word-sliced
numpy engine (:mod:`repro.netlist.parallel_np`).  The scalar simulator
remains available as a cross-check oracle (see
``tests/test_parallel_sim.py``).

Compiled netlists are the per-worker unit of the process-sharded campaign
executor (:mod:`repro.fi.executor`, ``workers=N``): every worker process
compiles its own instance once from the netlist it receives at pool startup
(only the netlist crosses the process boundary, not the compiled form).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:  # numpy accelerates the lane-word transposes; the engines work without it
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a package dependency
    _np = None

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import FaultSet

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
    bits = _np.unpackbits(rows, axis=1, count=num_lanes, bitorder="little")
    if num_bits < 64:
        weights = _np.left_shift(
            _np.uint64(1), _np.arange(num_bits, dtype=_np.uint64)
        )
        codes = (bits * weights[:, None]).sum(axis=0, dtype=_np.uint64)
        return codes.tolist()
    packed = _np.packbits(bits.T, axis=1, bitorder="little")
    stride = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[lane * stride : (lane + 1) * stride], "little")
        for lane in range(num_lanes)
    ]


class LaneValues:
    """Per-net lane words produced by one :meth:`CompiledNetlist.evaluate` pass."""

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
        reads (and numpy-less installs) keep the plain loop.
        """
        words = [self._words[net_id] for net_id in ids]
        if _np is not None and self.num_lanes * len(words) >= _TRANSPOSE_THRESHOLD:
            num_bytes = (self.num_lanes + 7) // 8
            rows = _np.frombuffer(
                b"".join(word.to_bytes(num_bytes, "little") for word in words),
                dtype=_np.uint8,
            ).reshape(len(words), num_bytes)
            return lane_codes_from_byte_rows(rows, self.num_lanes)
        codes = []
        for lane in range(self.num_lanes):
            code = 0
            for i, word in enumerate(words):
                code |= ((word >> lane) & 1) << i
            codes.append(code)
        return codes


class CompiledNetlist:
    """A netlist compiled for bit-parallel multi-lane evaluation.

    Compilation assigns every net a dense integer id and flattens the
    combinational cloud into ``(opcode, out_id, in_ids...)`` tuples in
    topological order.  The compiled form is immutable and stateless: register
    values are inputs to :meth:`evaluate`, so one compiled netlist can serve
    any number of concurrent campaigns.
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
        self._d_id_of: Dict[str, int] = dict(self.flop_d_ids)
        self.num_nets = len(self.net_id)

    # ------------------------------------------------------------------
    # Fault-lane compilation
    # ------------------------------------------------------------------
    def _compile_faults(
        self, fault_lanes: Sequence[Optional[FaultSet]]
    ) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
        """Per-net flip words and (stuck mask, stuck value) words over all lanes.

        Raises :class:`ValueError` when a fault targets a net the netlist does
        not contain -- silently skipping it would report the lane as fault-free
        (and therefore MASKED) to the campaign layer.
        """
        flips: Dict[int, int] = {}
        stuck: Dict[int, Tuple[int, int]] = {}
        unknown: set = set()
        for lane, fault_set in enumerate(fault_lanes):
            if fault_set is None or fault_set.is_empty:
                continue
            bit = 1 << lane
            for net in fault_set.flips:
                net_id = self.net_id.get(net)
                if net_id is None:
                    unknown.add(net)
                    continue
                flips[net_id] = flips.get(net_id, 0) | bit
            for net, value in fault_set.stuck_at.items():
                net_id = self.net_id.get(net)
                if net_id is None:
                    unknown.add(net)
                    continue
                mask, val = stuck.get(net_id, (0, 0))
                mask |= bit
                if value & 1:
                    val |= bit
                stuck[net_id] = (mask, val)
        if unknown:
            raise ValueError(
                f"fault target nets not in netlist {self.netlist.name!r}: "
                + ", ".join(sorted(unknown))
            )
        # Stuck-at beats flip on the same net/lane, like FaultSet.apply.
        for net_id, (mask, _) in stuck.items():
            if net_id in flips:
                flips[net_id] &= ~mask
                if not flips[net_id]:
                    del flips[net_id]
        return flips, stuck

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        inputs: Mapping[str, int],
        fault_lanes: Sequence[Optional[FaultSet]] = (None,),
        registers: Optional[Mapping[str, int]] = None,
        lane_words: bool = False,
    ) -> LaneValues:
        """Evaluate every lane in one pass over the op list.

        By default ``inputs`` and ``registers`` are scalar 0/1 assignments
        broadcast to every lane (missing inputs and registers default to
        zero).  With ``lane_words=True`` they are instead ``W``-bit lane words
        (bit ``k`` = the net's value in lane ``k``), which lets different
        lanes evaluate different input/state contexts in the same pass.  Lane
        ``k`` additionally applies ``fault_lanes[k]``.  Returns
        :class:`LaneValues` with ``len(fault_lanes)`` lanes.
        """
        num_lanes = len(fault_lanes)
        if num_lanes < 1:
            raise ValueError("at least one lane is required")
        mask = (1 << num_lanes) - 1
        flips, stuck = self._compile_faults(fault_lanes)

        values = [0] * self.num_nets
        registers = registers or {}

        def source(net_id: int, value: int) -> None:
            if lane_words:
                word = int(value) & mask
            else:
                word = mask if value & 1 else 0
            entry = stuck.get(net_id)
            if entry is not None:
                s_mask, s_val = entry
                word = (word & ~s_mask) | s_val
            word ^= flips.get(net_id, 0)
            values[net_id] = word

        for net, net_id in self.input_ids:
            source(net_id, int(inputs.get(net, 0)))
        for net, net_id in self.register_ids:
            source(net_id, int(registers.get(net, 0)))

        flips_get = flips.get
        stuck_get = stuck.get
        faulted = bool(flips) or bool(stuck)
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
                entry = stuck_get(out)
                if entry is not None:
                    s_mask, s_val = entry
                    word = (word & ~s_mask) | s_val
                flip = flips_get(out)
                if flip:
                    word ^= flip
            values[out] = word
        return LaneValues(self.net_id, values, num_lanes)

    def register_feedback(self, values: LaneValues) -> Dict[str, int]:
        """Next-cycle register lane words captured from every flop's D net.

        Feeding the returned mapping back as ``registers`` (with
        ``lane_words=True``) advances the sequential state of every lane by
        one clock edge -- the primitive behind :meth:`step_cycles`.
        """
        return {q_net: values._words[d_id] for q_net, d_id in self.flop_d_ids}

    def step_cycles(
        self,
        inputs: Mapping[str, int],
        cycle_fault_lanes: Sequence[Sequence[Optional[FaultSet]]],
        registers: Optional[Mapping[str, int]] = None,
        lane_words: bool = False,
    ) -> LaneValues:
        """Evaluate ``len(cycle_fault_lanes)`` clock cycles with register feedback.

        ``cycle_fault_lanes[t]`` is the per-lane fault assignment active during
        cycle ``t`` (every cycle must carry the same lane count); inputs are
        held constant across cycles while registers advance through each
        cycle's captured D-net words.  A *transient* fault appears in exactly
        one cycle's lane list, a *persistent* stuck-at in all of them, and a
        multi-shot glitch schedule in the cycles it names.  Returns the
        :class:`LaneValues` of the final cycle, whose D nets hold the state
        each lane would enter after the last clock edge.
        """
        if not cycle_fault_lanes:
            raise ValueError("at least one cycle is required")
        num_lanes = len(cycle_fault_lanes[0])
        if num_lanes < 1:
            raise ValueError("at least one lane is required")
        if not lane_words:
            # Broadcast scalar contexts to lane words once so every cycle --
            # including the register-feedback cycles, whose register values
            # are always lane words -- can run with ``lane_words=True``.
            mask = (1 << num_lanes) - 1
            inputs = {
                net: (mask if int(value) & 1 else 0) for net, value in inputs.items()
            }
            if registers:
                registers = {
                    net: (mask if int(value) & 1 else 0)
                    for net, value in registers.items()
                }
        values: Optional[LaneValues] = None
        for fault_lanes in cycle_fault_lanes:
            if len(fault_lanes) != num_lanes:
                raise ValueError("every cycle must carry the same lane count")
            values = self.evaluate(
                inputs,
                fault_lanes=fault_lanes,
                registers=registers,
                lane_words=True,
            )
            registers = self.register_feedback(values)
        return values

    def next_register_codes(
        self,
        inputs: Mapping[str, int],
        q_bits: Sequence[str],
        fault_lanes: Sequence[Optional[FaultSet]] = (None,),
        registers: Optional[Mapping[str, int]] = None,
        lane_words: bool = False,
    ) -> List[int]:
        """Per-lane next-state words the given flop bank would capture.

        ``q_bits`` selects an ordered (LSB first) subset of flip-flop outputs;
        the returned integers assemble the corresponding D-net values (from
        the ``flop_d_ids`` precomputed at compile time).  Raises
        :class:`ValueError` when a ``q_bits`` entry is not a flop output.
        """
        d_ids = []
        for q_net in q_bits:
            d_id = self._d_id_of.get(q_net)
            if d_id is None:
                raise ValueError(
                    f"{q_net!r} is not a flip-flop output of netlist {self.netlist.name!r}"
                )
            d_ids.append(d_id)
        lanes = self.evaluate(
            inputs,
            fault_lanes=fault_lanes,
            registers=registers,
            lane_words=lane_words,
        )
        return lanes.read_words_by_id(d_ids)
