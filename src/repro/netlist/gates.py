"""Gate and cell primitives of the target technology.

The library is intentionally restricted to the handful of cells a structural
FSM implementation needs: an inverter/buffer pair, the 2-input logic gates, a
2-input multiplexer, constant ties and a D flip-flop.  Every gate carries a
discrete drive strength (X1/X2/X4) used by the timing-driven sizing loop of
the Figure 8 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List


class GateType(Enum):
    """Supported standard cells."""

    TIE0 = "TIE0"
    TIE1 = "TIE1"
    BUF = "BUF"
    INV = "INV"
    AND2 = "AND2"
    NAND2 = "NAND2"
    OR2 = "OR2"
    NOR2 = "NOR2"
    XOR2 = "XOR2"
    XNOR2 = "XNOR2"
    MUX2 = "MUX2"
    DFF = "DFF"

    @property
    def num_inputs(self) -> int:
        return _NUM_INPUTS[self]

    @property
    def is_sequential(self) -> bool:
        return self is GateType.DFF

    @property
    def is_constant(self) -> bool:
        return self in (GateType.TIE0, GateType.TIE1)


_NUM_INPUTS = {
    GateType.TIE0: 0,
    GateType.TIE1: 0,
    GateType.BUF: 1,
    GateType.INV: 1,
    GateType.AND2: 2,
    GateType.NAND2: 2,
    GateType.OR2: 2,
    GateType.NOR2: 2,
    GateType.XOR2: 2,
    GateType.XNOR2: 2,
    GateType.MUX2: 3,  # inputs are (a, b, sel): out = b when sel else a
    GateType.DFF: 1,  # input is d; clock is implicit
}

#: Boolean function of every cell, called as ``function(values, a, b, c)``:
#: ``values`` maps operand keys to 0/1 and ``a``/``b``/``c`` are the keys of
#: the gate's operands in :class:`GateType` order (unused ones are ignored).
#: :meth:`Gate.evaluate` indexes a value list by position; the scalar
#: simulator indexes its net-value dict by net name, with the cell resolved
#: once per gate instead of once per evaluation.
CELL_FUNCTIONS = {
    GateType.TIE0: lambda v, a, b, c: 0,
    GateType.TIE1: lambda v, a, b, c: 1,
    GateType.BUF: lambda v, a, b, c: v[a],
    GateType.INV: lambda v, a, b, c: 1 - v[a],
    GateType.AND2: lambda v, a, b, c: v[a] & v[b],
    GateType.NAND2: lambda v, a, b, c: 1 - (v[a] & v[b]),
    GateType.OR2: lambda v, a, b, c: v[a] | v[b],
    GateType.NOR2: lambda v, a, b, c: 1 - (v[a] | v[b]),
    GateType.XOR2: lambda v, a, b, c: v[a] ^ v[b],
    GateType.XNOR2: lambda v, a, b, c: 1 - (v[a] ^ v[b]),
    GateType.MUX2: lambda v, a, b, c: v[b] if v[c] else v[a],
    GateType.DFF: lambda v, a, b, c: v[a],
}

#: Discrete drive strengths available for sizing.
DRIVE_STRENGTHS = (1, 2, 4)


@dataclass
class Gate:
    """One instantiated cell.

    ``inputs`` are net names in the order defined by :class:`GateType`;
    ``output`` is the driven net.  ``drive`` selects the cell variant
    (X1/X2/X4).
    """

    name: str
    gate_type: GateType
    inputs: List[str] = field(default_factory=list)
    output: str = ""
    drive: int = 1

    def __post_init__(self) -> None:
        expected = self.gate_type.num_inputs
        if len(self.inputs) != expected:
            raise ValueError(
                f"gate {self.name!r} of type {self.gate_type.value} expects "
                f"{expected} inputs, got {len(self.inputs)}"
            )
        if not self.output:
            raise ValueError(f"gate {self.name!r} must drive a net")
        if self.drive not in DRIVE_STRENGTHS:
            raise ValueError(f"gate {self.name!r}: unsupported drive strength {self.drive}")

    def evaluate(self, values: List[int]) -> int:
        """Combinational function of the cell (DFF/TIE handled by the caller)."""
        return CELL_FUNCTIONS[self.gate_type](values, 0, 1, 2)
