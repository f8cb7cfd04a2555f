"""Standard-cell library model: gate-equivalent area and delay per drive.

Absolute values are modelled on a 45 nm low-power library (areas normalised to
gate equivalents, i.e. NAND2_X1 = 1.0 GE, delays in picoseconds).  The paper
reports areas in GE and clock periods in the 3.2-6.0 ns range, so the library
constants are chosen to land designs of comparable logic depth in that regime;
only relative comparisons (SCFI vs redundancy vs base) are meaningful, as
documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple

from repro.netlist.gates import DRIVE_STRENGTHS, GateType


class CellSpec(NamedTuple):
    """Area and timing characteristics of one cell type.

    ``area_ge`` / ``intrinsic_ps`` are for the X1 variant; stronger drives
    scale area up and delay down by the library-wide factors below.
    ``load_ps_per_fanout`` models the wire/input-capacitance delay added per
    driven input, reduced by stronger drives.
    """

    area_ge: float
    intrinsic_ps: float
    load_ps_per_fanout: float = 14.0


#: Area multiplier per drive strength.
AREA_SCALE: Mapping[int, float] = {1: 1.0, 2: 1.45, 4: 2.1}

#: Intrinsic-delay multiplier per drive strength.
DELAY_SCALE: Mapping[int, float] = {1: 1.0, 2: 0.78, 4: 0.62}

#: Load-delay multiplier per drive strength (stronger cells drive loads faster).
LOAD_SCALE: Mapping[int, float] = {1: 1.0, 2: 0.6, 4: 0.38}


class CellLibrary:
    """A mapping from :class:`GateType` to :class:`CellSpec` plus flop timing."""

    def __init__(
        self,
        name: str,
        cells: Mapping[GateType, CellSpec],
        dff_setup_ps: float = 60.0,
        dff_clk_to_q_ps: float = 120.0,
    ):
        missing = [gt for gt in GateType if gt not in cells]
        if missing:
            raise ValueError(f"cell library {name!r} is missing cells: {missing}")
        self.name = name
        self._cells: Dict[GateType, CellSpec] = dict(cells)
        self.dff_setup_ps = dff_setup_ps
        self.dff_clk_to_q_ps = dff_clk_to_q_ps

    def spec(self, gate_type: GateType) -> CellSpec:
        return self._cells[gate_type]

    def area(self, gate_type: GateType, drive: int = 1) -> float:
        """Area of a cell in gate equivalents."""
        if drive not in DRIVE_STRENGTHS:
            raise ValueError(f"unsupported drive strength {drive}")
        return self._cells[gate_type].area_ge * AREA_SCALE[drive]

    def delay(self, gate_type: GateType, drive: int = 1, fanout: int = 1) -> float:
        """Propagation delay of a cell in picoseconds for a given fanout."""
        if drive not in DRIVE_STRENGTHS:
            raise ValueError(f"unsupported drive strength {drive}")
        spec = self._cells[gate_type]
        load = spec.load_ps_per_fanout * max(1, fanout) * LOAD_SCALE[drive]
        return spec.intrinsic_ps * DELAY_SCALE[drive] + load


def nangate45_like_library() -> CellLibrary:
    """The default technology library used by every experiment."""
    cells = {
        GateType.TIE0: CellSpec(area_ge=0.33, intrinsic_ps=0.0, load_ps_per_fanout=0.0),
        GateType.TIE1: CellSpec(area_ge=0.33, intrinsic_ps=0.0, load_ps_per_fanout=0.0),
        GateType.BUF: CellSpec(area_ge=0.67, intrinsic_ps=55.0),
        GateType.INV: CellSpec(area_ge=0.67, intrinsic_ps=40.0),
        GateType.AND2: CellSpec(area_ge=1.33, intrinsic_ps=85.0),
        GateType.NAND2: CellSpec(area_ge=1.0, intrinsic_ps=60.0),
        GateType.OR2: CellSpec(area_ge=1.33, intrinsic_ps=90.0),
        GateType.NOR2: CellSpec(area_ge=1.0, intrinsic_ps=65.0),
        GateType.XOR2: CellSpec(area_ge=2.0, intrinsic_ps=110.0),
        GateType.XNOR2: CellSpec(area_ge=2.0, intrinsic_ps=115.0),
        GateType.MUX2: CellSpec(area_ge=2.33, intrinsic_ps=100.0),
        GateType.DFF: CellSpec(area_ge=5.33, intrinsic_ps=0.0, load_ps_per_fanout=10.0),
    }
    return CellLibrary("nangate45-like", cells)


#: Singleton default library (constructing it is cheap but this keeps reports consistent).
DEFAULT_LIBRARY = nangate45_like_library()
