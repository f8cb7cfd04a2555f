"""Gate-level netlist substrate: cells, construction, simulation, timing, area."""

from repro.netlist.gates import Gate, GateType
from repro.netlist.celllib import CellLibrary, CellSpec, nangate45_like_library
from repro.netlist.netlist import Netlist
from repro.netlist.builder import NetlistBuilder
from repro.netlist.simulate import InstrumentedNetlist, NetlistSimulator
from repro.netlist.parallel import CompiledNetlist, LaneValues
from repro.netlist.parallel_np import NumpyCompiledNetlist
from repro.netlist.timing import TimingAnalyzer, TimingReport
from repro.netlist.area import AreaReport, area_report

__all__ = [
    "Gate",
    "GateType",
    "CellLibrary",
    "CellSpec",
    "nangate45_like_library",
    "Netlist",
    "NetlistBuilder",
    "NetlistSimulator",
    "InstrumentedNetlist",
    "CompiledNetlist",
    "LaneValues",
    "NumpyCompiledNetlist",
    "TimingAnalyzer",
    "TimingReport",
    "AreaReport",
    "area_report",
]
