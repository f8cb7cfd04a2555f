"""Gate-level netlist substrate: cells, construction, simulation, timing, area.

Import from the submodules: :mod:`~repro.netlist.netlist`,
:mod:`~repro.netlist.builder`, :mod:`~repro.netlist.simulate`, the compiled
engines :mod:`~repro.netlist.parallel` and :mod:`~repro.netlist.parallel_np`,
:mod:`~repro.netlist.timing` and :mod:`~repro.netlist.area`.
"""
