"""Finite-state machine substrate: model, CFG analysis, simulation, encodings.

Import from the submodules: :mod:`~repro.fsm.model`, :mod:`~repro.fsm.cfg`,
:mod:`~repro.fsm.encoding`, :mod:`~repro.fsm.simulate` and
:mod:`~repro.fsm.random_fsm`.
"""
