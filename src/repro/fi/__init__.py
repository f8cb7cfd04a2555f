"""SYNFI-like fault injection and campaign analysis.

Import from the submodules: :mod:`~repro.fi.model` (faults and outcomes),
:mod:`~repro.fi.scenarios`, :mod:`~repro.fi.executor` (``FaultCampaign``),
:mod:`~repro.fi.injector` (the scalar oracle) and :mod:`~repro.fi.behavioral`
(the behavioural reference campaign).
"""
