"""Synthesis flow: FSM lowering, redundancy generation, sizing, reporting.

Import from the submodules: :mod:`~repro.synth.lower`, :mod:`~repro.synth.sizing`,
:mod:`~repro.synth.flow`, :mod:`~repro.synth.opt` and the hardening codec
:mod:`~repro.synth.serialize`.
"""
