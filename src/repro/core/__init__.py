"""The SCFI contribution: diffusion-based fault-hardened next-state logic.

Import from the submodules: :mod:`~repro.core.scfi` (the pass),
:mod:`~repro.core.hardened`, :mod:`~repro.core.layout`, :mod:`~repro.core.mds`,
:mod:`~repro.core.encoding`, :mod:`~repro.core.modifier`,
:mod:`~repro.core.structure` and the :mod:`~repro.core.redundancy` baseline.
"""
