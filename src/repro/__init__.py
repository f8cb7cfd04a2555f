"""SCFI reproduction: state machine control-flow hardening against fault attacks.

The package is organised as a small EDA stack:

* :mod:`repro.linalg`   -- GF(2) linear algebra (bit matrices, solving).
* :mod:`repro.fields`   -- polynomial rings F2[X]/(p) used by the diffusion layer.
* :mod:`repro.fsm`      -- finite-state machine model, CFG analysis, encodings.
* :mod:`repro.rtl`      -- RTLIL-like intermediate representation and Verilog I/O.
* :mod:`repro.netlist`  -- gate-level netlist, cell library, simulation, timing.
* :mod:`repro.synth`    -- synthesis flow (lowering, optimisation, sizing).
* :mod:`repro.core`     -- the SCFI contribution: MDS diffusion, modifier solving,
  the hardened next-state function and the protection passes.
* :mod:`repro.fi`       -- SYNFI-like fault injection and campaign analysis.
* :mod:`repro.fsmlib`   -- OpenTitan-like benchmark FSMs.
* :mod:`repro.eval`     -- harnesses regenerating the paper's tables and figures.

Import names from the module that defines them (``repro.core.scfi.protect_fsm``,
``repro.fsm.model.Fsm``): this package and ``core``, ``fi``, ``netlist``,
``fsm`` and ``synth`` re-export nothing, so a cold ``scfi run`` loads only the
modules it calls.
"""

__version__ = "0.1.0"
