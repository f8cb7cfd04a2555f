#!/usr/bin/env python3
"""Fault-injection campaigns: unprotected vs redundancy vs SCFI.

Reproduces the security side of the evaluation:

* the Section 6.4 formal experiment (exhaustive single bit flips into the MDS
  diffusion gates of the 14-transition FSM), with and without the
  verify-and-repair extension;
* behavioural multi-fault campaigns split by fault target (FT1/FT2/FT3);
* a head-to-head netlist campaign showing how the unprotected design and the
  redundancy baseline fare against the same single-fault model.

Run with::

    python examples/fault_injection_campaign.py
"""

from repro.core.hardened import HardenedFsm
from repro.core.redundancy import RedundancyOptions, protect_fsm_redundant
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.core.structure import build_scfi_netlist
from repro.eval.formal import PAPER_FORMAL_RESULT, run_formal_analysis
from repro.eval.security import fault_target_sweep
from repro.fi.activate import activating_inputs
from repro.fi.executor import FaultCampaign
from repro.fi.injector import RedundantFaultInjector, ScfiFaultInjector, UnprotectedFaultInjector
from repro.fi.model import Classification, Fault
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fsm.cfg import control_flow_edges
from repro.fsmlib.formal import formal_analysis_fsm
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.synth.lower import lower_fsm


def formal_experiment():
    print("=== Section 6.4: formal analysis of the diffusion layer ===")
    repaired = run_formal_analysis()
    print(f"  default (verify-and-repair ON): {repaired.format()}")

    hardened = HardenedFsm.from_fsm(formal_analysis_fsm(), protection_level=2, error_bits=3)
    structure = build_scfi_netlist(hardened, share_xors=True, repair_diffusion=False)
    unrepaired = FaultCampaign(structure).run(ExhaustiveSingleFault())
    print(f"  shared network (repair OFF)   : {unrepaired.format()}")
    print(
        f"  paper reference               : {PAPER_FORMAL_RESULT['hijacks']}/"
        f"{PAPER_FORMAL_RESULT['injections']} ({PAPER_FORMAL_RESULT['hijack_rate_percent']} %)\n"
    )


def behavioural_targets():
    print("=== Behavioural campaigns per fault target (ibex_lsu, N=2) ===")
    hardened = protect_fsm(
        ibex_lsu_fsm(), ScfiOptions(protection_level=2, generate_netlist=False, generate_verilog=False)
    ).hardened
    for target, campaign in fault_target_sweep(hardened, num_faults=1, trials=2000).items():
        print(f"  {target:<15} {campaign.format()}")
    print()


def register_fault_head_to_head():
    print("=== Single state-register fault: unprotected vs redundancy vs SCFI ===")
    fsm = ibex_lsu_fsm()
    edge = next(e for e in control_flow_edges(fsm) if not e.is_stay)
    inputs = activating_inputs(fsm, edge)

    unprotected = lower_fsm(fsm)
    unprotected_outcome = UnprotectedFaultInjector(unprotected).classify(
        edge, inputs, Fault(unprotected.state_d[0])
    )

    redundant = protect_fsm_redundant(fsm, RedundancyOptions(protection_level=2))
    redundant_injector = RedundantFaultInjector(redundant.implementation)
    redundant_fault = Fault(
        redundant_injector._d_nets_for(redundant.implementation.redundant_state_q[0])[0]
    )
    redundant_outcome = redundant_injector.classify(edge, inputs, redundant_fault)

    scfi = protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False))
    scfi_outcome = ScfiFaultInjector(scfi.structure).classify(
        edge, inputs, Fault(scfi.structure.state_q[0])
    )

    for name, outcome in [
        ("unprotected", unprotected_outcome),
        ("redundancy N=2", redundant_outcome),
        ("SCFI N=2", scfi_outcome),
    ]:
        print(
            f"  {name:<15} fault on {outcome.fault.net:<20} -> "
            f"{outcome.classification.value:<10} (observed state: {outcome.observed_state})"
        )
    assert unprotected_outcome.classification is not Classification.DETECTED
    print()


def main():
    formal_experiment()
    behavioural_targets()
    register_fault_head_to_head()


if __name__ == "__main__":
    main()
