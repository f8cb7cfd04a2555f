#!/usr/bin/env python3
"""Multi-cycle temporal fault campaigns: transient vs. persistent vs. glitch.

Real fault-injection equipment spans clock cycles — a laser spot or voltage
glitch holds a net for many edges, and multi-shot rigs fire at several
chosen cycles.  This example runs the three temporal scenarios against the
SCFI-protected ``ibex_lsu_fsm`` and shows how the classification shifts:

* a **transient** fault (active one cycle of an N-cycle trace) classifies
  like the classic 1-cycle campaign — error states are sticky, fault-free
  cycles follow the analytic trajectory;
* a **persistent** stuck-at held across the whole trace is strictly harder
  to mask: every extra cycle gives the detector another chance to catch a
  fault the first cycle happened to absorb;
* a **multi-shot glitch** schedule fires `(cycle, net, effect)` shots at
  different depths of the trace.

Counters are bit-identical across every engine and any worker count;
the same campaigns are spec-addressable (``scenario="temporal"`` /
``"glitch"`` with ``cycles``, ``fault_duration``, ``glitch_schedule``) and
replayed by CI from ``examples/temporal_experiment.json``.

Run with::

    python examples/temporal_campaign.py
"""

from repro.api import CampaignSpec, ExperimentSpec, FsmSpec, Session
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.model import FaultEffect
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import MultiShotGlitch, TemporalSingleFault
from repro.fsmlib.opentitan import ibex_lsu_fsm

STUCK = (FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)


def transient_vs_persistent(structure):
    print("=== Transient vs. persistent stuck-at over the diffusion layer ===")
    with FaultCampaign(structure, engine="parallel-numpy") as campaign:
        for cycles in (1, 2, 4, 8):
            for duration in ("transient", "persistent"):
                result = campaign.run(
                    TemporalSingleFault(
                        target_nets="diffusion",
                        effects=STUCK,
                        cycles=cycles,
                        duration=duration,
                    )
                )
                masked, detected, redirected, hijacked = result.counters()
                print(
                    f"  {cycles:>2} cycle(s) {duration:<10} -> "
                    f"masked={masked:<4} detected={detected:<4} "
                    f"redirected={redirected} hijacked={hijacked}"
                )
    print("  (persistent detection grows with trace length; transient matches 1-cycle)")
    print()


def multi_shot_glitch(structure):
    print("=== Multi-shot glitch schedule ===")
    nets = structure.diffusion_nets[:2]
    schedule = [(0, nets[0], "flip"), (2, nets[1], "stuck1")]
    with FaultCampaign(structure) as campaign:
        result = campaign.run(MultiShotGlitch(glitches=schedule, cycles=4))
    print(f"  shots: {schedule}")
    print(f"  {result.format()}")
    print()


def spec_driven_replay():
    print("=== The same campaign as a declarative spec ===")
    spec = ExperimentSpec(
        fsm=FsmSpec(name="ibex_lsu"),
        campaign=CampaignSpec(
            scenario="temporal",
            target="diffusion",
            effects=("stuck0", "stuck1"),
            cycles=4,
            fault_duration="persistent",
            lane_width=256,
        ),
    )
    print(f"  content_hash: {spec.content_hash()}")
    result = Session().run(spec)
    print(f"  {result.campaigns['temporal'].format()}")
    print()


def main():
    structure = protect_fsm(
        ibex_lsu_fsm(), ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure
    transient_vs_persistent(structure)
    multi_shot_glitch(structure)
    spec_driven_replay()


if __name__ == "__main__":
    main()
