#!/usr/bin/env python3
"""Quickstart: protect a small FSM with SCFI and watch it catch a fault.

The example walks through the complete user-facing flow of the library:

1. describe a finite-state machine with :class:`repro.fsm.model.FsmBuilder`;
2. protect it with :func:`repro.core.scfi.protect_fsm` at a chosen protection level N;
3. inspect what the pass produced (encodings, diffusion layout, area);
4. simulate the hardened FSM next to the original one;
5. inject a fault into the state register and into the diffusion layer and
   observe the detection (the terminal error state of the paper's Figure 4).

Run with::

    python examples/quickstart.py
"""

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fsm.model import FsmBuilder
from repro.fsm.simulate import FsmSimulator


def build_door_controller():
    """A small access-door controller: idle, authenticate, open, alarm."""
    builder = FsmBuilder("door_ctrl")
    builder.state("IDLE", reset=True, locked=1)
    builder.state("CHECK", locked=1)
    builder.state("OPEN", unlock=1)
    builder.state("ALARM", alarm=1)
    builder.transition("IDLE", "CHECK", badge=1)
    builder.transition("CHECK", "OPEN", pin_ok=1)
    builder.transition("CHECK", "ALARM", pin_fail=1)
    builder.transition("OPEN", "IDLE", door_closed=1)
    builder.transition("ALARM", "IDLE", reset_req=1)
    return builder.build()


def main():
    fsm = build_door_controller()
    print(f"Original FSM: {fsm}")

    # --- Step 1: run the SCFI pass -------------------------------------
    result = protect_fsm(fsm, ScfiOptions(protection_level=3))
    hardened = result.hardened
    print(f"\nProtected with N={hardened.protection_level}:")
    print(f"  encoded state width : {hardened.state_width} bits")
    print(f"  control codewords   : {len(hardened.control_encoding)} edges, "
          f"{hardened.control_width} bits each")
    print(f"  diffusion blocks    : {hardened.layout.num_blocks} x 32-bit MDS")
    print(f"  protected FSM area  : {result.area.total_ge:.1f} GE")
    print("\n  state encoding (Hamming distance >= 3 between any two):")
    for state, code in hardened.state_encoding.items():
        print(f"    {state:<8} -> {code:0{hardened.state_width}b}")

    # --- Step 2: fault-free lockstep simulation ------------------------
    stimulus = [
        {"badge": 1},
        {"pin_ok": 1},
        {"door_closed": 1},
        {"badge": 1},
        {"pin_fail": 1},
        {"reset_req": 1},
    ]
    golden = FsmSimulator(fsm).run(stimulus)
    protected_states = [step.next_state for step in hardened.run(stimulus)]
    print("\nFault-free execution (original vs protected):")
    for original, protected in zip(golden.steps, protected_states):
        marker = "ok" if original.next_state == protected else "MISMATCH"
        print(f"  {original.state:<6} -> {original.next_state:<6} | protected -> {protected:<6} [{marker}]")

    # --- Step 3: attack the state register (FT1) -----------------------
    print("\nInjecting a single bit flip into the encoded state register (FT1):")
    outcome = hardened.next_state("CHECK", {"pin_ok": 1}, state_flip_mask=0b1)
    print(f"  CHECK --pin_ok--> expected OPEN, got {outcome.next_state} "
          f"(error detected: {outcome.error_detected})")

    # --- Step 4: attack the diffusion layer (FT3) -----------------------
    print("Injecting a fault into the diffusion-layer output (FT3):")
    flips = [0] * hardened.layout.num_blocks
    flips[0] = 1 << hardened.layout.blocks[0].error_out_positions[0]
    outcome = hardened.next_state("CHECK", {"pin_ok": 1}, block_output_flips=flips)
    print(f"  CHECK --pin_ok--> expected OPEN, got {outcome.next_state} "
          f"(error detected: {outcome.error_detected})")

    # --- Step 5: the SystemVerilog view ---------------------------------
    print("\nFirst lines of the generated SystemVerilog (Figure 4 style):")
    for line in (result.verilog or "").splitlines()[:18]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
