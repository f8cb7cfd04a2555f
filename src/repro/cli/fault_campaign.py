"""``scfi fi``: run fault-injection campaigns against a protected benchmark FSM.

A thin argparse -> :class:`~repro.api.spec.ExperimentSpec` adapter over the
declarative API: the flags are lowered to a spec (mode -> scenario name,
engine/lane-width/workers -> campaign execution parameters) and run through
:class:`~repro.api.session.Session`, exactly like ``scfi run`` and the
library entry points.  ``--compare`` additionally replays on the cross-check
engine (scalar oracle, or the parallel engine from ``--engine scalar``) and
**exits non-zero** when the classification counters diverge.  Which flags
a mode takes is the scenario registry's rule, checked when the flags become
a :class:`~repro.api.spec.CampaignSpec` (e.g. ``--cycles`` only for
temporal/laser, ``--spot-radius`` only for laser).  Flags that make an
invalid spec exit 2 with a usage error; specs that fail to resolve or lower
(e.g. more ``--faults`` than target nets) exit 2 with a one-line error.

Modes:

* ``exhaustive`` -- single faults on every net of ``--target`` for every
  reachable transition (Section 6.4);
* ``random``     -- sampled simultaneous multi-fault injections;
* ``effects``    -- the exhaustive sweep once per fault effect
  (transient flip, stuck-at-0, stuck-at-1);
* ``regions``    -- per-target-region FT1/FT2/FT3 sweeps at netlist level;
* ``temporal``   -- multi-cycle traces (``--cycles``) with transient or
  persistent faults (``--fault-duration``) and register feedback;
* ``bitflip``    -- the FT1/FT2 bit-flip sampling of Section 6.3, lowered to
  netlist faults on the shared engines (its counters match the pre-netlist
  reference :func:`~repro.fi.behavioral.behavioral_fault_campaign` trial
  for trial);
* ``glitch``     -- multi-shot ``(cycle, net, effect)`` schedules, spec-file
  driven via ``scfi run``;
* ``laser``      -- spatially-adjacent multi-net fault groups sampled from a
  deterministic placement (``--spot-radius``/``--spot-trials``), optionally
  held across a multi-cycle trace (``--cycles``/``--fault-duration``).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import (
    CampaignSpec,
    ExperimentSpec,
    FsmSpec,
    ProtectSpec,
    Session,
    available_engines,
    available_scenarios,
)
from repro.api.spec import EFFECT_NAMES
from repro.cli.main import report_spec_error
from repro.fi.executor import DEFAULT_ENGINE
from repro.fi.scenarios import FAULT_DURATIONS
from repro.fsmlib import available_fsms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfi fi", description="Fault-injection campaigns on SCFI-protected FSMs"
    )
    parser.add_argument("--fsm", choices=available_fsms(), default="formal_fsm")
    parser.add_argument("-N", "--protection-level", type=int, default=2)
    parser.add_argument(
        "--mode",
        # The scenario registry is the single source of truth for what can run.
        choices=available_scenarios(),
        default="exhaustive",
        help="exhaustive single faults, random gate-level multi-fault sampling, "
        "per-effect sweeps, per-region FT1/FT2/FT3 sweeps, multi-cycle temporal "
        "faults, FT1/FT2 bit-flip sampling (bitflip) or laser spots",
    )
    parser.add_argument(
        "--target",
        choices=["diffusion", "comb"],
        default=None,
        help="net region for exhaustive/random/effects: the MDS diffusion layer "
        "or the whole combinational cloud (default: diffusion for exhaustive/"
        "effects, comb for random, matching the historical campaigns)",
    )
    parser.add_argument(
        "--effects",
        nargs="+",
        choices=sorted(EFFECT_NAMES),
        default=None,
        help="fault effects to inject (default: flip only; effects mode "
        "defaults to all three)",
    )
    parser.add_argument(
        "--engine",
        # An engine the registry does not know must die here as an argparse
        # error, not as a deep ValueError.
        choices=available_engines(),
        default=DEFAULT_ENGINE,
        help="word-sliced numpy lane engine (parallel-numpy, the default), "
        "bignum bit-parallel lanes (parallel), or the scalar reference "
        "simulator",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for campaign execution: planned batches are "
        "dispatched to a worker fleet and merged deterministically (default "
        "1 = in-process)",
    )
    parser.add_argument(
        "--lane-width",
        type=int,
        default=None,
        help="fault lanes packed per bit-parallel pass; lanes are filled "
        "across transition contexts, so sweeps over few nets but many "
        "transitions still use the full width (default: the engine's own "
        "budget -- 256 for parallel and scalar, 4096 for parallel-numpy)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the scalar reference oracle (or, from --engine scalar, "
        "the bignum parallel engine), assert identical classification counters "
        "and exit non-zero on divergence",
    )
    parser.add_argument("--faults", type=int, default=2, help="simultaneous faults (random/bitflip)")
    parser.add_argument("--trials", type=int, default=1000, help="trials (random/bitflip)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cycles",
        type=int,
        default=1,
        help="clock cycles per injection trace (temporal/laser modes): the netlist "
        "is stepped with register feedback and classified on the final state "
        "(default 1 = the classic single-transition campaigns)",
    )
    parser.add_argument(
        "--fault-duration",
        choices=FAULT_DURATIONS,
        default="transient",
        help="temporal/laser modes: inject during one cycle only (transient) "
        "or hold the fault for the whole trace (persistent stuck-at, the "
        "laser/glitch model)",
    )
    parser.add_argument(
        "--spot-radius",
        type=float,
        default=None,
        help="laser mode: spot radius on the derived placement (unit pitch = "
        "one diffusion-block column / one logic level; default 1.5)",
    )
    parser.add_argument(
        "--spot-trials",
        type=int,
        default=None,
        help="laser mode: number of sampled (transition, spot-center) trials "
        "(default 100)",
    )
    return parser


def spec_from_args(args) -> ExperimentSpec:
    """Lower parsed flags to the declarative experiment spec."""
    return ExperimentSpec(
        fsm=FsmSpec(name=args.fsm),
        protect=ProtectSpec(protection_level=args.protection_level),
        campaign=CampaignSpec(
            scenario=args.mode,
            target=args.target,
            effects=tuple(args.effects) if args.effects else None,
            faults=args.faults,
            trials=args.trials,
            seed=args.seed,
            engine=args.engine,
            lane_width=args.lane_width,
            workers=args.workers,
            compare=args.compare,
            cycles=args.cycles,
            fault_duration=args.fault_duration,
            spot_radius=args.spot_radius,
            spot_trials=args.spot_trials,
        ),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValueError as error:
        parser.error(str(error))
    try:
        result = Session().run(spec)
    except (ValueError, KeyError) as error:
        return report_spec_error("fi", error)

    for name, campaign in result.campaigns.items():
        prefix = f"{name:<15} " if len(result.campaigns) > 1 else ""
        print(f"{prefix}{campaign.format()}")
    if result.compare is not None:
        if not result.compare_agrees:
            for name, verdict in result.compare["scenarios"].items():
                if not verdict["agree"]:
                    print(
                        f"ENGINE MISMATCH in {name}: "
                        f"{result.compare['engine']}={tuple(verdict['engine_counters'])} "
                        f"{result.compare['oracle_engine']}={tuple(verdict['oracle_counters'])}",
                        file=sys.stderr,
                    )
            return 1
        print(f"engines agree ({result.compare['engine']} vs {result.compare['oracle_engine']})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
