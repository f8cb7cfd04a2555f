"""``scfi harden``: protect a benchmark FSM and print the resulting artefacts.

This is a thin argparse -> :class:`~repro.api.spec.ExperimentSpec` adapter:
the flags are lowered to a declarative spec and executed through
:class:`~repro.api.session.Session`, the same path the library API and
``scfi run`` take.  The FSM choices come from the shared registry in
:mod:`repro.fsmlib.registry` (also consumed by ``scfi fi``).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ExperimentSpec, FsmSpec, ProtectSpec, ReportSpec, Session
from repro.cli.main import report_spec_error
from repro.fsmlib import available_fsms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scfi harden", description="Protect an FSM with SCFI")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--fsm", choices=available_fsms(), help="benchmark FSM to protect")
    source.add_argument("--verilog", help="SystemVerilog file containing an FSM to protect")
    parser.add_argument("-N", "--protection-level", type=int, default=2, help="protection level N")
    parser.add_argument("--error-bits", type=int, default=2, help="error bits per diffusion block")
    parser.add_argument("--emit-verilog", action="store_true", help="print the protected SystemVerilog")
    parser.add_argument("--report", action="store_true", help="print area and timing of the protected netlist")
    return parser


def spec_from_args(args) -> ExperimentSpec:
    """Lower parsed flags to the declarative experiment spec."""
    if args.fsm:
        fsm = FsmSpec(name=args.fsm)
    else:
        with open(args.verilog) as handle:
            fsm = FsmSpec(verilog=handle.read())
    return ExperimentSpec(
        fsm=fsm,
        protect=ProtectSpec(
            protection_level=args.protection_level, error_bits=args.error_bits
        ),
        report=ReportSpec(
            include_area=args.report,
            include_timing=args.report,
            emit_verilog=args.emit_verilog,
        ),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except OSError as error:
        parser.error(f"cannot read --verilog {args.verilog!r}: {error.strerror or error}")
    except ValueError as error:
        parser.error(str(error))
    try:
        result = Session().run(spec)
    except (ValueError, KeyError) as error:
        return report_spec_error("harden", error)
    hardened = result.scfi.hardened
    fsm = result.scfi.fsm
    print(f"Protected {fsm.name!r} with SCFI at N={args.protection_level}")
    print(f"  states           : {fsm.num_states} (+1 error state)")
    print(f"  encoded width    : {hardened.state_width} bits")
    print(f"  control codewords: {len(hardened.control_encoding)} x {hardened.control_width} bits")
    print(f"  diffusion blocks : {hardened.layout.num_blocks}")
    if args.report:
        print()
        print(result.scfi.area.format())
        print(f"  min clock period : {result.timing['min_clock_period_ps']:.0f} ps "
              f"({result.timing['max_frequency_mhz']:.0f} MHz)")
    if args.emit_verilog and result.scfi.verilog:
        print()
        print(result.scfi.verilog)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
