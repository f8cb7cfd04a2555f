"""``scfi report``: regenerate the paper's Table 1 and Figure 8 from the CLI."""

from __future__ import annotations

import argparse
import sys

from repro.eval.figure8 import run_figure8
from repro.eval.formal import run_formal_analysis
from repro.eval.table1 import run_table1
from repro.fsmlib.opentitan import opentitan_module_models


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfi report", description="Regenerate the SCFI evaluation artefacts"
    )
    parser.add_argument(
        "artifact",
        choices=["table1", "figure8", "formal"],
        help="which artefact of the paper to regenerate",
    )
    parser.add_argument("-N", "--protection-level", type=int, default=3, help="N for figure8")
    parser.add_argument(
        "--modules",
        nargs="*",
        default=None,
        help="restrict table1 to these module names (default: all seven)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.protection_level < 1:
        parser.error("protection_level must be >= 1")
    if args.artifact == "table1":
        models = opentitan_module_models()
        if args.modules:
            models = [m for m in models if m.fsm.name in set(args.modules)]
        result = run_table1(models)
        print(result.format())
    elif args.artifact == "figure8":
        adc = [m for m in opentitan_module_models() if m.fsm.name == "adc_ctrl_fsm"][0]
        result = run_figure8(adc, protection_level=args.protection_level)
        print(result.format())
    else:
        result = run_formal_analysis()
        print(result.format())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
