"""Regenerate ``inputs/pins.json``: expected counters from the scalar oracle.

Pins cover cli-cold and campaign-suite for the default and the held-out
seed.  The scalar engine replays every injection one at a time, so this
takes a few minutes (the 95886-injection comb sweep dominates; it and the
temporal sweep do not depend on the seed and are replayed once).

    PYTHONPATH=src python3 scfibench/gen_pins.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from suite import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, INPUTS, SUITE, build_structures, cli_cold_spec,
    counters, suite_specs,
)


def main() -> int:
    from repro.api import ExperimentSpec, Session

    session = Session()
    structures = build_structures()
    pins = {"generated_with": "scalar", "cli-cold": {}, "campaign-suite": {}}
    fixed = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        spec = ExperimentSpec.from_dict(cli_cold_spec(seed))
        pins["cli-cold"][str(seed)] = counters(session.run(spec, engine="scalar").campaigns)
        suite = {}
        seeded = {shape: flag for shape, _, _, flag in SUITE}
        for shape, fsm_key, spec in suite_specs(seed, engine="scalar"):
            if not seeded[shape] and shape in fixed:
                suite[shape] = fixed[shape]
                continue
            print(f"scalar {shape} seed={seed} ...", file=sys.stderr, flush=True)
            suite[shape] = counters(session.run_campaign(structures[fsm_key], spec))
            if not seeded[shape]:
                fixed[shape] = suite[shape]
        pins["campaign-suite"][str(seed)] = suite
    with open(os.path.join(INPUTS, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
