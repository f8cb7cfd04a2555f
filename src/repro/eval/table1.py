"""Table 1: area overhead of redundancy vs SCFI for the OpenTitan FSMs.

For every benchmark FSM the harness synthesises the unprotected reference, the
``N``-fold redundant implementation and the SCFI-protected implementation for
``N`` in {2, 3, 4}, and reports the area overhead as a percentage of the
whole-module reference area, exactly like the paper's Table 1.  The paper's
own numbers are kept in :data:`PAPER_TABLE1` so EXPERIMENTS.md and the tests
can compare shapes (who wins, how the overhead scales with ``N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.session import Session
from repro.api.spec import CampaignSpec, FsmSpec, ProtectSpec, harden_stage_key
from repro.core.redundancy import RedundancyOptions, protect_fsm_redundant
from repro.fi.executor import CampaignResult
from repro.netlist.area import area_report
from repro.netlist.celllib import CellLibrary, DEFAULT_LIBRARY
from repro.synth.flow import ModuleModel
from repro.synth.lower import lower_fsm

#: The paper's Table 1 (percent overhead relative to the unprotected module).
#: Keys: fsm name -> {"unprotected_ge": .., "redundancy": {N: %}, "scfi": {N: %}}
PAPER_TABLE1: Dict[str, Dict] = {
    "adc_ctrl_fsm": {
        "unprotected_ge": 1019,
        "redundancy": {2: 38.0, 3: 76.0, 4: 121.0},
        "scfi": {2: 14.0, 3: 27.0, 4: 42.0},
    },
    "aes_control": {
        "unprotected_ge": 632,
        "redundancy": {2: 13.0, 3: 44.0, 4: 77.0},
        "scfi": {2: 6.0, 3: 22.0, 4: 32.0},
    },
    "i2c_fsm": {
        "unprotected_ge": 2729,
        "redundancy": {2: 38.0, 3: 70.0, 4: 109.0},
        "scfi": {2: 20.0, 3: 21.0, 4: 27.0},
    },
    "ibex_controller": {
        "unprotected_ge": 537,
        "redundancy": {2: 29.0, 3: 75.0, 4: 122.0},
        "scfi": {2: 13.0, 3: 34.0, 4: 43.0},
    },
    "ibex_lsu": {
        "unprotected_ge": 933,
        "redundancy": {2: 10.0, 3: 21.0, 4: 32.0},
        "scfi": {2: 2.0, 3: 13.0, 4: 16.0},
    },
    "otbn_controller": {
        "unprotected_ge": 2857,
        "redundancy": {2: 1.0, 3: 4.0, 4: 5.0},
        "scfi": {2: 5.0, 3: 5.0, 4: 6.0},
    },
    "pwrmgr_fsm": {
        "unprotected_ge": 301,
        "redundancy": {2: 89.0, 3: 184.0, 4: 334.0},
        "scfi": {2: 33.0, 3: 71.0, 4: 84.0},
    },
}

#: The geometric means reported by the paper.
PAPER_GEOMEANS = {
    "redundancy": {2: 17.5, 3: 42.9, 4: 67.6},
    "scfi": {2: 9.6, 3: 21.8, 4: 27.1},
}


@dataclass
class Table1Row:
    """One module of Table 1: measured overheads for every protection level."""

    name: str
    module_area_ge: float
    unprotected_fsm_ge: float
    redundancy_overhead: Dict[int, float] = field(default_factory=dict)
    scfi_overhead: Dict[int, float] = field(default_factory=dict)
    redundancy_fsm_ge: Dict[int, float] = field(default_factory=dict)
    scfi_fsm_ge: Dict[int, float] = field(default_factory=dict)
    #: Optional per-level security validation (exhaustive diffusion campaign).
    scfi_security: Dict[int, CampaignResult] = field(default_factory=dict)


@dataclass
class Table1Result:
    """All rows plus the geometric means over the modules."""

    rows: List[Table1Row]
    protection_levels: Sequence[int]

    def geometric_mean(self, scheme: str, level: int) -> float:
        """Geometric mean of the per-module overheads (percent) for a scheme."""
        values = []
        for row in self.rows:
            overheads = row.redundancy_overhead if scheme == "redundancy" else row.scfi_overhead
            value = overheads.get(level)
            if value is not None and value > 0:
                values.append(value)
        if not values:
            return 0.0
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))

    def format(self) -> str:
        levels = list(self.protection_levels)
        header = (
            f"{'Module':<18} {'Unprot[GE]':>10} "
            + " ".join(f"Red N={n} [%]" for n in levels)
            + "  "
            + " ".join(f"SCFI N={n} [%]" for n in levels)
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            red = " ".join(f"{row.redundancy_overhead.get(n, 0.0):11.1f}" for n in levels)
            scfi = " ".join(f"{row.scfi_overhead.get(n, 0.0):12.1f}" for n in levels)
            lines.append(f"{row.name:<18} {row.module_area_ge:>10.0f} {red}  {scfi}")
        red_mean = " ".join(f"{self.geometric_mean('redundancy', n):11.1f}" for n in levels)
        scfi_mean = " ".join(f"{self.geometric_mean('scfi', n):12.1f}" for n in levels)
        lines.append("-" * len(header))
        lines.append(f"{'Geometric Mean':<18} {'':>10} {red_mean}  {scfi_mean}")
        return "\n".join(lines)


def run_table1(
    models: Sequence[ModuleModel],
    protection_levels: Sequence[int] = (2, 3, 4),
    library: Optional[CellLibrary] = None,
    scfi_error_bits: int = 3,
    verify_security: bool = False,
    workers: int = 1,
    store=None,
) -> Table1Result:
    """Synthesise every configuration of Table 1 and collect the overheads.

    The overhead metric follows the paper: the *additional* FSM logic of a
    protected implementation divided by the whole-module reference area of the
    unprotected design.

    With ``verify_security`` every SCFI configuration additionally runs an
    exhaustive single-fault campaign over its diffusion layer on the
    bit-parallel engine, so the area table is backed by a zero-hijack check
    (results land in :attr:`Table1Row.scfi_security`); ``workers=N`` shards
    each of those campaigns across a process pool.

    ``store`` is an optional :class:`~repro.store.ArtifactStore`: the grid of
    SCFI hardenings and security campaigns is exactly the re-run-heavy shape
    the content-addressed pipeline memoises, so a warm store turns repeat
    Table 1 sweeps into artifact replay (models are keyed by FSM name).
    """
    library = library or DEFAULT_LIBRARY
    session = Session(store=store)
    rows: List[Table1Row] = []
    for model in models:
        unprotected = lower_fsm(model.fsm)
        unprotected_ge = area_report(unprotected.netlist, library).total_ge
        row = Table1Row(
            name=model.fsm.name,
            module_area_ge=model.module_area_ge,
            unprotected_fsm_ge=unprotected_ge,
        )
        for level in protection_levels:
            redundant = protect_fsm_redundant(model.fsm, RedundancyOptions(protection_level=level))
            redundant_ge = area_report(redundant.netlist, library).total_ge
            row.redundancy_fsm_ge[level] = redundant_ge
            row.redundancy_overhead[level] = 100.0 * (redundant_ge - unprotected_ge) / model.module_area_ge

            protect = ProtectSpec(protection_level=level, error_bits=scfi_error_bits)
            fsm_spec = FsmSpec(name=model.fsm.name)
            scfi = session.harden(fsm_spec, protect, fsm=model.fsm)
            scfi_ge = area_report(scfi.netlist, library).total_ge
            row.scfi_fsm_ge[level] = scfi_ge
            row.scfi_overhead[level] = 100.0 * (scfi_ge - unprotected_ge) / model.module_area_ge
            if verify_security:
                # One declarative campaign spec per SCFI configuration: the
                # exhaustive diffusion sweep on the default parallel engine,
                # cache-scoped to the hardening that produced the netlist.
                diffusion_sweep = CampaignSpec(scenario="exhaustive", workers=workers)
                row.scfi_security[level] = session.run_campaign(
                    scfi.structure,
                    diffusion_sweep,
                    cache_scope=harden_stage_key(fsm_spec, protect, False),
                )["exhaustive"]
        rows.append(row)
    return Table1Result(rows=rows, protection_levels=list(protection_levels))
