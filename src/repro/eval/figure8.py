"""Figure 8: area-time trade-off of the adc_ctrl_fsm module.

The paper sweeps the target clock period from 3.3 ns to 6.0 ns and reports the
area (kGE) the synthesis tool needs to close timing for three configurations:
the unmodified module, the module with a redundancy-protected FSM (N = 3) and
the module with an SCFI-protected FSM (N = 3).  Our harness rebuilds each
configuration as "FSM netlist + calibrated generic datapath", runs the
timing-driven sizing loop for every target period, and reports the same
series, plus the maximum frequency each configuration reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import Session
from repro.api.spec import CampaignSpec, FsmSpec, ProtectSpec, harden_stage_key
from repro.core.redundancy import RedundancyOptions, protect_fsm_redundant
from repro.core.structure import ScfiNetlist
from repro.fi.executor import CampaignResult
from repro.netlist.area import area_report
from repro.netlist.celllib import CellLibrary, DEFAULT_LIBRARY
from repro.netlist.generic import pad_netlist_to
from repro.netlist.netlist import Netlist
from repro.synth.flow import ModuleModel
from repro.synth.lower import lower_fsm
from repro.synth.sizing import size_for_period

#: Clock periods swept by the paper (picoseconds).
PAPER_CLOCK_PERIODS_PS = tuple(range(3300, 6001, 300))

#: Maximum frequencies the paper reports for the three configurations (MHz).
PAPER_MAX_FREQUENCY_MHZ = {"base": 312.0, "redundancy": 308.0, "scfi": 294.0}


@dataclass
class Figure8Point:
    """One (configuration, clock period) measurement."""

    configuration: str
    target_period_ps: float
    achieved_period_ps: float
    area_kge: float
    met_timing: bool

    @property
    def area_time_product(self) -> float:
        return self.area_kge * self.achieved_period_ps


@dataclass
class Figure8Result:
    """All swept points, grouped per configuration."""

    points: List[Figure8Point] = field(default_factory=list)
    #: Optional security validation of the SCFI configuration (the area-time
    #: sweep is only meaningful if the protected FSM still detects faults).
    security_checks: Dict[str, CampaignResult] = field(default_factory=dict)

    def series(self, configuration: str) -> List[Figure8Point]:
        return [p for p in self.points if p.configuration == configuration]

    def configurations(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.configuration not in seen:
                seen.append(point.configuration)
        return seen

    def max_frequency_mhz(self, configuration: str) -> float:
        """Highest frequency whose target period the configuration met."""
        met = [p for p in self.series(configuration) if p.met_timing]
        if not met:
            return 0.0
        best_period = min(p.target_period_ps for p in met)
        return 1e6 / best_period

    def format(self) -> str:
        lines = [f"{'period [ps]':>12} " + " ".join(f"{c:>14}" for c in self.configurations())]
        periods = sorted({p.target_period_ps for p in self.points})
        for period in periods:
            cells = []
            for configuration in self.configurations():
                match = [
                    p
                    for p in self.series(configuration)
                    if p.target_period_ps == period
                ]
                cells.append(f"{match[0].area_kge:14.3f}" if match else " " * 14)
            lines.append(f"{period:12.0f} " + " ".join(cells))
        lines.append(
            "max frequency [MHz]: "
            + ", ".join(
                f"{c}={self.max_frequency_mhz(c):.0f}" for c in self.configurations()
            )
        )
        return "\n".join(lines)


def _module_netlist(
    model: ModuleModel,
    configuration: str,
    protection_level: int,
    library: CellLibrary,
    session: Optional[Session] = None,
) -> Tuple[Netlist, Optional[ScfiNetlist]]:
    """Build the full-module netlist (FSM + calibrated datapath) of one configuration.

    For the SCFI configuration the campaign-ready :class:`ScfiNetlist` handle
    is returned alongside, so callers can fault-validate the very FSM whose
    area-time curve they sweep; the hardening routes through ``session`` so a
    store-backed session replays it from cache.
    """
    structure: Optional[ScfiNetlist] = None
    if configuration == "base":
        fsm_netlist = lower_fsm(model.fsm).netlist
    elif configuration == "redundancy":
        fsm_netlist = protect_fsm_redundant(
            model.fsm, RedundancyOptions(protection_level=protection_level)
        ).netlist
    elif configuration == "scfi":
        protected = (session or Session()).harden(
            FsmSpec(name=model.fsm.name),
            ProtectSpec(protection_level=protection_level),
            fsm=model.fsm,
        )
        fsm_netlist = protected.netlist
        structure = protected.structure
    else:
        raise ValueError(f"unknown configuration {configuration!r}")

    unprotected_ge = area_report(lower_fsm(model.fsm).netlist, library).total_ge
    fsm_ge = area_report(fsm_netlist, library).total_ge
    datapath_ge = max(0.0, model.module_area_ge - unprotected_ge)
    padded = pad_netlist_to(
        fsm_netlist,
        fsm_ge + datapath_ge,
        depth=model.datapath_depth,
        seed=model.seed,
        library=library,
    )
    return padded, structure


def run_figure8(
    model: ModuleModel,
    protection_level: int = 3,
    clock_periods_ps: Sequence[float] = PAPER_CLOCK_PERIODS_PS,
    configurations: Sequence[str] = ("base", "redundancy", "scfi"),
    library: Optional[CellLibrary] = None,
    verify_security: bool = False,
    workers: int = 1,
    store=None,
) -> Figure8Result:
    """Sweep the clock period for every configuration and record area/timing.

    With ``verify_security`` the SCFI configuration additionally runs an
    exhaustive diffusion-layer campaign on the bit-parallel engine before the
    timing sweep (stored in :attr:`Figure8Result.security_checks`);
    ``workers=N`` shards that campaign across a process pool.  ``store`` is an
    optional :class:`~repro.store.ArtifactStore` that memoises the SCFI
    hardening and the security campaign across repeat sweeps.
    """
    library = library or DEFAULT_LIBRARY
    session = Session(store=store)
    result = Figure8Result()
    for configuration in configurations:
        netlist, structure = _module_netlist(
            model, configuration, protection_level, library, session
        )
        if verify_security and structure is not None:
            diffusion_sweep = CampaignSpec(scenario="exhaustive", workers=workers)
            result.security_checks[configuration] = session.run_campaign(
                structure,
                diffusion_sweep,
                cache_scope=harden_stage_key(
                    FsmSpec(name=model.fsm.name),
                    ProtectSpec(protection_level=protection_level),
                    False,
                ),
            )["exhaustive"]
        for period in clock_periods_ps:
            sized = size_for_period(netlist, float(period), library)
            result.points.append(
                Figure8Point(
                    configuration=configuration,
                    target_period_ps=float(period),
                    achieved_period_ps=sized.achieved_period_ps,
                    area_kge=sized.area_ge / 1000.0,
                    met_timing=sized.met_timing,
                )
            )
    return result
