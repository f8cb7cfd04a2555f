"""Multi-cycle temporal fault campaigns: equality, regressions, satellites.

The ISSUE 7 tentpole adds bounded cycle traces (transient / persistent /
multi-shot faults with register feedback) to the campaign pipeline.  The
temporal path must be invisible along every axis the single-cycle path
already pins: identical counters across every engine and across worker
counts, with ``cycles=1`` collapsing
bit for bit onto the classic scenarios.  The satellites covered here:
worker pools never outlive a CLI invocation, ``sweep_fault_counts`` uses
decorrelated per-count seeds, ``lane_width`` is validated at construction,
and the behavioural FT1/FT2 campaign re-expressed as a structural scenario
reproduces the behavioural counters trial for trial.
"""

import multiprocessing

import pytest

from repro.api import CampaignSpec, ExperimentSpec, FsmSpec, Session
from repro.cli.fault_campaign import main as fi_main
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.behavioral import (
    BehavioralBitFlip,
    TARGET_CONTROL,
    TARGET_DIFFUSION,
    TARGET_PHI_INPUT,
    TARGET_STATE,
    behavioral_fault_campaign,
    sweep_fault_counts,
    sweep_seed,
)
from repro.fi.model import FaultEffect
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import ExhaustiveSingleFault, MultiShotGlitch, TemporalSingleFault
from repro.fsm.random_fsm import random_fsm
from repro.fsmlib import available_fsms
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.store import MemoryStore

ENGINES = ("parallel", "parallel-numpy", "scalar")

ALL_EFFECTS = (FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)

STUCK_EFFECTS = (FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)

#: ibex_lsu diffusion-layer stuck-at counters: the acceptance-criterion
#: persistent 4-cycle campaign vs. the same faults held for one cycle only.
IBEX_PERSISTENT_4CYC = (193, 283, 0, 0)
IBEX_TRANSIENT_4CYC = (238, 238, 0, 0)


def _protect(fsm):
    return protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False)).structure


@pytest.fixture(scope="module")
def ibex_structure():
    return _protect(ibex_lsu_fsm())


class TestTemporalEngineEquality:
    """Property style: counters are engine- and worker-invariant."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_random_fsm_multi_cycle_counters(self, engine, seed):
        structure = _protect(random_fsm(seed, num_states=5))
        scenario = lambda: TemporalSingleFault(
            target_nets="diffusion", effects=ALL_EFFECTS, cycles=3, duration="persistent"
        )
        reference = FaultCampaign(structure, engine="parallel").run(scenario())
        single = FaultCampaign(structure, engine=engine).run(scenario())
        assert single.counters() == reference.counters()
        assert single.total_injections == reference.total_injections
        with FaultCampaign(structure, engine=engine, workers=4) as campaign:
            sharded = campaign.run(scenario())
        assert sharded.counters() == reference.counters(), engine
        assert sharded.total_injections == reference.total_injections
        assert sharded.transitions_evaluated == reference.transitions_evaluated

    @pytest.mark.parametrize("engine", ENGINES)
    def test_transient_inject_cycle_matters_only_through_state(self, engine):
        """A transient fault at cycle 0 of an N-cycle trace classifies like
        the 1-cycle campaign: error states are sticky and fault-free cycles
        follow the analytic trajectory."""
        structure = _protect(random_fsm(17, num_states=5))
        one = FaultCampaign(structure, engine=engine).run(
            TemporalSingleFault(target_nets="diffusion", effects=STUCK_EFFECTS, cycles=1)
        )
        multi = FaultCampaign(structure, engine=engine).run(
            TemporalSingleFault(
                target_nets="diffusion",
                effects=STUCK_EFFECTS,
                cycles=4,
                duration="transient",
                inject_cycle=0,
            )
        )
        assert multi.counters() == one.counters()

    def test_outcomes_hydrated_and_identical_sharded(self):
        structure = _protect(random_fsm(3, num_states=5))
        scenario = lambda: TemporalSingleFault(
            target_nets="diffusion", effects=STUCK_EFFECTS, cycles=3, duration="persistent"
        )
        single = FaultCampaign(structure, keep_outcomes=True).run(scenario())
        with FaultCampaign(structure, workers=4, keep_outcomes=True) as campaign:
            sharded = campaign.run(scenario())
        assert single.outcomes == sharded.outcomes
        assert len(single.outcomes) == single.total_injections
        assert all(outcome.faults[0].cycle is None for outcome in single.outcomes)


class TestCyclesOneCollapse:
    """``cycles=1`` temporal scenarios are the classic campaigns bit for bit."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_cycle_equals_exhaustive(self, protected_traffic_light, engine):
        structure = protected_traffic_light.structure
        classic = FaultCampaign(structure, engine=engine, keep_outcomes=True).run(
            ExhaustiveSingleFault(effects=ALL_EFFECTS)
        )
        temporal = FaultCampaign(structure, engine=engine, keep_outcomes=True).run(
            TemporalSingleFault(effects=ALL_EFFECTS, cycles=1)
        )
        assert temporal.counters() == classic.counters()
        # Outcome streams agree everywhere except the fault's cycle tag
        # (the temporal job records its inject cycle, the classic one None).
        key = lambda o: (
            o.fault.net,
            o.fault.effect,
            o.source_state,
            o.expected_state,
            o.observed_code,
            o.observed_state,
            o.classification,
        )
        assert [key(o) for o in temporal.outcomes] == [key(o) for o in classic.outcomes]


class TestIbexPersistentVsTransient:
    """The acceptance-criterion regression on the protected ibex_lsu_fsm."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pinned_counters_all_engines(self, ibex_structure, engine):
        persistent = FaultCampaign(ibex_structure, engine=engine).run(
            TemporalSingleFault(
                target_nets="diffusion", effects=STUCK_EFFECTS, cycles=4, duration="persistent"
            )
        )
        transient = FaultCampaign(ibex_structure, engine=engine).run(
            TemporalSingleFault(
                target_nets="diffusion", effects=STUCK_EFFECTS, cycles=4, duration="transient"
            )
        )
        assert persistent.counters() == IBEX_PERSISTENT_4CYC
        assert transient.counters() == IBEX_TRANSIENT_4CYC
        # Holding the stuck-at across all four cycles must catch strictly
        # more faults than a one-cycle glitch of the same effect.
        assert persistent.detected > transient.detected

    def test_pinned_counters_sharded(self, ibex_structure):
        with FaultCampaign(ibex_structure, workers=4) as campaign:
            persistent = campaign.run(
                TemporalSingleFault(
                    target_nets="diffusion",
                    effects=STUCK_EFFECTS,
                    cycles=4,
                    duration="persistent",
                )
            )
        assert persistent.counters() == IBEX_PERSISTENT_4CYC


class TestMultiShotGlitch:
    def test_engine_equality_and_shot_accounting(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        nets = structure.diffusion_nets[:2]
        scenario = lambda: MultiShotGlitch(
            glitches=[(0, nets[0], "flip"), (2, nets[1], "stuck1")], cycles=4
        )
        reference = FaultCampaign(structure).run(scenario())
        # One schedule per reachable transition context.
        assert reference.total_injections == reference.transitions_evaluated
        for engine in ENGINES:
            result = FaultCampaign(structure, engine=engine).run(scenario())
            assert result.counters() == reference.counters()
        assert reference.target_nets == 2

    def test_defaults_cycles_past_last_shot(self, protected_traffic_light):
        net = protected_traffic_light.structure.diffusion_nets[0]
        scenario = MultiShotGlitch(glitches=[(3, net, "flip")])
        assert scenario.cycles == 4

    def test_rejects_bad_schedules(self, protected_traffic_light):
        net = protected_traffic_light.structure.diffusion_nets[0]
        with pytest.raises(ValueError):
            MultiShotGlitch(glitches=[])
        with pytest.raises(ValueError):
            MultiShotGlitch(glitches=[(-1, net, "flip")])
        with pytest.raises(ValueError):
            MultiShotGlitch(glitches=[(5, net, "flip")], cycles=3)
        with pytest.raises(ValueError):
            MultiShotGlitch(glitches=[(0, net, "melt")])

    def test_rejects_unknown_net(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        with pytest.raises(ValueError, match="not in netlist"):
            campaign.run(MultiShotGlitch(glitches=[(0, "no_such_net", "flip")]))


class TestTemporalValidation:
    def test_scenario_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TemporalSingleFault(cycles=0)
        with pytest.raises(ValueError):
            TemporalSingleFault(cycles=True)
        with pytest.raises(ValueError):
            TemporalSingleFault(cycles=2, duration="forever")
        with pytest.raises(ValueError):
            TemporalSingleFault(cycles=2, inject_cycle=2)

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "16"])
    def test_campaign_rejects_bad_lane_width(self, protected_traffic_light, bad):
        with pytest.raises(ValueError, match="lane_width must be an integer >= 1"):
            FaultCampaign(protected_traffic_light.structure, lane_width=bad)


class TestBehavioralStructuralParity:
    """The FT1/FT2 bit-flip campaign re-expressed structurally reproduces the
    behavioural counters trial for trial (same seeds, same draws)."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_single_fault_parity(self, protected_traffic_light, seed):
        behavioral = behavioral_fault_campaign(
            protected_traffic_light.hardened, num_faults=1, trials=250, seed=seed
        )
        structural = FaultCampaign(protected_traffic_light.structure).run(
            BehavioralBitFlip(num_faults=1, trials=250, seed=seed)
        )
        assert structural.counters() == (
            behavioral.masked,
            behavioral.detected,
            behavioral.redirected,
            behavioral.hijacked,
        )

    def test_multi_fault_parity_all_mapped_targets(self, protected_uart):
        targets = (TARGET_STATE, TARGET_CONTROL, TARGET_PHI_INPUT)
        behavioral = behavioral_fault_campaign(
            protected_uart.hardened, num_faults=2, trials=300, targets=targets, seed=11
        )
        structural = FaultCampaign(protected_uart.structure).run(
            BehavioralBitFlip(num_faults=2, trials=300, targets=targets, seed=11)
        )
        assert structural.counters() == (
            behavioral.masked,
            behavioral.detected,
            behavioral.redirected,
            behavioral.hijacked,
        )

    def test_diffusion_target_rejected(self):
        with pytest.raises(ValueError, match="diffusion"):
            BehavioralBitFlip(num_faults=1, trials=10, targets=(TARGET_DIFFUSION,))

    @pytest.mark.parametrize("fsm", available_fsms())
    def test_bitflip_spec_matches_reference_on_every_fsm(self, fsm):
        """A ``bitflip`` spec through ``Session.run`` counts exactly what the
        pre-netlist reference counts on the same hardened FSM."""
        session = Session(store=MemoryStore())
        for faults in (1, 2, 3):
            result = session.run(ExperimentSpec(
                fsm=FsmSpec(name=fsm),
                campaign=CampaignSpec(scenario="bitflip", faults=faults, trials=200, seed=faults),
            ))
            reference = behavioral_fault_campaign(
                result.scfi.hardened, num_faults=faults, trials=200, seed=faults
            )
            assert result.campaigns["bitflip"].counters() == (
                reference.masked,
                reference.detected,
                reference.redirected,
                reference.hijacked,
            ), (fsm, faults)


class TestSweepSeedDecorrelation:
    """Satellite: adjacent base seeds must not reuse per-count trial streams."""

    def test_seeds_are_decorrelated(self):
        # The historical ``seed + n`` derivation collided exactly here.
        assert sweep_seed(0, 3) != sweep_seed(1, 2)
        assert sweep_seed(0, 1) != sweep_seed(1, 1)
        # Deterministic across processes: pin the derivation itself.
        assert sweep_seed(0, 1) == sweep_seed(0, 1)

    def test_pinned_sweep_counters(self, protected_traffic_light):
        results = sweep_fault_counts(protected_traffic_light.hardened, (1, 2), trials=100)
        one, two = results[1], results[2]
        assert (one.masked, one.detected, one.redirected, one.hijacked) == (35, 46, 19, 0)
        assert (two.masked, two.detected, two.redirected, two.hijacked) == (13, 62, 19, 6)

    def test_sweep_matches_direct_campaign_at_derived_seed(self, protected_traffic_light):
        hardened = protected_traffic_light.hardened
        results = sweep_fault_counts(hardened, (2,), trials=80, seed=5)
        direct = behavioral_fault_campaign(
            hardened, num_faults=2, trials=80, seed=sweep_seed(5, 2)
        )
        assert results[2].to_dict() == direct.to_dict()


class TestNoPoolSurvivesCli:
    """Satellite: worker pools are closed deterministically, not by GC."""

    def test_cli_workers_leaves_no_children(self, capsys):
        exit_code = fi_main(
            ["--fsm", "traffic_light", "--mode", "exhaustive", "--workers", "2"]
        )
        assert exit_code == 0
        assert capsys.readouterr().out  # campaign summary printed
        assert multiprocessing.active_children() == []

    def test_cli_temporal_workers_leaves_no_children(self, capsys):
        exit_code = fi_main(
            [
                "--fsm",
                "traffic_light",
                "--mode",
                "temporal",
                "--cycles",
                "3",
                "--fault-duration",
                "persistent",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0
        assert "temporal persistent" in capsys.readouterr().out
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure, workers=2)
        campaign.run(ExhaustiveSingleFault())
        campaign.close()
        campaign.close()
        assert multiprocessing.active_children() == []
