"""The grouped :class:`JobArrays` IR: lowering fidelity and dispatch provenance.

Every registered scenario must lower through the IR such that replaying it
job-group-for-job-group (:meth:`JobArrays.to_jobs`) reproduces the legacy
``jobs()`` stream exactly -- same order, same transition contexts, same fault
groups.  The dispatch tests pin which execution path each engine takes
(:attr:`FaultCampaign.last_dispatch`): the numpy engine must run the
per-effect sweep and random multi-fault campaigns array-native, everything
else reports the generic spec-stream path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import SCENARIO_REGISTRY, build_scenarios
from repro.api.spec import CampaignSpec
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.injector import ScfiFaultInjector
from repro.fi.model import Fault, FaultEffect
from repro.fi.orchestrator import (
    ExhaustiveSingleFault,
    FaultCampaign,
    JobArrays,
    LaserSpot,
    RandomMultiFault,
    TemporalSingleFault,
    effect_sweep_scenarios,
)
from repro.fsm.random_fsm import random_fsm

SEEDS = st.integers(min_value=0, max_value=10_000)


def _protect(fsm):
    return protect_fsm(
        fsm, ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure


class TestIrLoweringMatchesJobStream:
    """Property: lowered IR == legacy job stream, for every registered scenario."""

    @given(seed=SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_registered_scenarios_lower_identically(self, seed):
        structure = _protect(random_fsm(seed, num_states=5))
        nets = ScfiFaultInjector(structure).diffusion_nets()
        specs = {
            "exhaustive": CampaignSpec(scenario="exhaustive"),
            "random": CampaignSpec(scenario="random", faults=2, trials=25, seed=seed),
            "effects": CampaignSpec(scenario="effects"),
            "regions": CampaignSpec(scenario="regions"),
            "temporal": CampaignSpec(
                scenario="temporal", cycles=3, fault_duration="transient"
            ),
            "glitch": CampaignSpec(
                scenario="glitch",
                cycles=2,
                glitch_schedule=((0, nets[0], "flip"), (1, nets[1], "stuck1")),
            ),
            "bitflip": CampaignSpec(scenario="bitflip", faults=2, trials=25, seed=seed),
            "laser": CampaignSpec(
                scenario="laser", spot_radius=2.0, spot_trials=25, seed=seed
            ),
        }
        # Every netlist-level registered scenario is covered (behavioral runs
        # pre-netlist through Session.run, never against the executor).
        assert set(specs) == set(SCENARIO_REGISTRY)
        with FaultCampaign(structure) as campaign:
            for name, spec in specs.items():
                for scenario in build_scenarios(spec, structure).values():
                    cycles = int(getattr(scenario, "cycles", 1) or 1)
                    expected = list(scenario.jobs(campaign))
                    arrays = campaign.lower_scenario(scenario, cycles)
                    assert arrays.num_jobs == len(expected), name
                    assert arrays.to_jobs(campaign._net_names()) == expected, name

    @given(seed=SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_scalar_oracle_round_trips_the_ir(self, seed):
        """The scalar engine (no compiled netlist) lowers and replays too."""
        structure = _protect(random_fsm(seed, num_states=4))
        scenario = RandomMultiFault(num_faults=2, trials=20, seed=seed)
        with FaultCampaign(structure, engine="scalar") as campaign:
            expected = list(scenario.jobs(campaign))
            arrays = campaign.lower_scenario(scenario)
            assert arrays.to_jobs(campaign._net_names()) == expected

    def test_slice_preserves_groups(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = RandomMultiFault(num_faults=3, trials=17, seed=5)
        with FaultCampaign(structure) as campaign:
            arrays = campaign.lower_scenario(scenario)
            names = campaign._net_names()
            jobs = arrays.to_jobs(names)
            cut = arrays.num_jobs // 2
            head = arrays.slice(0, cut)
            tail = arrays.slice(cut, arrays.num_jobs)
            assert head.to_jobs(names) == jobs[:cut]
            assert tail.to_jobs(names) == jobs[cut:]
            assert int(tail.group_offsets[0]) == 0

    def test_negative_fault_cycle_rejected(self):
        with pytest.raises(ValueError, match="outside the"):
            JobArrays.from_jobs(
                [(0, (Fault(net="n", effect=FaultEffect.TRANSIENT_FLIP, cycle=-1),))],
                {"n": 0},
                num_cycles=2,
            )


class TestEmptyEffectsRejected:
    def test_exhaustive(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            ExhaustiveSingleFault(effects=())

    def test_random_multi_fault(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            RandomMultiFault(num_faults=2, trials=5, effects=())

    def test_temporal(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            TemporalSingleFault(cycles=2, effects=())

    def test_laser(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            LaserSpot(effects=())

    def test_campaign_spec(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            CampaignSpec(effects=())


class _StuckConflictScenario:
    """One job whose group holds stuck-at-0 AND stuck-at-1 on the same net."""

    def __init__(self, net):
        self.net = net

    def describe(self):
        return "stuck conflict"

    def annotate(self, result, campaign):
        result.scenario = self.describe()

    def jobs(self, campaign):
        yield 0, (
            Fault(net=self.net, effect=FaultEffect.STUCK_AT_0),
            Fault(net=self.net, effect=FaultEffect.STUCK_AT_1),
        )


class TestDispatchProvenance:
    def test_last_dispatch_starts_unset(self, protected_traffic_light):
        with FaultCampaign(protected_traffic_light.structure) as campaign:
            assert campaign.last_dispatch is None

    def test_dispatch_is_observed_not_configured(self, protected_traffic_light):
        with pytest.raises(TypeError, match="dispatch"):
            FaultCampaign(protected_traffic_light.structure, dispatch="spec-stream")

    def test_numpy_effect_sweep_is_array_native(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, engine="parallel-numpy") as campaign:
            for scenario in effect_sweep_scenarios().values():
                campaign.run(scenario)
                assert campaign.last_dispatch == "array-native"

    def test_numpy_random_multi_fault_is_array_native(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = RandomMultiFault(num_faults=2, trials=50, seed=1)
        with FaultCampaign(structure, engine="parallel-numpy") as campaign:
            native = campaign.run(scenario)
            assert campaign.last_dispatch == "array-native"
        # Kept outcomes route the same engine through the generic path.
        with FaultCampaign(
            structure, engine="parallel-numpy", keep_outcomes=True
        ) as campaign:
            generic = campaign.run(scenario)
            assert campaign.last_dispatch == "spec-stream"
        assert native.counters() == generic.counters()

    def test_bignum_engines_report_spec_stream(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        for engine in ("parallel", "scalar"):
            with FaultCampaign(structure, engine=engine) as campaign:
                campaign.run(ExhaustiveSingleFault())
                assert campaign.last_dispatch == "spec-stream", engine

    def test_stuck_conflict_falls_back_to_spec_stream(self, protected_traffic_light):
        """stuck0+stuck1 on one net in one group: dict semantics (last wins)
        differ from the numpy OR-combine, so the conservative conflict check
        must route the campaign through the generic path."""
        structure = protected_traffic_light.structure
        net = ScfiFaultInjector(structure).diffusion_nets()[0]
        scenario = _StuckConflictScenario(net)
        with FaultCampaign(structure, engine="parallel-numpy") as campaign:
            numpy_result = campaign.run(scenario)
            assert campaign.last_dispatch == "spec-stream"
        with FaultCampaign(structure, engine="parallel") as campaign:
            reference = campaign.run(_StuckConflictScenario(net))
        assert numpy_result.counters() == reference.counters()

    def test_keep_outcomes_uses_spec_stream(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(
            structure, engine="parallel-numpy", keep_outcomes=True
        ) as campaign:
            campaign.run(ExhaustiveSingleFault())
            assert campaign.last_dispatch == "spec-stream"
