"""Tests for the unified fault-campaign orchestration layer."""

import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.eval.security import structural_fault_target_sweep
from repro.fi.model import Classification, Fault, FaultEffect, FaultOutcome
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import (
    ExhaustiveSingleFault,
    RandomMultiFault,
    effect_sweep_scenarios,
    region_sweep_scenarios,
    scfi_fault_regions,
)
from repro.fsm.random_fsm import random_fsm

ENGINES = ("parallel", "parallel-numpy", "scalar")


class TestFaultCampaignExecutor:
    def test_rejects_unknown_engine(self, protected_traffic_light):
        with pytest.raises(ValueError):
            FaultCampaign(protected_traffic_light.structure, engine="quantum")

    def test_rejects_bad_lane_width(self, protected_traffic_light):
        with pytest.raises(ValueError):
            FaultCampaign(protected_traffic_light.structure, lane_width=0)

    def test_counters_independent_of_lane_width(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = ExhaustiveSingleFault(target_nets="comb")
        wide = FaultCampaign(structure, lane_width=256).run(scenario)
        narrow = FaultCampaign(structure, lane_width=3).run(scenario)
        single = FaultCampaign(structure, lane_width=1).run(scenario)
        assert wide.counters() == narrow.counters() == single.counters()
        assert wide.total_injections == narrow.total_injections == single.total_injections

    def test_parallel_matches_scalar_oracle(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = ExhaustiveSingleFault(
            target_nets="comb",
            effects=(FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
        )
        parallel = FaultCampaign(structure, engine="parallel").run(scenario)
        scalar = FaultCampaign(structure, engine="scalar").run(scenario)
        assert parallel.counters() == scalar.counters()
        assert parallel.total_injections == scalar.total_injections

    def test_outcomes_identical_across_engines(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = ExhaustiveSingleFault()  # diffusion layer
        parallel = FaultCampaign(structure, keep_outcomes=True).run(scenario)
        scalar = FaultCampaign(structure, engine="scalar", keep_outcomes=True).run(scenario)
        assert parallel.outcomes == scalar.outcomes

    def test_run_sweep_shares_compiled_netlist(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        results = campaign.run_sweep(
            {"a": ExhaustiveSingleFault(), "b": ExhaustiveSingleFault()}
        )
        assert results["a"].counters() == results["b"].counters()

    def test_numpy_engine_matches_oracle(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = ExhaustiveSingleFault(target_nets="comb")
        numpy_result = FaultCampaign(structure, engine="parallel-numpy").run(scenario)
        scalar = FaultCampaign(structure, engine="scalar").run(scenario)
        assert numpy_result.counters() == scalar.counters()

    def test_context_packing_toggle_preserves_counters(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        for engine in ("parallel", "parallel-numpy"):
            packed = FaultCampaign(structure, engine=engine).run(
                ExhaustiveSingleFault(target_nets="comb")
            )
            per_context = FaultCampaign(structure, engine=engine, pack_contexts=False).run(
                ExhaustiveSingleFault(target_nets="comb")
            )
            assert packed.counters() == per_context.counters()
            assert packed.total_injections == per_context.total_injections

    def test_packed_outcomes_identical_to_scalar(self, protected_traffic_light):
        """Context packing must keep per-outcome order, not just counters."""
        structure = protected_traffic_light.structure
        scenario = ExhaustiveSingleFault(target_nets="comb")
        packed = FaultCampaign(structure, keep_outcomes=True, lane_width=7).run(scenario)
        scalar = FaultCampaign(structure, engine="scalar", keep_outcomes=True).run(scenario)
        assert packed.outcomes == scalar.outcomes


class TestFaultTargetValidation:
    """Campaigns naming nonexistent nets must fail loudly on every engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exhaustive_unknown_net_raises(self, protected_traffic_light, engine):
        campaign = FaultCampaign(protected_traffic_light.structure, engine=engine)
        with pytest.raises(ValueError, match="no_such_net"):
            campaign.run(ExhaustiveSingleFault(target_nets=["no_such_net"]))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_random_unknown_net_raises(self, protected_traffic_light, engine):
        campaign = FaultCampaign(protected_traffic_light.structure, engine=engine)
        with pytest.raises(ValueError, match="typo_net"):
            campaign.run(RandomMultiFault(num_faults=1, trials=5, target_nets=["typo_net"]))

    def test_mixed_known_and_unknown_nets_raise(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        real = campaign.injector.diffusion_nets()[0]
        with pytest.raises(ValueError) as excinfo:
            campaign.run(ExhaustiveSingleFault(target_nets=[real, "bogus_a", "bogus_b"]))
        message = str(excinfo.value)
        assert "bogus_a" in message and "bogus_b" in message
        assert real not in message

    def test_unknown_string_alias_raises(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        with pytest.raises(ValueError, match="alias"):
            campaign.run(ExhaustiveSingleFault(target_nets="difusion"))

    def test_validate_target_nets_accepts_known(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        campaign.validate_target_nets(campaign.injector.diffusion_nets())
        campaign.validate_target_nets(protected_traffic_light.structure.state_q)


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is recorded; returns the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestTargetNetPools:
    """The ``"comb"`` and ``"diffusion"`` pools are built once per campaign;
    explicit net lists are validated on every run."""

    POOL_BUILDERS = {"comb": "all_comb_nets", "diffusion": "diffusion_nets"}

    @pytest.mark.parametrize("alias", sorted(POOL_BUILDERS))
    def test_alias_pool_is_built_once_per_campaign(
        self, protected_traffic_light, monkeypatch, alias
    ):
        campaign = FaultCampaign(protected_traffic_light.structure)
        calls = _count_calls(monkeypatch, campaign.injector, self.POOL_BUILDERS[alias])
        first = campaign.run(ExhaustiveSingleFault(target_nets=alias))
        # Fresh scenario objects, as every sweep and service job builds them.
        campaign.run_sweep(effect_sweep_scenarios(target_nets=alias))
        campaign.run(RandomMultiFault(num_faults=2, trials=40, target_nets=alias))
        again = campaign.run(ExhaustiveSingleFault(target_nets=alias))
        assert len(calls) == 1
        assert again.counters() == first.counters()

    def test_each_campaign_builds_its_own_pool(self, protected_traffic_light, monkeypatch):
        structure = protected_traffic_light.structure
        first, second = FaultCampaign(structure), FaultCampaign(structure)
        first_calls = _count_calls(monkeypatch, first.injector, "all_comb_nets")
        second_calls = _count_calls(monkeypatch, second.injector, "all_comb_nets")
        a = first.run(ExhaustiveSingleFault(target_nets="comb"))
        b = second.run(ExhaustiveSingleFault(target_nets="comb"))
        assert (len(first_calls), len(second_calls)) == (1, 1)
        assert a.counters() == b.counters()

    def test_comb_and_diffusion_pools_stay_apart(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        campaign = FaultCampaign(structure)
        diffusion = campaign.run(ExhaustiveSingleFault(target_nets="diffusion"))
        comb = campaign.run(ExhaustiveSingleFault(target_nets="comb"))
        fresh_comb = FaultCampaign(structure).run(ExhaustiveSingleFault(target_nets="comb"))
        assert comb.counters() == fresh_comb.counters()
        assert comb.total_injections == fresh_comb.total_injections
        assert diffusion.total_injections < comb.total_injections

    def test_explicit_net_list_is_validated_on_every_run(
        self, protected_traffic_light, monkeypatch
    ):
        campaign = FaultCampaign(protected_traffic_light.structure)
        nets = campaign.injector.diffusion_nets()[:3]
        calls = _count_calls(monkeypatch, campaign, "validate_target_nets")
        scenario = ExhaustiveSingleFault(target_nets=nets)
        campaign.run(scenario)
        per_run = len(calls)
        assert per_run >= 1
        campaign.run(scenario)
        assert len(calls) == 2 * per_run
        with pytest.raises(ValueError, match="bogus_net"):
            campaign.run(ExhaustiveSingleFault(target_nets=nets + ["bogus_net"]))


class TestScenarios:
    def test_exhaustive_target_aliases(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        diffusion = ExhaustiveSingleFault(target_nets="diffusion").resolved_nets(campaign)
        default = ExhaustiveSingleFault().resolved_nets(campaign)
        comb = ExhaustiveSingleFault(target_nets="comb").resolved_nets(campaign)
        assert diffusion == default
        assert set(diffusion).issubset(set(comb))

    def test_random_multi_fault_records_all_faults(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure, keep_outcomes=True)
        result = campaign.run(RandomMultiFault(num_faults=3, trials=25, seed=5))
        assert result.total_injections == 25
        assert all(outcome.num_faults == 3 for outcome in result.outcomes)
        assert all(len({f.net for f in outcome.faults}) == 3 for outcome in result.outcomes)

    def test_random_multi_fault_rejects_zero_faults(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        with pytest.raises(ValueError):
            campaign.run(RandomMultiFault(num_faults=0, trials=5))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_random_multi_fault_rejects_truncating_draw(self, protected_traffic_light, engine):
        """num_faults > available nets used to silently weaken the campaign."""
        campaign = FaultCampaign(protected_traffic_light.structure, engine=engine)
        targets = campaign.injector.diffusion_nets()[:2]
        with pytest.raises(ValueError, match="exceeds"):
            campaign.run(RandomMultiFault(num_faults=3, trials=5, target_nets=targets))

    def test_random_multi_fault_effect_axis(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure, keep_outcomes=True)
        result = campaign.run(
            RandomMultiFault(num_faults=2, trials=20, seed=1, effects=(FaultEffect.STUCK_AT_0,))
        )
        assert all(
            fault.effect is FaultEffect.STUCK_AT_0
            for outcome in result.outcomes
            for fault in outcome.faults
        )
        mixed = campaign.run(
            RandomMultiFault(
                num_faults=2,
                trials=40,
                seed=1,
                effects=(FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
            )
        )
        effects_seen = {
            fault.effect for outcome in mixed.outcomes for fault in outcome.faults
        }
        assert effects_seen == {FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1}

    def test_random_multi_fault_rejects_empty_effects(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        with pytest.raises(ValueError):
            campaign.run(RandomMultiFault(num_faults=1, trials=5, effects=()))

    def test_effect_sweep_covers_all_effects(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        results = campaign.run_sweep(effect_sweep_scenarios())
        assert set(results) == {"flip", "stuck0", "stuck1"}
        base = results["flip"].total_injections
        assert all(r.total_injections == base for r in results.values())

    def test_single_faults_on_diffusion_never_hijack(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        result = campaign.run(ExhaustiveSingleFault())
        assert result.hijacked == 0
        assert result.detection_rate > 0.5


class TestRegionSweeps:
    def test_region_names_match_behavioral_targets(self, protected_traffic_light):
        regions = scfi_fault_regions(protected_traffic_light.structure)
        assert set(regions) == {"FT1_state", "FT2_control", "FT3_phi_input", "FT3_diffusion"}
        assert all(regions.values())

    def test_regions_exclude_constant_ties(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        regions = scfi_fault_regions(structure)
        for net in regions["FT3_phi_input"]:
            driver = structure.netlist.driver_of(net)
            assert driver is None or not driver.gate_type.is_constant

    def test_structural_sweep_matches_section63_claims(self, protected_traffic_light):
        """Single structural faults on FT1/FT2 must never hijack (distance N)."""
        sweep = structural_fault_target_sweep(protected_traffic_light.structure)
        assert set(sweep) == {"FT1_state", "FT2_control", "FT3_phi_input", "FT3_diffusion"}
        assert sweep["FT1_state"].hijacked == 0
        assert sweep["FT1_state"].detected == sweep["FT1_state"].total_injections
        assert sweep["FT2_control"].hijacked == 0

    def test_structural_sweep_engine_independent(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        parallel = structural_fault_target_sweep(structure)
        scalar = structural_fault_target_sweep(structure, engine="scalar")
        for name in parallel:
            assert parallel[name].counters() == scalar[name].counters()


class TestRandomFsmEngineEquivalence:
    """Property style: all three engines agree counter-for-counter on random FSMs.

    The narrow lane widths force the packing planner across context
    boundaries mid-batch, which is where golden-lane bookkeeping bugs would
    show up as counter drift against the scalar oracle.
    """

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_exhaustive_counters_agree(self, seed):
        fsm = random_fsm(seed, num_states=5)
        structure = protect_fsm(
            fsm, ScfiOptions(protection_level=2, generate_verilog=False)
        ).structure
        scenario = ExhaustiveSingleFault(target_nets="comb")
        results = {
            engine: FaultCampaign(structure, engine=engine).run(scenario)
            for engine in ENGINES
        }
        reference = results["scalar"]
        for engine in ("parallel", "parallel-numpy"):
            assert results[engine].counters() == reference.counters(), engine
            assert results[engine].total_injections == reference.total_injections

    @pytest.mark.parametrize("lane_width", [1, 2, 5, 64])
    def test_counters_stable_across_lane_widths(self, lane_width):
        fsm = random_fsm(41, num_states=4)
        structure = protect_fsm(
            fsm, ScfiOptions(protection_level=2, generate_verilog=False)
        ).structure
        scenario = ExhaustiveSingleFault(target_nets="comb")
        wide = FaultCampaign(structure, engine="parallel-numpy").run(scenario)
        narrow = FaultCampaign(
            structure, engine="parallel-numpy", lane_width=lane_width
        ).run(scenario)
        assert wide.counters() == narrow.counters()

    @pytest.mark.parametrize("seed", [5, 23])
    def test_random_multi_fault_counters_agree(self, seed):
        fsm = random_fsm(seed + 100, num_states=5)
        structure = protect_fsm(
            fsm, ScfiOptions(protection_level=2, generate_verilog=False)
        ).structure
        results = [
            FaultCampaign(structure, engine=engine, lane_width=9).run(
                RandomMultiFault(num_faults=2, trials=60, seed=seed)
            )
            for engine in ENGINES
        ]
        assert results[0].counters() == results[1].counters() == results[2].counters()


class TestFaultOutcomeModel:
    def test_single_fault_fills_faults_tuple(self):
        outcome = FaultOutcome(
            fault=Fault("n1"),
            source_state="A",
            expected_state="B",
            observed_code=0,
            observed_state="B",
            classification=Classification.MASKED,
        )
        assert outcome.faults == (Fault("n1"),)
        assert outcome.num_faults == 1

    def test_of_faults_carries_every_fault(self):
        faults = (Fault("n1"), Fault("n2"), Fault("n3"))
        outcome = FaultOutcome.of_faults(
            faults,
            source_state="A",
            expected_state="B",
            observed_code=7,
            observed_state=None,
            classification=Classification.DETECTED,
        )
        assert outcome.fault == faults[0]
        assert outcome.faults == faults

    def test_of_faults_rejects_empty(self):
        with pytest.raises(ValueError):
            FaultOutcome.of_faults(
                (),
                source_state="A",
                expected_state="B",
                observed_code=0,
                observed_state=None,
                classification=Classification.DETECTED,
            )
