"""Tests for netlist-level and behavioural fault campaigns."""

import pytest

from repro.fi.behavioral import (
    TARGET_CONTROL,
    TARGET_DIFFUSION,
    TARGET_PHI_INPUT,
    TARGET_STATE,
    behavioral_fault_campaign,
    sweep_fault_counts,
)
from repro.fi.executor import FaultCampaign
from repro.fi.model import Classification, FaultEffect
from repro.fi.scenarios import ExhaustiveSingleFault, RandomMultiFault


class TestExhaustiveCampaign:
    def test_injection_count_is_nets_times_transitions(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure).run(ExhaustiveSingleFault())
        assert campaign.total_injections == campaign.target_nets * campaign.transitions_evaluated
        assert campaign.total_injections == (
            campaign.masked + campaign.detected + campaign.redirected + campaign.hijacked
        )

    def test_single_diffusion_faults_never_hijack_with_repair(self, protected_traffic_light):
        """The verify-and-repair pass removes every hijack-capable diffusion node."""
        campaign = FaultCampaign(protected_traffic_light.structure).run(ExhaustiveSingleFault())
        assert campaign.hijacked == 0
        assert campaign.detection_rate > 0.5

    def test_custom_target_nets(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        campaign = FaultCampaign(structure).run(
            ExhaustiveSingleFault(target_nets=[structure.error_ok_net])
        )
        assert campaign.target_nets == 1
        assert campaign.hijacked == 0
        assert campaign.detected == campaign.total_injections

    def test_stuck_at_effects_triple_the_campaign(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        flips_only = FaultCampaign(structure).run(
            ExhaustiveSingleFault(target_nets=[structure.error_ok_net])
        )
        all_effects = FaultCampaign(structure).run(
            ExhaustiveSingleFault(
                target_nets=[structure.error_ok_net],
                effects=(FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1),
            )
        )
        assert all_effects.total_injections == 3 * flips_only.total_injections
        # Stuck-at-1 on the error-ok net matches the fault-free value -> masked.
        assert all_effects.masked > 0

    def test_outcomes_kept_when_requested(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        campaign = FaultCampaign(structure, keep_outcomes=True).run(
            ExhaustiveSingleFault(target_nets=[structure.error_ok_net])
        )
        assert len(campaign.outcomes) == campaign.total_injections
        assert all(o.classification is Classification.DETECTED for o in campaign.outcomes)

    def test_format_mentions_counts(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        campaign = FaultCampaign(structure).run(
            ExhaustiveSingleFault(target_nets=[structure.error_ok_net])
        )
        text = campaign.format()
        assert "injections" in text
        assert "hijack" in text


class TestRandomCampaign:
    def test_trial_count_respected(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure).run(
            RandomMultiFault(num_faults=2, trials=50, seed=1)
        )
        assert campaign.total_injections == 50

    def test_deterministic_per_seed(self, protected_traffic_light):
        a = FaultCampaign(protected_traffic_light.structure).run(RandomMultiFault(2, 40, seed=3))
        b = FaultCampaign(protected_traffic_light.structure).run(RandomMultiFault(2, 40, seed=3))
        assert (a.masked, a.detected, a.hijacked) == (b.masked, b.detected, b.hijacked)

    def test_invalid_fault_count(self, protected_traffic_light):
        with pytest.raises(ValueError, match="num_faults must be >= 1"):
            FaultCampaign(protected_traffic_light.structure).run(RandomMultiFault(0, 10))

    def test_no_reachable_transitions(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        campaign.contexts = []
        with pytest.raises(ValueError, match="no reachable transitions"):
            campaign.run(RandomMultiFault(2, 10))

    def test_multi_fault_out_of_cfg_hijacks_stay_rare(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure).run(
            RandomMultiFault(num_faults=3, trials=200, seed=7)
        )
        # Random triple faults exceed the N=2 protection level, so a small
        # residual rate of undetected deviations is expected; most injections
        # must still be caught.
        assert campaign.hijack_rate < 0.12
        assert campaign.detection_rate > 0.5


class TestBehaviouralCampaign:
    def test_counts_add_up(self, protected_uart):
        campaign = behavioral_fault_campaign(protected_uart.hardened, num_faults=1, trials=300, seed=0)
        assert campaign.trials == 300
        assert campaign.masked + campaign.detected + campaign.redirected + campaign.hijacked == 300

    def test_single_state_faults_always_detected(self, protected_uart):
        campaign = behavioral_fault_campaign(
            protected_uart.hardened, num_faults=1, trials=300, targets=(TARGET_STATE,), seed=1
        )
        assert campaign.detected == campaign.trials

    def test_single_control_faults_never_hijack(self, protected_uart):
        campaign = behavioral_fault_campaign(
            protected_uart.hardened, num_faults=1, trials=300, targets=(TARGET_CONTROL,), seed=2
        )
        assert campaign.hijacked == 0

    def test_phi_input_faults_mostly_detected(self, protected_uart):
        campaign = behavioral_fault_campaign(
            protected_uart.hardened, num_faults=1, trials=400, targets=(TARGET_PHI_INPUT,), seed=3
        )
        assert campaign.detection_rate > 0.7
        assert campaign.hijack_rate < 0.15

    def test_diffusion_target(self, protected_uart):
        campaign = behavioral_fault_campaign(
            protected_uart.hardened, num_faults=2, trials=200, targets=(TARGET_DIFFUSION,), seed=4
        )
        assert campaign.trials == 200

    def test_invalid_arguments(self, protected_uart):
        with pytest.raises(ValueError):
            behavioral_fault_campaign(protected_uart.hardened, num_faults=0, trials=10)
        with pytest.raises(ValueError):
            behavioral_fault_campaign(
                protected_uart.hardened, num_faults=1, trials=10, targets=("bogus",)
            )
        with pytest.raises(ValueError):
            behavioral_fault_campaign(
                protected_uart.hardened, num_faults=10_000, trials=10, targets=(TARGET_STATE,)
            )

    def test_sweep_fault_counts(self, protected_traffic_light):
        results = sweep_fault_counts(protected_traffic_light.hardened, (1, 2), trials=100)
        assert set(results) == {1, 2}
        assert results[1].num_faults == 1
        assert results[2].num_faults == 2

    def test_format(self, protected_traffic_light):
        campaign = behavioral_fault_campaign(protected_traffic_light.hardened, 1, 50)
        assert "trials" in campaign.format()
