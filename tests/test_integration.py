"""End-to-end integration tests across the whole stack.

These tests exercise the complete pipeline a user of the library would run:
specify (or parse) an FSM, protect it, run the behavioural and structural
models in lockstep, attack it, and collect the evaluation artefacts.
"""

import pytest

from repro.core.redundancy import RedundancyOptions, protect_fsm_redundant
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fi.injector import ScfiFaultInjector
from repro.fi.model import Fault
from repro.fsm.simulate import FsmSimulator, random_input_sequence
from repro.fsmlib import uart_rx_fsm
from repro.fsmlib.opentitan import ibex_lsu_fsm
from repro.netlist.simulate import NetlistSimulator
from repro.netlist.timing import TimingAnalyzer
from repro.synth.flow import ModuleModel, synthesize_module


class TestLockstepSimulation:
    @pytest.mark.parametrize("level", [2, 3])
    def test_behavioural_and_structural_models_agree_over_time(self, level):
        """Run the original FSM, the hardened model and the gate-level netlist
        in lockstep over a long random stimulus; all three must agree."""
        fsm = uart_rx_fsm()
        result = protect_fsm(fsm, ScfiOptions(protection_level=level, generate_verilog=False))
        hardened = result.hardened
        structure = result.structure

        golden = FsmSimulator(fsm)
        netlist_sim = NetlistSimulator(structure.netlist)
        netlist_sim.set_register_word(structure.state_q, hardened.state_encoding[fsm.reset_state])
        behavioural_state = fsm.reset_state

        for inputs in random_input_sequence(fsm, 200, seed=31):
            golden_step = golden.step(inputs)
            behavioural = hardened.next_state(behavioural_state, inputs)
            netlist_sim.step(structure.encode_inputs(dict(inputs)))
            netlist_code = netlist_sim.read_register_word(structure.state_q)

            assert not behavioural.error_detected
            assert behavioural.next_state == golden_step.next_state
            assert netlist_code == hardened.state_encoding[golden_step.next_state]
            behavioural_state = behavioural.next_state

    def test_injected_fault_traps_the_netlist_permanently(self):
        """A mid-run register fault must push the netlist into the error state
        and keep it there (the non-escapable terminal state of Figure 4)."""
        fsm = uart_rx_fsm()
        result = protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False))
        structure = result.structure
        hardened = result.hardened
        simulator = NetlistSimulator(structure.netlist)
        simulator.set_register_word(structure.state_q, hardened.state_encoding[fsm.reset_state])

        sequence = random_input_sequence(fsm, 30, seed=5)
        for cycle, inputs in enumerate(sequence):
            encoded = structure.encode_inputs(dict(inputs))
            if cycle == 10:
                # Transient flip of one encoded state register bit.
                current = simulator.read_register_word(structure.state_q)
                simulator.set_register_word(structure.state_q, current ^ 0b1)
            simulator.step(encoded)
        final = simulator.read_register_word(structure.state_q)
        assert final == hardened.error_code

    def test_alert_output_rises_with_corrupted_state(self):
        fsm = uart_rx_fsm()
        result = protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False))
        structure = result.structure
        simulator = NetlistSimulator(structure.netlist)
        simulator.set_register_word(structure.state_q, 0)  # invalid codeword
        values = simulator.evaluate(structure.encode_inputs({}))
        assert values[structure.alert_net] == 1


class TestModuleFlow:
    def test_synthesize_module_styles(self):
        model = ModuleModel(fsm=ibex_lsu_fsm(), module_area_ge=933.0, datapath_depth=12, seed=2)
        unprotected = synthesize_module(model, style="unprotected")
        redundancy = synthesize_module(model, style="redundancy", protection_level=3)
        scfi = synthesize_module(model, style="scfi", protection_level=3)
        assert unprotected.fsm_area_ge < scfi.fsm_area_ge < redundancy.fsm_area_ge
        assert scfi.overhead_percent(unprotected) < redundancy.overhead_percent(unprotected)
        assert unprotected.logic_depth > 0

    def test_synthesize_module_with_datapath_padding(self):
        model = ModuleModel(fsm=ibex_lsu_fsm(), module_area_ge=933.0, datapath_depth=12, seed=2)
        report = synthesize_module(model, style="unprotected", include_datapath=True)
        assert report.area.total_ge >= 900.0
        assert report.timing.min_clock_period_ps > 0

    def test_unknown_style_rejected(self):
        model = ModuleModel(fsm=ibex_lsu_fsm(), module_area_ge=933.0)
        with pytest.raises(ValueError):
            synthesize_module(model, style="tmr")


class TestProtectionComparison:
    def test_whole_logic_single_fault_coverage(self):
        """Exhaustive single faults over the *entire* protected next-state
        logic (not only the diffusion layer the paper's formal experiment
        targets): undetected control-flow deviations must be a small residual
        dominated by the selection logic the paper flags in Section 7."""
        fsm = uart_rx_fsm()
        scfi = protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False))
        campaign = FaultCampaign(scfi.structure).run(
            ExhaustiveSingleFault(target_nets=ScfiFaultInjector(scfi.structure).all_comb_nets())
        )
        assert campaign.hijack_rate < 0.05
        assert campaign.undetected_deviation_rate < 0.10
        assert campaign.detection_rate > 0.3

    def test_diffusion_layer_single_faults_never_escape(self):
        """Restricted to the MDS diffusion gates (the Section 6.4 surface),
        the verify-and-repair pass leaves no hijack-capable fault at all."""
        fsm = uart_rx_fsm()
        scfi = protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False))
        campaign = FaultCampaign(scfi.structure).run(ExhaustiveSingleFault())
        assert campaign.hijacked == 0
        assert campaign.redirected == 0

    def test_timing_overhead_is_modest(self):
        """Section 6.2: the hardened next-state path adds only a few gate levels."""
        fsm = uart_rx_fsm()
        base = protect_fsm_redundant(fsm, RedundancyOptions(protection_level=1))
        scfi = protect_fsm(fsm, ScfiOptions(protection_level=3, generate_verilog=False))
        base_period = TimingAnalyzer(base.netlist).analyze().min_clock_period_ps
        scfi_period = TimingAnalyzer(scfi.netlist).analyze().min_clock_period_ps
        assert scfi_period < 2.0 * base_period
