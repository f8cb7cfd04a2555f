"""Process-sharded campaign execution: equality, reporting, validation.

The sharded executor must be invisible in the results: ``workers=N`` may only
change wall-clock time, never a counter, an outcome, or a rate.  These tests
pin that property on random FSMs and on the ``ibex_lsu_fsm`` regression
netlist across every engine, plus the reporting and validation fixes
that go with it (per-scenario ``transitions_evaluated``, CLI validation of
``--engine``/``--workers``).
"""

import pytest

from repro.cli.fault_campaign import main as fi_main
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.eval.security import structural_fault_target_sweep
from repro.fi.model import FaultEffect
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import (
    ExhaustiveSingleFault,
    LaserSpot,
    MultiShotGlitch,
    RandomMultiFault,
    TemporalSingleFault,
)
from repro.fsm.random_fsm import random_fsm
from repro.fsmlib.opentitan import ibex_lsu_fsm

ENGINES = ("parallel", "parallel-numpy", "scalar")

ALL_EFFECTS = (FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)

#: The historical ibex_lsu_fsm comb-cloud counters (see test_parallel_sim).
IBEX_COMB_COUNTERS = (1369, 1479, 74, 88)


def _protect(fsm):
    return protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False)).structure


@pytest.fixture(scope="module")
def ibex_structure():
    return _protect(ibex_lsu_fsm())


class TestShardedEqualsSingleProcess:
    """Property style: workers=4 is bit-identical to workers=1 everywhere."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [7, 19])
    def test_random_fsm_exhaustive_counters(self, engine, seed):
        structure = _protect(random_fsm(seed, num_states=5))
        # The scalar oracle evaluates one trace per job; restrict it to
        # the diffusion region to keep the test fast -- it still exercises
        # every fault effect through the sharded wire format.
        target = "diffusion" if engine == "scalar" else "comb"
        scenario = ExhaustiveSingleFault(target_nets=target, effects=ALL_EFFECTS)
        single = FaultCampaign(structure, engine=engine).run(scenario)
        with FaultCampaign(structure, engine=engine, workers=4) as campaign:
            sharded = campaign.run(scenario)
        assert sharded.counters() == single.counters()
        assert sharded.total_injections == single.total_injections
        assert sharded.transitions_evaluated == single.transitions_evaluated

    @pytest.mark.parametrize("engine", ENGINES)
    def test_random_fsm_multi_fault_counters(self, engine):
        structure = _protect(random_fsm(123, num_states=5))
        scenario = RandomMultiFault(num_faults=2, trials=60, seed=9)
        single = FaultCampaign(structure, engine=engine).run(scenario)
        with FaultCampaign(structure, engine=engine, workers=4) as campaign:
            sharded = campaign.run(scenario)
        assert sharded.counters() == single.counters()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ibex_comb_cloud_regression_counters(self, ibex_structure, engine):
        with FaultCampaign(ibex_structure, engine=engine, workers=4) as campaign:
            sharded = campaign.run(ExhaustiveSingleFault(target_nets="comb"))
        assert sharded.counters() == IBEX_COMB_COUNTERS

    def test_sharded_outcomes_keep_job_order(self):
        structure = _protect(random_fsm(31, num_states=4))
        scenario = ExhaustiveSingleFault(target_nets="comb")
        single = FaultCampaign(structure, keep_outcomes=True).run(scenario)
        with FaultCampaign(structure, keep_outcomes=True, workers=3) as campaign:
            sharded = campaign.run(scenario)
        assert sharded.outcomes == single.outcomes

    def test_narrow_lanes_force_many_batches(self):
        """Tiny lane budgets mean every worker reply carries partial contexts."""
        structure = _protect(random_fsm(57, num_states=4))
        scenario = ExhaustiveSingleFault(target_nets="comb")
        single = FaultCampaign(structure, lane_width=5).run(scenario)
        with FaultCampaign(structure, lane_width=5, workers=4) as campaign:
            sharded = campaign.run(scenario)
        assert sharded.counters() == single.counters()

    @pytest.mark.parametrize("engine", ["parallel", "parallel-numpy"])
    def test_per_context_plans_shard_like_packed_plans(self, engine):
        """Workers pick broadcast or lane-word evaluation from the shipped
        batch alone: single-context batches of a per-context plan must give
        the packed in-process run's outcomes, in job order."""
        structure = _protect(random_fsm(43, num_states=5))
        scenario = ExhaustiveSingleFault(target_nets="comb", effects=ALL_EFFECTS)
        packed = FaultCampaign(structure, engine=engine, keep_outcomes=True).run(scenario)
        with FaultCampaign(
            structure, engine=engine, keep_outcomes=True, pack_contexts=False, workers=2
        ) as campaign:
            per_context = campaign.run(scenario)
        assert per_context.counters() == packed.counters()
        assert per_context.outcomes == packed.outcomes

    def test_structural_sweep_workers_param(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        single = structural_fault_target_sweep(structure)
        sharded = structural_fault_target_sweep(structure, workers=2)
        assert set(sharded) == set(single)
        for name in single:
            assert sharded[name].counters() == single[name].counters()

    def test_pool_reused_across_runs(self):
        structure = _protect(random_fsm(71, num_states=4))
        with FaultCampaign(structure, workers=2) as campaign:
            first = campaign.run(ExhaustiveSingleFault(target_nets="comb"))
            fleet = campaign._fleet
            second = campaign.run(ExhaustiveSingleFault(target_nets="comb"))
            assert campaign._fleet is fleet
        assert campaign._fleet is None  # context exit stopped it
        assert first.counters() == second.counters()


#: Worker counts of the matrix: in-process, and a fleet whose replies carry
#: the counts (and, with kept outcomes, the per-job codes).
EXECUTION_MODES = (1, 2)

#: Scenario shapes of the equivalence matrix, built per structure: the
#: exhaustive sweep, multi-fault groups (stuck-at pairs included), the
#: multi-cycle shapes -- persistent temporal faults, a multi-shot glitch
#: schedule and laser spots held over a 2-cycle trace -- and a schedule whose
#: faults collide on one net within a cycle, which pins the fault rule.
MATRIX_SCENARIOS = {
    "exhaustive": lambda structure: ExhaustiveSingleFault(
        target_nets="diffusion", effects=ALL_EFFECTS
    ),
    "random": lambda structure: RandomMultiFault(
        num_faults=3, trials=80, seed=4, effects=ALL_EFFECTS
    ),
    "temporal-persistent": lambda structure: TemporalSingleFault(
        target_nets="diffusion", effects=ALL_EFFECTS, cycles=3, duration="persistent"
    ),
    "multi-shot": lambda structure: MultiShotGlitch(
        glitches=[
            (0, structure.diffusion_nets[0], "flip"),
            (1, structure.diffusion_nets[1], "stuck1"),
            (2, structure.diffusion_nets[0], "stuck0"),
        ]
    ),
    "laser": lambda structure: LaserSpot(
        spot_trials=60, seed=3, effects=ALL_EFFECTS, cycles=2
    ),
    # Faults that meet on one net in one cycle: a flip and a stuck-at in
    # both orders (the stuck-at wins) and two stuck-ats (the last one wins).
    "conflicts": lambda structure: MultiShotGlitch(
        glitches=[
            (0, structure.diffusion_nets[0], "flip"),
            (0, structure.diffusion_nets[0], "stuck0"),
            (0, structure.diffusion_nets[1], "stuck1"),
            (0, structure.diffusion_nets[1], "flip"),
            (1, structure.diffusion_nets[2], "stuck1"),
            (1, structure.diffusion_nets[2], "stuck0"),
        ]
    ),
}


class TestEquivalenceMatrix:
    """Every scenario shape, single- and multi-cycle, on every engine:
    counters and kept outcome rows match the in-process scalar oracle across
    worker counts, so the compiled engines' one fault path
    and the oracle's sharded replies are pinned together."""

    @pytest.fixture(scope="class")
    def structure(self):
        return _protect(random_fsm(61, num_states=5))

    @pytest.fixture(scope="class")
    def oracle(self, structure):
        return {
            name: FaultCampaign(structure, engine="scalar", keep_outcomes=True).run(
                make(structure)
            )
            for name, make in MATRIX_SCENARIOS.items()
        }

    @pytest.mark.parametrize("scenario", sorted(MATRIX_SCENARIOS))
    @pytest.mark.parametrize("workers", EXECUTION_MODES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_counters_and_outcomes_match_oracle(
        self, structure, oracle, engine, workers, scenario
    ):
        make = MATRIX_SCENARIOS[scenario]
        expected = oracle[scenario]
        for keep_outcomes in (False, True):
            with FaultCampaign(
                structure,
                engine=engine,
                workers=workers,
                keep_outcomes=keep_outcomes,
            ) as campaign:
                result = campaign.run(make(structure))
                assert campaign.last_dispatch == "array-native"
            assert result.counters() == expected.counters()
            assert result.total_injections == expected.total_injections
            if keep_outcomes:
                assert result.outcomes == expected.outcomes


class TestTransitionsEvaluated:
    """Per-transition rates must count the contexts the jobs actually touch."""

    def test_exhaustive_touches_every_context(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        result = campaign.run(ExhaustiveSingleFault())
        assert result.transitions_evaluated == len(campaign.contexts)

    def test_single_trial_counts_one_context(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        result = campaign.run(RandomMultiFault(num_faults=1, trials=1, seed=3))
        assert result.transitions_evaluated == 1

    def test_sampled_subset_not_inflated(self, protected_traffic_light):
        campaign = FaultCampaign(protected_traffic_light.structure)
        result = campaign.run(RandomMultiFault(num_faults=2, trials=5, seed=0))
        assert 1 <= result.transitions_evaluated <= 5
        assert result.transitions_evaluated <= len(campaign.contexts)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_independent(self, protected_traffic_light, engine):
        campaign = FaultCampaign(protected_traffic_light.structure, engine=engine)
        result = campaign.run(RandomMultiFault(num_faults=1, trials=4, seed=8))
        oracle = FaultCampaign(protected_traffic_light.structure, engine="scalar").run(
            RandomMultiFault(num_faults=1, trials=4, seed=8)
        )
        assert result.transitions_evaluated == oracle.transitions_evaluated


class TestWorkersValidation:
    def test_executor_rejects_zero_workers(self, protected_traffic_light):
        with pytest.raises(ValueError, match="workers"):
            FaultCampaign(protected_traffic_light.structure, workers=0)

    def test_cli_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fi_main(["--fsm", "traffic_light", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_cli_rejects_non_integer_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fi_main(["--fsm", "traffic_light", "--workers", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err

    def test_cli_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fi_main(["--fsm", "traffic_light", "--engine", "quantum"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_engine_choices_track_executor(self):
        from repro.cli.fault_campaign import build_parser

        parser = build_parser()
        action = next(a for a in parser._actions if a.dest == "engine")
        assert tuple(action.choices) == FaultCampaign.ENGINES

    def test_cli_bitflip_runs_sharded(self, capsys):
        argv = ["--fsm", "traffic_light", "--mode", "bitflip", "--trials", "120"]
        assert fi_main(argv) == 0
        in_process = capsys.readouterr().out
        assert fi_main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == in_process

    def test_cli_sharded_run_succeeds(self, capsys):
        exit_code = fi_main(["--fsm", "traffic_light", "--workers", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "injections" in captured.out
